/**
 * @file
 * The repaird wire protocol: newline-delimited JSON (NDJSON),
 * version 1.
 *
 * Every line is one JSON object with a `"v": 1` version field and a
 * `"type"` discriminator.  Client -> server lines are requests
 * (submit / cancel / query / recover / stats / ping); server ->
 * client lines are responses and per-job event streams.  Responses
 * that belong to a job carry its `"id"`; a client multiplexing jobs
 * over one connection demultiplexes on that field.
 *
 * Request types:
 *   submit   {id?, tenant?, priority?, design, trace, timeout?,
 *             jobs?, zero_x?, report?}
 *   cancel   {id}
 *   query    {id}           — state of a queued/running/recent job
 *   recover  {}             — jobs interrupted by a daemon crash
 *   stats    {}             — queue/counter snapshot
 *   ping     {}
 *
 * Response types:
 *   accepted    {id, queue_depth}
 *   rejected    {id, reason}      — admission control verdicts:
 *               "overloaded" (queue full), "tenant-busy" (per-tenant
 *               cap), "duplicate" (id already in flight),
 *               "shutting-down", "bad-request" (malformed submit)
 *   stage       {id, stage, status, seconds, rss_kb|rss:"unknown",
 *                retries?, diagnostic?}
 *   result      {id, status, exit_code, changes, template, seconds,
 *                degraded, cancelled, detail, repaired?}
 *   job         {id, state:"active", cancelled?} — query reply for a
 *               queued or running job; `cancelled: true` once its
 *               cancel token has tripped (cancel request, client
 *               disconnect, shutdown)
 *   error       {message, id?}   — protocol-level failure (bad JSON,
 *               unknown type, injected decode fault); the connection
 *               survives
 *   pong / stats / recovered / cancelled — mirrors of their requests
 *
 * An interrupted job (daemon died with the job in flight, discovered
 * through the journal on restart) is reported by `recover` as
 * status "interrupted" with the exit code of a timeout, the closest
 * honest mapping: work was started and never finished.
 */
#ifndef RTLREPAIR_SERVICE_PROTOCOL_HPP
#define RTLREPAIR_SERVICE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "repair/driver.hpp"
#include "service/json.hpp"

namespace rtlrepair::service {

/** Protocol version spoken by this build. */
constexpr int kProtocolVersion = 1;

/** Stable CLI/service exit codes (documented in repair_cli). */
constexpr int kExitRepaired = 0;
constexpr int kExitNoRepair = 2;
constexpr int kExitTimeout = 3;
constexpr int kExitBadInput = 4;
constexpr int kExitInternal = 5;

/** Map a repair outcome to the stable exit code. */
int exitCodeFor(repair::RepairOutcome::Status status);

/** Wire name of a repair outcome ("repaired", "no-repair", ...). */
const char *statusWireName(repair::RepairOutcome::Status status);

/** One parsed submit request. */
struct JobRequest
{
    std::string id;       ///< idempotent job id (client-chosen)
    std::string tenant;   ///< admission-control bucket ("" = default)
    int priority = 0;     ///< higher runs first within the queue
    std::string design;   ///< Verilog source text
    std::string trace;    ///< I/O trace CSV text
    double timeout_seconds = 0.0;  ///< 0 = server default
    unsigned jobs = 1;    ///< worker threads inside the repair
    bool zero_x = false;
    bool want_stages = false;  ///< stream per-stage reports
};

/** Digest of a full submission (design + trace): the default
 *  content-addressed job id, identical on client and server. */
uint64_t jobDigest(const std::string &design_source,
                   const std::string &trace_csv);

/** Parse a submit object into @p out; false + error on bad fields. */
bool parseSubmit(const Json &msg, JobRequest &out, std::string &error);

/** Serialize @p req as a submit line (the client side). */
std::string submitLine(const JobRequest &req);

/** @name Server response lines (each includes v/type/trailing \n). */
///@{
std::string acceptedLine(const std::string &id, size_t queue_depth);
std::string rejectedLine(const std::string &id,
                         const std::string &reason);
std::string errorLine(const std::string &message,
                      const std::string &id = "");
std::string stageLine(const std::string &id,
                      const repair::StageReport &report);
std::string pongLine();

/**
 * Result line for a finished job.  @p repaired_source is the patched
 * design when status==Repaired.
 */
std::string resultLine(const std::string &id,
                       const repair::RepairOutcome &outcome,
                       const std::string &repaired_source);

/** Result line for a job that never produced an outcome. */
std::string failureResultLine(const std::string &id,
                              const std::string &status, int exit_code,
                              const std::string &detail);
///@}

/**
 * Validate the protocol envelope of a parsed line: object, `v` == 1
 * (or absent — tolerated for hand-written test traffic), `type`
 * present.  Returns the type, or nullopt with @p error filled.
 */
std::optional<std::string> messageType(const Json &msg,
                                       std::string &error);

} // namespace rtlrepair::service

#endif // RTLREPAIR_SERVICE_PROTOCOL_HPP
