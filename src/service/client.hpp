/**
 * @file
 * Thin client for the repaird daemon — the library behind
 * `repair_cli --connect`.
 *
 * Connection management is where the robustness lives:
 *   - connect() retries with exponential backoff and jitter (so a
 *     fleet of clients restarting against one daemon does not
 *     thundering-herd it);
 *   - a connection lost mid-job reconnects the same way and then
 *     re-queries the job id — ids are idempotent handles, so the
 *     result is replayed from the daemon's recent-results ring if it
 *     completed while we were gone;
 *   - if the daemon itself was restarted and lost the job, the
 *     recover request reports it as interrupted rather than hanging
 *     the client forever.
 *
 * runJob() drives one submission end to end and maps the result to
 * the stable repair_cli exit codes (plus kExitRejected for admission
 * refusals, which are not job outcomes).
 */
#ifndef RTLREPAIR_SERVICE_CLIENT_HPP
#define RTLREPAIR_SERVICE_CLIENT_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "util/stopwatch.hpp"

namespace rtlrepair::service {

/** Admission rejection ("overloaded", "tenant-busy", ...) — distinct
 *  from every job outcome so scripts can retry later. */
constexpr int kExitRejected = 6;

struct ClientConfig
{
    /** Daemon address: Unix path (contains '/') or host:port. */
    std::string address;
    /** Connection attempts before giving up (>= 1). */
    int max_attempts = 5;
    /** First retry delay; doubles per attempt up to the cap. */
    int initial_backoff_ms = 100;
    int max_backoff_ms = 2000;
    /** Jitter PRNG seed; 0 derives one from the pid so concurrent
     *  clients spread out. */
    uint64_t jitter_seed = 0;
};

/** What one runJob() produced, beyond the exit code. */
struct JobResult
{
    std::string status;    ///< wire status ("repaired", ...)
    int exit_code = kExitInternal;
    std::string detail;
    std::string repaired;  ///< patched source when repaired
    bool interrupted = false;  ///< daemon lost the job (crash)
};

class Client
{
  public:
    explicit Client(ClientConfig config);
    ~Client();

    /** Connect with retry + backoff; false + @p error when every
     *  attempt failed or @p cancel tripped. */
    bool connect(std::string &error,
                 const CancelToken *cancel = nullptr);

    bool connected() const { return _fd.valid(); }
    void close();

    /** One raw protocol line out (false = connection lost). */
    bool sendLine(const std::string &line);

    /** Next server line (without '\n'); polls so @p cancel can be
     *  checked between slices. */
    LineReader::Io readLine(std::string &line, int timeout_ms);

    /**
     * Drive @p req to completion: submit, stream stage lines to
     * stdout (when req.want_stages), survive reconnects, honour
     * @p cancel by sending a cancel request and waiting for the
     * flushed partial result.  Fills @p result and returns its exit
     * code.
     */
    int runJob(const JobRequest &req, JobResult &result,
               const CancelToken *cancel = nullptr);

  private:
    /** Backoff with jitter for attempt @p attempt (0-based). */
    int backoffMs(int attempt);
    uint64_t nextRand();

    ClientConfig _config;
    Fd _fd;
    std::unique_ptr<LineReader> _reader;
    uint64_t _rng;
};

} // namespace rtlrepair::service

#endif // RTLREPAIR_SERVICE_CLIENT_HPP
