/**
 * @file
 * repaird: the long-lived repair-as-a-service daemon.
 *
 * One process serves many clients over a Unix/TCP socket speaking
 * the NDJSON protocol (service/protocol.hpp).  The moving parts:
 *
 *   accept thread ──> connection threads ──> JobQueue ──> worker
 *                                                         threads
 *
 * Robustness invariants (the point of the daemon, enforced by
 * tests/service_test and the service-smoke CI job):
 *
 *   - Fault isolation.  Every job runs inside the same containment
 *     the CLI uses (StageGuards + the FatalError / PanicError /
 *     bad_alloc / StageTimeoutError taxonomy); a poisoned job
 *     produces an error result for that job only and never perturbs
 *     sibling jobs' results.  The service layer itself has
 *     deterministic fault-injection sites (service:accept,
 *     service:decode, service:dispatch, service:respond) so its
 *     degradation paths are testable end-to-end.
 *   - Admission control.  A bounded priority queue with explicit
 *     rejection (overloaded / tenant-busy / duplicate /
 *     shutting-down) — backpressure, not OOM.
 *   - Budgets.  Per-job timeouts are clamped to a server maximum and
 *     enforced through the existing StageGuard time slices; RSS
 *     watermarks (on current, not lifetime-peak, RSS) ride
 *     GuardConfig.  Client disconnect cancels the
 *     job's CancelToken, which the SAT conflict loop polls.
 *   - Crash recovery.  An append-only journal records job start/done;
 *     a restarted daemon reports jobs the previous instance lost as
 *     "interrupted" (recover request) instead of dropping them
 *     silently.
 */
#ifndef RTLREPAIR_SERVICE_SERVER_HPP
#define RTLREPAIR_SERVICE_SERVER_HPP

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/job_queue.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "util/stopwatch.hpp"

namespace rtlrepair::service {

struct ServerConfig
{
    /** Unix socket path (contains '/') or host:port. */
    std::string listen;
    /** Append-only crash-recovery journal ("" = disabled). */
    std::string journal_path;
    /** Concurrent repair jobs (worker threads). */
    unsigned workers = 2;
    /** Bounded queue: jobs waiting beyond the running ones. */
    size_t queue_depth = 16;
    /** Max jobs one tenant may have admitted at once (0 = off). */
    size_t tenant_cap = 8;
    /** Timeout granted when a submit does not ask for one. */
    double default_timeout = 60.0;
    /** Hard per-job ceiling; requested timeouts are clamped to it. */
    double max_job_seconds = 300.0;
    /** RSS watermark in MiB, compared with the process's current
     *  RSS before each solve stage of a job (0 = off). */
    size_t max_rss_mb = 0;
    /** Clamp on the per-job worker-thread request. */
    unsigned max_job_threads = 8;
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind + listen, replay the journal, and spawn the accept and
     * worker threads.  False + @p error on failure (address in use,
     * unwritable journal, ...).
     */
    bool start(std::string &error);

    /**
     * Begin shutdown: stop admitting, cancel every in-flight job
     * (their partial results flush to clients as cancelled), wake
     * all threads.  Safe to call more than once; called from the
     * signal path via the stop token's observer loop in repaird.
     */
    void requestStop();

    /** Join all threads (returns once requestStop() has completed). */
    void wait();

    /** Token that trips when the server is asked to stop. */
    CancelToken &stopToken() { return _stop; }

    /** Jobs the previous daemon instance lost (journal replay). */
    const std::vector<InterruptedJob> &interrupted() const;

  private:
    struct Connection;
    struct Job;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void workerLoop();
    void handleLine(const std::shared_ptr<Connection> &conn,
                    const std::string &line);
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      const Json &msg);
    void runJob(const std::shared_ptr<Job> &job);
    void finishJob(const std::shared_ptr<Job> &job,
                   const std::string &wire_status,
                   const std::string &response);
    Json statsJson();

    /** Send one line to @p conn (serialized, dead-safe). */
    static bool send(const std::shared_ptr<Connection> &conn,
                     const std::string &line);

    ServerConfig _config;
    CancelToken _stop;
    Fd _listener;
    Journal _journal;
    JobQueue<Job> _queue;

    std::mutex _mutex;  ///< guards _active, _recent, _conn_threads
    std::map<std::string, std::shared_ptr<Job>> _active;
    /** Recent result lines for idempotent re-query, newest last. */
    std::deque<std::pair<std::string, std::string>> _recent;

    std::thread _accept_thread;
    std::vector<std::thread> _workers;
    std::vector<std::thread> _conn_threads;
};

} // namespace rtlrepair::service

#endif // RTLREPAIR_SERVICE_SERVER_HPP
