#include "service/server.hpp"

#include <atomic>
#include <deque>
#include <mutex>

#include "service/json.hpp"
#include "trace/io_trace.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

namespace rtlrepair::service {

namespace {

constexpr int kPollMs = 200;
constexpr size_t kRecentResults = 128;

telemetry::Counter &
serviceCounter(const char *what)
{
    return telemetry::counter(std::string("service.") + what,
                              telemetry::MetricKind::Unstable);
}

/** Default idempotent job id when the client did not choose one:
 *  content-addressed, so a blind resubmit of the same inputs maps to
 *  the same job. */
std::string
defaultJobId(const JobRequest &req)
{
    return format("job-%016llx",
                  (unsigned long long)jobDigest(req.design,
                                                req.trace));
}

Json
responseEnvelope(const char *type)
{
    Json msg = Json::object();
    msg.set("v", Json::number(kProtocolVersion));
    msg.set("type", Json::string(type));
    return msg;
}

} // namespace

/**
 * One client connection.  Reads happen on the connection thread;
 * writes come from connection and worker threads alike and are
 * serialized by write_mutex.  `alive` flips once (EOF, write error,
 * injected respond fault) and every later send becomes a no-op —
 * a dead client must not wedge its jobs.
 */
struct Server::Connection
{
    Fd fd;
    std::mutex write_mutex;
    std::atomic<bool> alive{true};
    /** Jobs submitted over this connection (for disconnect-cancel). */
    std::mutex jobs_mutex;
    std::vector<std::weak_ptr<Job>> jobs;
};

/** One admitted job: the request plus its cancellation scope. */
struct Server::Job
{
    JobRequest req;
    CancelToken cancel;
    std::shared_ptr<Connection> conn;
    /** Held by handleSubmit from admission until the job is journalled
     *  and registered, and taken first by runJob: a job that finishes
     *  at once must not log done or leave _active before its start
     *  was logged and it was entered there. */
    std::mutex registering;
};

Server::Server(ServerConfig config)
    : _config(std::move(config)),
      _queue(_config.queue_depth, _config.tenant_cap)
{
}

Server::~Server()
{
    requestStop();
    wait();
}

const std::vector<InterruptedJob> &
Server::interrupted() const
{
    return _journal.interrupted();
}

bool
Server::start(std::string &error)
{
    if (!_journal.open(_config.journal_path, error))
        return false;
    _listener = listenOn(_config.listen, error);
    if (!_listener.valid())
        return false;
    if (_config.workers == 0)
        _config.workers = 1;
    for (unsigned i = 0; i < _config.workers; ++i)
        _workers.emplace_back(&Server::workerLoop, this);
    _accept_thread = std::thread(&Server::acceptLoop, this);
    return true;
}

void
Server::requestStop()
{
    _stop.cancel();
    _queue.shutdown();
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[id, job] : _active)
        job->cancel.cancel();
}

void
Server::wait()
{
    if (_accept_thread.joinable())
        _accept_thread.join();
    for (auto &worker : _workers)
        if (worker.joinable())
            worker.join();
    // The accept thread is down, so no new connection threads can
    // appear; steal the list and join outside the lock.
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        conns.swap(_conn_threads);
    }
    for (auto &conn : conns)
        if (conn.joinable())
            conn.join();
}

bool
Server::send(const std::shared_ptr<Connection> &conn,
             const std::string &line)
{
    if (!conn->alive.load(std::memory_order_relaxed))
        return false;
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!writeAll(conn->fd, line)) {
        conn->alive.store(false, std::memory_order_relaxed);
        return false;
    }
    return true;
}

void
Server::acceptLoop()
{
    while (!_stop.cancelled()) {
        Fd client = acceptOn(_listener, kPollMs);
        if (!client.valid())
            continue;
        // Accept-path fault site: a fault here may drop this one
        // connection but must leave the daemon serving.
        try {
            faultPoint("service:accept");
        } catch (const FatalError &) {
            serviceCounter("accept.faulted").add(1);
            continue;
        } catch (const PanicError &) {
            serviceCounter("accept.faulted").add(1);
            continue;
        } catch (const std::bad_alloc &) {
            serviceCounter("accept.faulted").add(1);
            continue;
        } catch (const StageTimeoutError &) {
            serviceCounter("accept.faulted").add(1);
            continue;
        }
        serviceCounter("connections").add(1);
        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(client);
        std::lock_guard<std::mutex> lock(_mutex);
        _conn_threads.emplace_back(&Server::connectionLoop, this, conn);
    }
}

void
Server::connectionLoop(std::shared_ptr<Connection> conn)
{
    LineReader reader(conn->fd.get());
    std::string line;
    while (!_stop.cancelled() &&
           conn->alive.load(std::memory_order_relaxed)) {
        LineReader::Io io = reader.readLine(line, kPollMs);
        if (io == LineReader::Io::Again)
            continue;
        if (io != LineReader::Io::Line)
            break;
        handleLine(conn, line);
    }
    conn->alive.store(false, std::memory_order_relaxed);
    // Client gone: cancel everything it still has in flight.  The
    // token trips, the conflict-loop polls see it, and each job
    // unwinds as cancelled instead of burning a worker for a result
    // nobody will read.
    std::lock_guard<std::mutex> lock(conn->jobs_mutex);
    for (auto &weak : conn->jobs)
        if (auto job = weak.lock())
            job->cancel.cancel();
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line)
{
    // Decode-path fault site: a poisoned request degrades to an error
    // response on this connection; the daemon and its siblings are
    // untouched.
    try {
        faultPoint("service:decode");
    } catch (const FatalError &e) {
        send(conn, errorLine(format("decode fault: %s", e.what())));
        return;
    } catch (const PanicError &e) {
        send(conn, errorLine(format("decode fault: %s", e.what())));
        return;
    } catch (const std::bad_alloc &) {
        send(conn, errorLine("decode fault: out of memory"));
        return;
    } catch (const StageTimeoutError &e) {
        send(conn, errorLine(format("decode fault: %s", e.what())));
        return;
    }

    Json msg;
    std::string error;
    if (!Json::parse(line, msg, &error)) {
        send(conn, errorLine(format("bad JSON: %s", error.c_str())));
        return;
    }
    std::optional<std::string> type = messageType(msg, error);
    if (!type) {
        send(conn, errorLine(error));
        return;
    }

    if (*type == "submit") {
        handleSubmit(conn, msg);
    } else if (*type == "cancel") {
        std::string id = msg.str("id");
        std::shared_ptr<Job> job;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            auto it = _active.find(id);
            if (it != _active.end())
                job = it->second;
        }
        if (!job) {
            send(conn, errorLine("unknown job", id));
            return;
        }
        job->cancel.cancel();
        Json reply = responseEnvelope("cancelled");
        reply.set("id", Json::string(id));
        send(conn, reply.dump() + "\n");
    } else if (*type == "query") {
        std::string id = msg.str("id");
        std::shared_ptr<Job> job;
        std::string recent;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            auto it = _active.find(id);
            if (it != _active.end()) {
                job = it->second;
            } else {
                for (const auto &[rid, result] : _recent)
                    if (rid == id)
                        recent = result;
            }
        }
        if (job) {
            Json reply = responseEnvelope("job");
            reply.set("id", Json::string(id));
            reply.set("state", Json::string("active"));
            if (job->cancel.cancelled())
                reply.set("cancelled", Json::boolean(true));
            send(conn, reply.dump() + "\n");
        } else if (!recent.empty()) {
            send(conn, recent);  // idempotent result replay
        } else {
            send(conn, errorLine("unknown job", id));
        }
    } else if (*type == "recover") {
        Json reply = responseEnvelope("recovered");
        Json jobs = Json::array();
        for (const auto &lost : _journal.interrupted()) {
            Json entry = Json::object();
            entry.set("id", Json::string(lost.id));
            if (!lost.tenant.empty())
                entry.set("tenant", Json::string(lost.tenant));
            entry.set("status", Json::string("interrupted"));
            entry.set("exit_code", Json::number(kExitTimeout));
            jobs.push(std::move(entry));
        }
        reply.set("jobs", std::move(jobs));
        send(conn, reply.dump() + "\n");
    } else if (*type == "stats") {
        send(conn, statsJson().dump() + "\n");
    } else if (*type == "ping") {
        send(conn, pongLine());
    } else {
        send(conn,
             errorLine(format("unknown request type \"%s\"",
                              type->c_str())));
    }
}

void
Server::handleSubmit(const std::shared_ptr<Connection> &conn,
                     const Json &msg)
{
    JobRequest req;
    std::string error;
    if (!parseSubmit(msg, req, error)) {
        send(conn, errorLine(error, msg.str("id")));
        send(conn, rejectedLine(msg.str("id"), "bad-request"));
        serviceCounter("jobs.rejected").add(1);
        return;
    }
    if (req.id.empty())
        req.id = defaultJobId(req);

    auto job = std::make_shared<Job>();
    job->req = req;
    job->conn = conn;
    std::unique_lock<std::mutex> registering(job->registering);
    Admission verdict =
        _queue.submit(req.id, req.tenant, req.priority, job);
    if (verdict != Admission::Admitted) {
        send(conn, rejectedLine(req.id, admissionReason(verdict)));
        serviceCounter("jobs.rejected").add(1);
        return;
    }

    // Journal before acknowledging: once the client sees "accepted",
    // a daemon crash must surface this id as interrupted.
    _journal.clearInterrupted(req.id);
    _journal.logStart(req.id, req.tenant);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _active[req.id] = job;
    }
    {
        std::lock_guard<std::mutex> lock(conn->jobs_mutex);
        conn->jobs.push_back(job);
    }
    registering.unlock();
    serviceCounter("jobs.accepted").add(1);
    send(conn, acceptedLine(req.id, _queue.queued()));
}

void
Server::workerLoop()
{
    while (true) {
        std::shared_ptr<Job> job = _queue.pop(kPollMs);
        if (!job) {
            if (_stop.cancelled())
                break;  // queue drained (pop prefers jobs over null)
            continue;
        }
        runJob(job);
    }
}

void
Server::finishJob(const std::shared_ptr<Job> &job,
                  const std::string &wire_status,
                  const std::string &response)
{
    // Respond-path fault site: the client may lose its result line,
    // but the journal, queue slot and cache stay consistent — the
    // client can re-query the id after reconnecting.
    bool respond_ok = true;
    try {
        faultPoint("service:respond");
    } catch (const FatalError &) {
        respond_ok = false;
    } catch (const PanicError &) {
        respond_ok = false;
    } catch (const std::bad_alloc &) {
        respond_ok = false;
    } catch (const StageTimeoutError &) {
        respond_ok = false;
    }
    if (respond_ok)
        send(job->conn, response);
    else
        job->conn->alive.store(false, std::memory_order_relaxed);

    _journal.logDone(job->req.id, wire_status);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _recent.emplace_back(job->req.id, response);
        while (_recent.size() > kRecentResults)
            _recent.pop_front();
        _active.erase(job->req.id);
    }
    _queue.release(job->req.id, job->req.tenant);
    serviceCounter("jobs.completed").add(1);
}

void
Server::runJob(const std::shared_ptr<Job> &job)
{
    { std::lock_guard<std::mutex> registered(job->registering); }
    const JobRequest &req = job->req;
    try {
        if (job->cancel.cancelled()) {
            // Cancelled while queued (disconnect or explicit cancel):
            // never start the pipeline.
            finishJob(job, "cancelled",
                      failureResultLine(req.id, "cancelled",
                                        kExitTimeout,
                                        "cancelled before start"));
            return;
        }
        // Dispatch-path fault site: this job degrades to an internal
        // error; the worker thread survives to run the next job.
        faultPoint("service:dispatch");

        std::vector<repair::StageReport> svc_stages;
        verilog::SourceFile file;
        {
            repair::StageGuard guard("parse", svc_stages);
            if (!guard.run(
                    [&] { file = verilog::parse(req.design); })) {
                const repair::StageReport &r = guard.report();
                finishJob(job,
                          r.user_error ? "bad-input" : "error",
                          failureResultLine(
                              req.id,
                              r.user_error ? "bad-input" : "error",
                              r.user_error ? kExitBadInput
                                           : kExitInternal,
                              format("parse: %s",
                                     r.diagnostic.c_str())));
                return;
            }
        }
        trace::IoTrace io;
        {
            repair::StageGuard guard("trace", svc_stages);
            if (!guard.run(
                    [&] { io = trace::IoTrace::fromCsv(req.trace); })) {
                const repair::StageReport &r = guard.report();
                finishJob(job,
                          r.user_error ? "bad-input" : "error",
                          failureResultLine(
                              req.id,
                              r.user_error ? "bad-input" : "error",
                              r.user_error ? kExitBadInput
                                           : kExitInternal,
                              format("trace: %s",
                                     r.diagnostic.c_str())));
                return;
            }
        }
        repair::foldStageCounters(svc_stages);

        std::vector<const verilog::Module *> library;
        for (const auto &m : file.modules) {
            if (m.get() != &file.top())
                library.push_back(m.get());
        }

        // Per-tenant budgets: the requested timeout is clamped to the
        // server ceiling, worker threads to the server clamp; the RSS
        // watermark rides the existing guard machinery.
        repair::RepairConfig config;
        config.timeout_seconds = req.timeout_seconds > 0.0
                                     ? req.timeout_seconds
                                     : _config.default_timeout;
        if (_config.max_job_seconds > 0.0 &&
            config.timeout_seconds > _config.max_job_seconds)
            config.timeout_seconds = _config.max_job_seconds;
        config.x_policy = req.zero_x ? sim::XPolicy::Zero
                                     : sim::XPolicy::Random;
        config.jobs = req.jobs == 0 ? 1 : req.jobs;
        if (config.jobs > _config.max_job_threads)
            config.jobs = _config.max_job_threads;
        config.guard.max_rss_mb = _config.max_rss_mb;
        config.cancel = &job->cancel;

        repair::RepairOutcome outcome =
            repair::repairDesign(file.top(), library, io, config);

        if (req.want_stages) {
            for (const auto &report : svc_stages)
                send(job->conn, stageLine(req.id, report));
            for (const auto &report : outcome.stages)
                send(job->conn, stageLine(req.id, report));
        }

        std::string repaired_source;
        if (outcome.status ==
                repair::RepairOutcome::Status::Repaired &&
            outcome.repaired)
            repaired_source = verilog::print(*outcome.repaired);
        std::string wire_status =
            outcome.cancelled ? "cancelled"
                              : statusWireName(outcome.status);
        if (outcome.cancelled)
            serviceCounter("jobs.cancelled").add(1);
        finishJob(job, wire_status,
                  resultLine(req.id, outcome, repaired_source));
    } catch (const FatalError &e) {
        serviceCounter("jobs.faulted").add(1);
        finishJob(job, "bad-input",
                  failureResultLine(req.id, "bad-input", kExitBadInput,
                                    e.what()));
    } catch (const PanicError &e) {
        serviceCounter("jobs.faulted").add(1);
        finishJob(job, "error",
                  failureResultLine(req.id, "error", kExitInternal,
                                    e.what()));
    } catch (const StageTimeoutError &e) {
        serviceCounter("jobs.faulted").add(1);
        finishJob(job, "timeout",
                  failureResultLine(req.id, "timeout", kExitTimeout,
                                    e.what()));
    } catch (const std::bad_alloc &) {
        serviceCounter("jobs.faulted").add(1);
        finishJob(job, "error",
                  failureResultLine(req.id, "error", kExitInternal,
                                    "out of memory"));
    } catch (const std::exception &e) {
        serviceCounter("jobs.faulted").add(1);
        finishJob(job, "error",
                  failureResultLine(req.id, "error", kExitInternal,
                                    format("unexpected: %s",
                                           e.what())));
    }
}

Json
Server::statsJson()
{
    Json reply = responseEnvelope("stats");
    reply.set("queued", Json::number(uint64_t(_queue.queued())));
    reply.set("admitted", Json::number(uint64_t(_queue.admitted())));
    reply.set("workers", Json::number(uint64_t(_config.workers)));
    reply.set("interrupted",
              Json::number(uint64_t(_journal.interrupted().size())));
    return reply;
}

} // namespace rtlrepair::service
