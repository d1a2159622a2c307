#include "service/client.hpp"

#include <chrono>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "service/json.hpp"
#include "util/strings.hpp"

namespace rtlrepair::service {

namespace {

constexpr int kPollMs = 200;

/** splitmix64: tiny, seedable, good enough for backoff jitter. */
uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Client::Client(ClientConfig config) : _config(std::move(config))
{
    _rng = _config.jitter_seed != 0
               ? _config.jitter_seed
               : 0x2545f4914f6cdd1dull ^ uint64_t(::getpid());
    if (_config.max_attempts < 1)
        _config.max_attempts = 1;
}

Client::~Client() = default;

void
Client::close()
{
    _reader.reset();
    _fd = Fd();
}

uint64_t
Client::nextRand()
{
    return splitmix64(_rng);
}

int
Client::backoffMs(int attempt)
{
    int64_t backoff = _config.initial_backoff_ms;
    for (int i = 0; i < attempt && backoff < _config.max_backoff_ms;
         ++i)
        backoff *= 2;
    if (backoff > _config.max_backoff_ms)
        backoff = _config.max_backoff_ms;
    // Full jitter on the upper half: [backoff/2, backoff].
    int64_t half = backoff / 2;
    return int(half + (half > 0 ? int64_t(nextRand() % uint64_t(half + 1))
                                : 0));
}

bool
Client::connect(std::string &error, const CancelToken *cancel)
{
    close();
    for (int attempt = 0; attempt < _config.max_attempts; ++attempt) {
        if (cancel && cancel->cancelled()) {
            error = "cancelled";
            return false;
        }
        if (attempt > 0) {
            int sleep_ms = backoffMs(attempt - 1);
            // Sleep in slices so Ctrl-C is honoured promptly.
            while (sleep_ms > 0) {
                if (cancel && cancel->cancelled()) {
                    error = "cancelled";
                    return false;
                }
                int slice = sleep_ms < kPollMs ? sleep_ms : kPollMs;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(slice));
                sleep_ms -= slice;
            }
        }
        Fd fd = connectTo(_config.address, error);
        if (fd.valid()) {
            _fd = std::move(fd);
            _reader = std::make_unique<LineReader>(_fd.get());
            return true;
        }
    }
    error = format("cannot connect to %s after %d attempts: %s",
                   _config.address.c_str(), _config.max_attempts,
                   error.c_str());
    return false;
}

bool
Client::sendLine(const std::string &line)
{
    if (!_fd.valid())
        return false;
    if (!writeAll(_fd, line)) {
        close();
        return false;
    }
    return true;
}

LineReader::Io
Client::readLine(std::string &line, int timeout_ms)
{
    if (!_reader)
        return LineReader::Io::Error;
    return _reader->readLine(line, timeout_ms);
}

int
Client::runJob(const JobRequest &request, JobResult &result,
               const CancelToken *cancel)
{
    JobRequest req = request;
    if (req.id.empty())
        req.id = format("job-%016llx",
                        (unsigned long long)jobDigest(req.design,
                                                      req.trace));
    result = JobResult{};

    if (!sendLine(submitLine(req))) {
        result.detail = "connection lost before submit";
        return kExitInternal;
    }

    bool cancel_sent = false;
    std::string line;
    while (true) {
        if (cancel && cancel->cancelled() && !cancel_sent) {
            // Forward the signal as an explicit cancel; the daemon
            // flushes the partial result as status "cancelled".
            Json msg = Json::object();
            msg.set("v", Json::number(kProtocolVersion));
            msg.set("type", Json::string("cancel"));
            msg.set("id", Json::string(req.id));
            sendLine(msg.dump() + "\n");
            cancel_sent = true;
        }

        LineReader::Io io = readLine(line, kPollMs);
        if (io == LineReader::Io::Again)
            continue;
        if (io != LineReader::Io::Line) {
            // Connection lost mid-job: reconnect with backoff and
            // re-query the idempotent id.
            std::string error;
            if (!connect(error, cancel)) {
                result.detail = error;
                return cancel_sent ? kExitTimeout : kExitInternal;
            }
            Json query = Json::object();
            query.set("v", Json::number(kProtocolVersion));
            query.set("type", Json::string("query"));
            query.set("id", Json::string(req.id));
            if (!sendLine(query.dump() + "\n"))
                continue;  // lost again; reconnect on next read
            continue;
        }

        Json msg;
        std::string parse_error;
        if (!Json::parse(line, msg, &parse_error))
            continue;  // tolerate garbage; the result line matters
        std::string type = msg.str("type");
        std::string id = msg.str("id");
        if (!id.empty() && id != req.id)
            continue;  // other job multiplexed on this connection

        if (type == "accepted") {
            continue;
        } else if (type == "rejected") {
            result.status = "rejected";
            result.detail = msg.str("reason");
            result.exit_code = kExitRejected;
            return result.exit_code;
        } else if (type == "stage") {
            if (req.want_stages)
                std::printf("stage %-12s %-8s %6.2fs%s\n",
                            msg.str("stage").c_str(),
                            msg.str("status").c_str(),
                            msg.num("seconds", 0.0),
                            msg.find("rss_kb")
                                ? format(" rss=%.0fkB",
                                         msg.num("rss_kb", 0.0))
                                      .c_str()
                                : " rss=?");
            continue;
        } else if (type == "result") {
            result.status = msg.str("status");
            result.exit_code =
                int(msg.num("exit_code", kExitInternal));
            result.detail = msg.str("detail");
            result.repaired = msg.str("repaired");
            return result.exit_code;
        } else if (type == "job") {
            continue;  // still active after reconnect; keep waiting
        } else if (type == "error") {
            // After a reconnect, "unknown job" means the daemon was
            // itself restarted and lost the job: ask recover.
            if (msg.str("message").find("unknown job") !=
                std::string::npos) {
                Json recover = Json::object();
                recover.set("v", Json::number(kProtocolVersion));
                recover.set("type", Json::string("recover"));
                sendLine(recover.dump() + "\n");
                continue;
            }
            result.status = "error";
            result.detail = msg.str("message");
            result.exit_code = kExitInternal;
            return result.exit_code;
        } else if (type == "recovered") {
            const Json *jobs = msg.find("jobs");
            bool interrupted = false;
            if (jobs)
                for (const Json &lost : jobs->items())
                    interrupted |= lost.str("id") == req.id;
            if (interrupted) {
                result.status = "interrupted";
                result.interrupted = true;
                result.detail =
                    "daemon restarted with the job in flight";
                result.exit_code = kExitTimeout;
                return result.exit_code;
            }
            // Unknown to the daemon and not interrupted: it never saw
            // the submit (crashed between connect and journal).
            result.status = "error";
            result.detail = "job lost before admission";
            result.exit_code = kExitInternal;
            return result.exit_code;
        }
        // Unknown response types are skipped (forward compatibility).
    }
}

} // namespace rtlrepair::service
