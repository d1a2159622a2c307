// repaird: RTL-Repair as a long-lived service.
//
//   repaird --listen /tmp/repaird.sock [--journal repaird.journal]
//           [--workers N] [--queue-depth N] [--tenant-cap N]
//           [--default-timeout S] [--max-job-seconds S]
//           [--max-rss-mb N] [--max-job-threads N]
//           [--inject-fault STAGE:KIND:NTH] [--trace-out t.ndjson]
//
// Clients speak the NDJSON protocol of src/service/protocol.hpp over
// a Unix-domain socket (any --listen value containing '/') or TCP
// host:port.  `repair_cli --connect ADDR ...` is the reference
// client.
//
// SIGINT/SIGTERM begin a graceful shutdown: admission stops
// (rejections say "shutting-down"), in-flight jobs are cancelled and
// flush their partial results as status "cancelled", the journal is
// left consistent, and the process exits 0.  A second signal kills
// immediately (the handler restores the default disposition); the
// journal then reports the in-flight jobs as interrupted on the next
// start — that path is exercised by the service-smoke CI job with
// SIGKILL.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "service/server.hpp"
#include "util/fault.hpp"
#include "util/signals.hpp"
#include "util/telemetry.hpp"

using namespace rtlrepair;

namespace {

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s --listen ADDR [--journal FILE] [--workers N]\n"
        "          [--queue-depth N] [--tenant-cap N]\n"
        "          [--default-timeout S] [--max-job-seconds S]\n"
        "          [--max-rss-mb N] [--max-job-threads N]\n"
        "          [--inject-fault STAGE:KIND:NTH]\n"
        "          [--trace-out t.ndjson]\n"
        "ADDR: unix socket path (contains '/') or host:port\n",
        prog);
    return 4;
}

int
run(int argc, char **argv)
{
    service::ServerConfig config;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--listen") == 0) {
            const char *v = value("--listen");
            if (!v)
                return usage(argv[0]);
            config.listen = v;
        } else if (std::strcmp(argv[i], "--journal") == 0) {
            const char *v = value("--journal");
            if (!v)
                return usage(argv[0]);
            config.journal_path = v;
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            const char *v = value("--workers");
            if (!v)
                return usage(argv[0]);
            config.workers = unsigned(std::atoi(v));
        } else if (std::strcmp(argv[i], "--queue-depth") == 0) {
            const char *v = value("--queue-depth");
            if (!v)
                return usage(argv[0]);
            config.queue_depth = size_t(std::atoi(v));
        } else if (std::strcmp(argv[i], "--tenant-cap") == 0) {
            const char *v = value("--tenant-cap");
            if (!v)
                return usage(argv[0]);
            config.tenant_cap = size_t(std::atoi(v));
        } else if (std::strcmp(argv[i], "--default-timeout") == 0) {
            const char *v = value("--default-timeout");
            if (!v)
                return usage(argv[0]);
            config.default_timeout = std::atof(v);
        } else if (std::strcmp(argv[i], "--max-job-seconds") == 0) {
            const char *v = value("--max-job-seconds");
            if (!v)
                return usage(argv[0]);
            config.max_job_seconds = std::atof(v);
        } else if (std::strcmp(argv[i], "--max-rss-mb") == 0) {
            const char *v = value("--max-rss-mb");
            if (!v)
                return usage(argv[0]);
            config.max_rss_mb = size_t(std::atoi(v));
        } else if (std::strcmp(argv[i], "--max-job-threads") == 0) {
            const char *v = value("--max-job-threads");
            if (!v)
                return usage(argv[0]);
            config.max_job_threads = unsigned(std::atoi(v));
        } else if (std::strcmp(argv[i], "--inject-fault") == 0) {
            const char *v = value("--inject-fault");
            if (!v)
                return usage(argv[0]);
            FaultInjector::instance().configure(v);
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            const char *v = value("--trace-out");
            if (!v)
                return usage(argv[0]);
            trace_out = v;
            telemetry::setEnabled(true);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return usage(argv[0]);
        }
    }
    if (config.listen.empty())
        return usage(argv[0]);

    service::Server server(config);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "repaird: cannot start: %s\n",
                     error.c_str());
        return 5;
    }
    std::printf("repaird: listening on %s (%u workers, queue %zu)\n",
                config.listen.c_str(), config.workers,
                config.queue_depth);
    for (const auto &lost : server.interrupted())
        std::printf("repaird: interrupted job from previous run: %s\n",
                    lost.id.c_str());
    std::fflush(stdout);

    // Graceful shutdown: the signal handler trips this token; the
    // observer loop below turns it into requestStop().
    installSignalCancel(server.stopToken());
    while (!server.stopToken().cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::printf("repaird: signal %d, shutting down\n", cancelSignal());
    server.requestStop();
    server.wait();
    resetSignalCancel();

    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (out)
            telemetry::writeNdjson(out);
    }
    std::printf("repaird: stopped\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // No exception class may take the daemon down uncleanly.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "repaird: fatal: %s\n", e.what());
        return 5;
    } catch (...) {
        std::fprintf(stderr, "repaird: fatal: unknown exception\n");
        return 5;
    }
}
