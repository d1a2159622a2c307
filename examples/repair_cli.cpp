// repair_cli: the RTL-Repair tool as a command-line utility, the
// shape a downstream user would integrate into a flow:
//
//   repair_cli <buggy.v> <trace.csv> [--timeout S] [--zero-x]
//              [--jobs N] [--out repaired.v] [--report]
//              [--inject-fault STAGE:KIND:NTH]
//              [--trace-out t.ndjson] [--perfetto-out t.json]
//              [--metrics-out m.json]
//              [--connect ADDR [--id ID] [--tenant T]
//               [--priority N] [--retries N]]
//
// With --connect the repair runs on a repaird daemon (ADDR is a Unix
// socket path or host:port) instead of in-process: the design and
// trace are submitted over the NDJSON protocol, stage reports stream
// back live, and the exit code mapping below still holds.  The
// connection retries with exponential backoff + jitter, survives a
// daemon restart mid-job (idempotent job ids re-query the result),
// and reports a job the daemon lost to a crash as interrupted.
//
// Any of the three telemetry outputs (or --report) enables the
// telemetry subsystem for the run; with none of them, every
// instrumentation point is a single relaxed atomic load.
//
// The trace CSV uses `in:`/`out:` prefixed column headers and binary
// cell values with x for don't-cares (see trace/io_trace.hpp); it is
// the same format the benchmark registry can export.
//
// Exit codes are stable for scripting:
//   0  repaired (including repaired-by-preprocessing / none needed)
//   2  no repair found (also: degraded runs that found no repair)
//   3  global timeout; also cancellation (Ctrl-C, daemon shutdown)
//      and jobs a crashed daemon lost ("interrupted")
//   4  bad input (unparsable design/trace, unsynthesizable design,
//      unreadable files, usage errors)
//   5  internal error (panic / unexpected exception)
//   6  admission rejected by the daemon (overloaded / tenant-busy /
//      duplicate / shutting-down) — retry later, nothing ran
//
// SIGINT/SIGTERM cancel cooperatively in both modes: the token is
// polled at the SAT conflict loop, partial results flush, and the
// run exits 3 with "status: cancelled".  A second signal kills.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "repair/driver.hpp"
#include "service/client.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/signals.hpp"
#include "util/telemetry.hpp"
#include "verilog/ast_util.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

using namespace rtlrepair;

namespace {

constexpr int kExitRepaired = 0;
constexpr int kExitNoRepair = 2;
constexpr int kExitTimeout = 3;
constexpr int kExitBadInput = 4;
constexpr int kExitInternal = 5;

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s <buggy.v> <trace.csv> [--timeout S] "
                 "[--zero-x] [--jobs N] "
                 "[--out repaired.v] "
                 "[--report] [--inject-fault STAGE:KIND:NTH] "
                 "[--trace-out t.ndjson] [--perfetto-out t.json] "
                 "[--metrics-out m.json] "
                 "[--connect ADDR [--id ID] [--tenant T] "
                 "[--priority N] [--retries N]]\n",
                 prog);
    return kExitBadInput;
}

/** Slurp a file or return false (used for the --connect payload). */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Remote mode: submit to a repaird daemon and map the streamed
 * result back to the local exit codes.
 */
int
runRemote(const std::string &address, const std::string &verilog_path,
          const std::string &trace_path, service::JobRequest req,
          int retries, const std::string &out_path,
          CancelToken &cancel)
{
    if (!readFile(verilog_path, req.design)) {
        std::fprintf(stderr, "error: cannot read %s\n",
                     verilog_path.c_str());
        return kExitBadInput;
    }
    if (!readFile(trace_path, req.trace)) {
        std::fprintf(stderr, "error: cannot read %s\n",
                     trace_path.c_str());
        return kExitBadInput;
    }

    service::ClientConfig client_config;
    client_config.address = address;
    if (retries > 0)
        client_config.max_attempts = retries;
    service::Client client(client_config);
    std::string error;
    if (!client.connect(error, &cancel)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return kExitInternal;
    }

    service::JobResult result;
    int code = client.runJob(req, result, &cancel);
    if (result.status == "repaired") {
        std::printf("status: repaired (remote)\n");
        if (!out_path.empty() && !result.repaired.empty()) {
            std::ofstream out(out_path);
            out << result.repaired;
            std::printf("wrote %s\n", out_path.c_str());
        } else if (!result.repaired.empty()) {
            std::printf("%s", result.repaired.c_str());
        }
    } else {
        std::printf("status: %s%s%s\n", result.status.c_str(),
                    result.detail.empty() ? "" : " — ",
                    result.detail.c_str());
    }
    return code;
}

/** Write one telemetry export; failures are warnings, not errors. */
template <typename WriteFn>
void
writeExport(const std::string &path, WriteFn &&write)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return;
    }
    write(out);
    std::printf("wrote %s\n", path.c_str());
}

int
run(int argc, char **argv)
{
    if (argc < 3)
        return usage(argv[0]);
    std::string verilog_path = argv[1];
    std::string trace_path = argv[2];
    repair::RepairConfig config;
    std::string out_path;
    std::string trace_out, perfetto_out, metrics_out;
    std::string connect_addr, job_id, tenant;
    int priority = 0, retries = 0;
    bool report = false;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
            config.timeout_seconds = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--zero-x") == 0) {
            config.x_policy = sim::XPolicy::Zero;
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            config.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--report") == 0) {
            report = true;
        } else if (std::strcmp(argv[i], "--inject-fault") == 0 &&
                   i + 1 < argc) {
            // Deterministic fault injection for robustness testing;
            // same spec format as the RTLREPAIR_FAULT env variable.
            FaultInjector::instance().configure(argv[++i]);
        } else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                   i + 1 < argc) {
            trace_out = argv[++i];
        } else if (std::strcmp(argv[i], "--perfetto-out") == 0 &&
                   i + 1 < argc) {
            perfetto_out = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-out") == 0 &&
                   i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (std::strcmp(argv[i], "--connect") == 0 &&
                   i + 1 < argc) {
            connect_addr = argv[++i];
        } else if (std::strcmp(argv[i], "--id") == 0 && i + 1 < argc) {
            job_id = argv[++i];
        } else if (std::strcmp(argv[i], "--tenant") == 0 &&
                   i + 1 < argc) {
            tenant = argv[++i];
        } else if (std::strcmp(argv[i], "--priority") == 0 &&
                   i + 1 < argc) {
            priority = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--retries") == 0 &&
                   i + 1 < argc) {
            retries = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return usage(argv[0]);
        }
    }
    if (report || !trace_out.empty() || !perfetto_out.empty() ||
        !metrics_out.empty()) {
        telemetry::setEnabled(true);
    }

    // Ctrl-C / SIGTERM cancel cooperatively (second signal kills).
    static CancelToken signal_cancel;
    installSignalCancel(signal_cancel);
    config.cancel = &signal_cancel;

    if (!connect_addr.empty()) {
        service::JobRequest req;
        req.id = job_id;
        req.tenant = tenant;
        req.priority = priority;
        req.timeout_seconds = config.timeout_seconds;
        req.jobs = config.jobs;
        req.zero_x = config.x_policy == sim::XPolicy::Zero;
        req.want_stages = report;
        return runRemote(connect_addr, verilog_path, trace_path, req,
                         retries, out_path, signal_cancel);
    }

    // Parsing the design and the trace are guarded stages too: an
    // injected (or real) fault here must exit cleanly, not crash.
    std::vector<repair::StageReport> cli_stages;
    verilog::SourceFile file;
    {
        repair::StageGuard guard("parse", cli_stages);
        if (!guard.run(
                [&] { file = verilog::parseFile(verilog_path); })) {
            std::fprintf(stderr, "error: cannot parse %s (%s)\n",
                         verilog_path.c_str(),
                         guard.report().diagnostic.c_str());
            return guard.report().user_error ? kExitBadInput
                                             : kExitInternal;
        }
    }
    trace::IoTrace io;
    {
        repair::StageGuard guard("trace", cli_stages);
        bool ok = guard.run([&] {
            std::ifstream trace_in(trace_path);
            if (!trace_in)
                fatal("cannot open trace: " + trace_path);
            std::ostringstream buf;
            buf << trace_in.rdbuf();
            io = trace::IoTrace::fromCsv(buf.str());
        });
        if (!ok) {
            std::fprintf(stderr, "error: cannot load trace %s (%s)\n",
                         trace_path.c_str(),
                         guard.report().diagnostic.c_str());
            return guard.report().user_error ? kExitBadInput
                                             : kExitInternal;
        }
    }

    std::vector<const verilog::Module *> library;
    for (const auto &m : file.modules) {
        if (m.get() != &file.top())
            library.push_back(m.get());
    }
    repair::RepairOutcome outcome =
        repair::repairDesign(file.top(), library, io, config);

    // The driver folded its own stages already; the CLI-side parse and
    // trace-load stages join the same counter families here.
    repair::foldStageCounters(cli_stages);

    if (report) {
        std::vector<repair::StageReport> all = cli_stages;
        all.insert(all.end(), outcome.stages.begin(),
                   outcome.stages.end());
        std::printf("--- stage report ---\n%s--------------------\n",
                    repair::formatStageReports(all).c_str());
        std::printf("--- metrics ---\n%s---------------\n",
                    telemetry::metricsSummary().c_str());
    }
    writeExport(trace_out,
                [](std::ostream &os) { telemetry::writeNdjson(os); });
    writeExport(perfetto_out, [](std::ostream &os) {
        telemetry::writePerfetto(os);
    });
    writeExport(metrics_out, [](std::ostream &os) {
        telemetry::writeMetricsJson(os);
    });

    using Status = repair::RepairOutcome::Status;
    if (outcome.cancelled) {
        // Partial results (stage reports, telemetry) were already
        // flushed above; the status line is honest about why.
        std::printf("status: cancelled after %.2fs (signal %d)\n",
                    outcome.seconds, cancelSignal());
        return kExitTimeout;
    }
    switch (outcome.status) {
      case Status::Repaired:
        std::printf("status: repaired (%d changes, %.2fs, %s)\n",
                    outcome.changes + outcome.preprocess_changes,
                    outcome.seconds, outcome.template_name.c_str());
        std::printf("%s",
                    verilog::formatDiff(
                        verilog::diffLines(print(file.top()),
                                           print(*outcome.repaired)))
                        .c_str());
        if (!out_path.empty()) {
            std::ofstream out(out_path);
            out << print(*outcome.repaired);
            std::printf("wrote %s\n", out_path.c_str());
        }
        return kExitRepaired;
      case Status::NoRepair:
        std::printf("status: cannot repair (%.2fs)\n%s",
                    outcome.seconds, outcome.detail.c_str());
        return kExitNoRepair;
      case Status::Degraded:
        std::printf("status: cannot repair, run degraded (%.2fs)\n%s",
                    outcome.seconds, outcome.detail.c_str());
        return kExitNoRepair;
      case Status::Timeout:
        std::printf("status: timeout after %.2fs\n", outcome.seconds);
        return kExitTimeout;
      case Status::CannotSynthesize:
        std::printf("status: design is not synthesizable\n%s",
                    outcome.detail.c_str());
        return kExitBadInput;
    }
    return kExitInternal;
}

} // namespace

int
main(int argc, char **argv)
{
    // Containment of last resort: no exception class may escape main.
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitBadInput;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return kExitInternal;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return kExitInternal;
    } catch (...) {
        std::fprintf(stderr, "internal error: unknown exception\n");
        return kExitInternal;
    }
}
