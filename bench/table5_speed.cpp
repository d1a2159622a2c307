// Regenerates paper Table 5: the repair-speed breakdown — the
// preprocessing-only pass, each template in isolation (early exit
// off), the basic full-unroll synthesizer, and the full tool in both
// serial (jobs=1) and parallel-portfolio (--jobs N) mode, plus the
// CirFix baseline time for the speedup column.  A `!DET` marker on
// the parallel cell flags a serial/parallel outcome mismatch, which
// would be a determinism bug in the portfolio scheduler.
#include "bench_common.hpp"

#include <fstream>

#include "fuzz/generator.hpp"
#include "repair/parallel.hpp"
#include "sim/vec_sim.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "verilog/parser.hpp"

using rtlrepair::format;

using namespace rtlrepair;
using namespace rtlrepair::bench;

namespace {

struct Cell
{
    std::string text;
};

Cell
runVariant(const benchmarks::LoadedBenchmark &lb,
           const std::string &only_template, bool adaptive,
           bool preprocess_only, double timeout)
{
    repair::RepairConfig config;
    config.timeout_seconds = timeout;
    config.x_policy = lb.def->x_policy;
    config.only_template = only_template;
    config.engine.adaptive = adaptive;
    config.preprocess_only = preprocess_only;
    repair::RepairOutcome outcome = repair::repairDesign(
        *lb.buggy, lb.buggy_lib, lb.tb, config);
    using Status = repair::RepairOutcome::Status;
    switch (outcome.status) {
      case Status::Repaired: {
        int changes = outcome.changes + outcome.preprocess_changes;
        return {format("%dok %.2fs", changes, outcome.seconds)};
      }
      case Status::NoRepair:
        return {format("-   %.2fs", outcome.seconds)};
      case Status::Timeout:
        return {"T/O"};
      case Status::CannotSynthesize:
        return {"nosyn"};
      case Status::Degraded:
        return {format("deg %.2fs", outcome.seconds)};
    }
    return {"?"};
}

/** One row of the machine-readable run summary (CI perf gate). */
struct BenchRecord
{
    std::string name;
    std::string status;
    double wall_seconds = 0.0;
    uint64_t sat_conflicts = 0;
    size_t windows = 0;
    uint64_t sat_solves = 0;
    double encode_seconds = 0.0;
};

/** Sum of SAT conflicts over every candidate the run examined. */
uint64_t
totalConflicts(const repair::RepairOutcome &outcome)
{
    uint64_t total = 0;
    for (const auto &c : outcome.candidates)
        total += c.window.conflicts;
    return total;
}

/** Sum of SAT solve() calls over every window of the run. */
uint64_t
totalSatSolves(const repair::RepairOutcome &outcome)
{
    uint64_t total = 0;
    for (const auto &c : outcome.candidates)
        total += c.window.sat_calls;
    return total;
}

/** Sum of wall seconds spent encoding window deltas. */
double
totalEncodeSeconds(const repair::RepairOutcome &outcome)
{
    double total = 0.0;
    for (const auto &c : outcome.candidates)
        total += c.window.encode_seconds;
    return total;
}

/** Stimuli-per-second of the event vs vectorized backend. */
struct SimThroughput
{
    double event_sps = 0.0;
    double vec_sps = 0.0;
    double speedup = 0.0;
    size_t stimuli = 0;
    size_t cycles = 0;
};

/**
 * The fuzz batch workload: 64 independent traces replayed against one
 * generated design — the exact shape the fuzzer's batched fresh
 * co-sim check pushes through replayTraceBatch.  (Candidate repairs
 * are validated on specialized scalar systems instead, see
 * repair::ConcreteRunner.)  The golden traces are recorded once
 * outside the timed region; each backend is then re-run until it
 * accumulates enough wall time to dominate timer noise.  The reported
 * figure is stimuli (traces) replayed per second.
 */
SimThroughput
measureSimThroughput()
{
    constexpr size_t kStimuli = 64;
    constexpr size_t kCycles = 256;
    constexpr double kMinSeconds = 0.5;
    fuzz::GeneratedDesign gen = fuzz::generateDesign(42);
    verilog::SourceFile file = verilog::parse(gen.source);
    const verilog::Module &mod = file.top();
    std::vector<const verilog::Module *> lib;
    std::vector<trace::InputSequence> stims;
    stims.reserve(kStimuli);
    for (size_t l = 0; l < kStimuli; ++l)
        stims.push_back(fuzz::generateStimulus(gen, kCycles, 1000 + l));
    std::vector<const trace::InputSequence *> sptr;
    for (const auto &s : stims)
        sptr.push_back(&s);
    std::vector<trace::IoTrace> traces =
        sim::vecEventRecordBatch(mod, lib, gen.clock, sptr);
    std::vector<const trace::IoTrace *> tptr;
    for (const auto &t : traces)
        tptr.push_back(&t);

    // Warm both paths once so allocator and symbol-table setup costs
    // do not land inside the timed region of whichever runs first.
    (void)sim::eventReplay(mod, lib, gen.clock, traces[0]);
    (void)sim::vecEventReplayBatch(mod, lib, gen.clock, tptr);

    SimThroughput t;
    t.stimuli = kStimuli;
    t.cycles = kCycles;

    size_t reps = 0;
    Stopwatch ev;
    do {
        for (const auto &tr : traces)
            (void)sim::eventReplay(mod, lib, gen.clock, tr);
        ++reps;
    } while (ev.seconds() < kMinSeconds);
    t.event_sps = double(reps * kStimuli) / ev.seconds();

    reps = 0;
    Stopwatch vw;
    do {
        (void)sim::vecEventReplayBatch(mod, lib, gen.clock, tptr);
        ++reps;
    } while (vw.seconds() < kMinSeconds);
    t.vec_sps = double(reps * kStimuli) / vw.seconds();

    t.speedup = t.event_sps > 0 ? t.vec_sps / t.event_sps : 0.0;
    return t;
}

/**
 * `rtlrepair-bench-v1`: per-benchmark status / wall-clock /
 * deterministic SAT-conflict totals of the serial full-tool run, plus
 * the whole-process telemetry summary.  bench/perf_gate compares this
 * file against bench/baseline.json in CI.
 */
void
writeBenchMetrics(std::ostream &os,
                  const std::vector<BenchRecord> &records,
                  unsigned jobs, const SimThroughput &sim)
{
    os << "{\n  \"schema\": \"rtlrepair-bench-v1\",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"sim_throughput\": {\"event_sps\": "
       << format("%.1f", sim.event_sps)
       << ", \"vec_sps\": " << format("%.1f", sim.vec_sps)
       << ", \"speedup\": " << format("%.3f", sim.speedup)
       << ", \"stimuli\": " << sim.stimuli
       << ", \"cycles\": " << sim.cycles << "},\n";
    os << "  \"benchmarks\": [";
    for (size_t i = 0; i < records.size(); ++i) {
        const BenchRecord &r = records[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << r.name << "\", \"status\": \""
           << r.status << "\", \"wall_seconds\": "
           << format("%.6f", r.wall_seconds)
           << ", \"sat_conflicts\": " << r.sat_conflicts
           << ", \"windows\": " << r.windows
           << ", \"sat_solves\": " << r.sat_solves
           << ", \"encode_seconds\": "
           << format("%.6f", r.encode_seconds) << "}";
    }
    os << "\n  ],\n  \"telemetry\": ";
    telemetry::writeMetricsJson(os);
    os << "\n}\n";
}

/** The serial and parallel runs must agree on everything but time. */
bool
sameOutcome(const repair::RepairOutcome &a,
            const repair::RepairOutcome &b)
{
    if (a.status != b.status || a.changes != b.changes ||
        a.template_name != b.template_name) {
        return false;
    }
    if (!a.repaired != !b.repaired)
        return false;
    return !a.repaired ||
           verilog::print(*a.repaired) == verilog::print(*b.repaired);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    unsigned jobs = repair::resolveJobs(args.jobs);
    if (!args.metrics_out.empty() || !args.perfetto_out.empty())
        telemetry::setEnabled(true);
    std::vector<BenchRecord> records;
    if (args.fast && !args.fast_explicit) {
        std::printf("(fast mode: long-trace benchmarks skipped; run "
                    "with --full for the complete table)\n");
    }
    std::printf("Table 5: repair speed evaluation\n");
    std::printf("(NNok = repaired with NN changes; - = no repair; "
                "T/O = timeout; serial = full tool with jobs=1, "
                "par(%u) = parallel portfolio)\n\n", jobs);
    std::printf("%-12s | %-11s %-12s %-12s %-12s | %-12s %-12s "
                "%-12s %7s | %-10s %8s\n",
                "benchmark", "preprocess", "replace-lit", "add-guard",
                "cond-ovw", "basic-synth", "serial",
                format("par(%u)", jobs).c_str(), "par-spd", "cirfix",
                "speedup");
    std::printf("----------------------------------------------------"
                "--------------------------------------------------"
                "----------------------------------\n");

    for (const auto &def : benchmarks::all()) {
        if (def.oss || !selected(def, args))
            continue;
        const auto &lb = benchmarks::load(def);
        double timeout = args.rtl_timeout > 0 ? args.rtl_timeout
                                              : def.timeout_seconds;

        Cell pre = runVariant(lb, "", true, true, timeout);
        Cell rl = runVariant(lb, "replace-literals", true, false,
                             timeout);
        Cell ag = runVariant(lb, "add-guard", true, false, timeout);
        Cell co = runVariant(lb, "conditional-overwrite", true, false,
                             timeout);
        Cell basic = runVariant(lb, "", false, false, timeout);

        repair::RepairConfig full_cfg;
        full_cfg.timeout_seconds = timeout;
        full_cfg.x_policy = def.x_policy;
        full_cfg.jobs = 1;
        repair::RepairOutcome full = repair::repairDesign(
            *lb.buggy, lb.buggy_lib, lb.tb, full_cfg);
        auto cellFor = [](const repair::RepairOutcome &o) {
            return o.status == repair::RepairOutcome::Status::Repaired
                       ? Cell{format("%dok %.2fs",
                                     o.changes + o.preprocess_changes,
                                     o.seconds)}
                       : Cell{format("-   %.2fs", o.seconds)};
        };
        Cell full_cell = cellFor(full);

        records.push_back({def.name, statusGlyph(full.status),
                           full.seconds, totalConflicts(full),
                           full.candidates.size(), totalSatSolves(full),
                           totalEncodeSeconds(full)});

        full_cfg.jobs = jobs;
        repair::RepairOutcome par = repair::repairDesign(
            *lb.buggy, lb.buggy_lib, lb.tb, full_cfg);
        Cell par_cell = cellFor(par);
        if (!sameOutcome(full, par))
            par_cell.text += " !DET";
        double par_speedup =
            par.seconds > 0 ? full.seconds / par.seconds : 0.0;

        cirfix::CirFixOutcome cf = runCirFix(lb, args.cirfix_timeout);
        double speedup =
            full.seconds > 0 ? cf.seconds / full.seconds : 0.0;

        std::printf("%-12s | %-11s %-12s %-12s %-12s | %-12s %-12s "
                    "%-12s %6.2fx | %7.2fs %7.0fx\n",
                    def.name.c_str(), pre.text.c_str(),
                    rl.text.c_str(), ag.text.c_str(), co.text.c_str(),
                    basic.text.c_str(), full_cell.text.c_str(),
                    par_cell.text.c_str(), par_speedup, cf.seconds,
                    speedup);
        // Per-stage breakdown + memory high-water mark of the serial
        // full-tool run, from the fault-containment stage reports.
        std::printf("%-12s |   %s\n", "",
                    stageSummary(full.stages).c_str());
    }
    SimThroughput sim = measureSimThroughput();
    std::printf("\nsim throughput (fuzz batch workload, %zu stimuli x "
                "%zu cycles):\n"
                "  event %.0f stimuli/s | vec %.0f stimuli/s | "
                "speedup %.1fx\n",
                sim.stimuli, sim.cycles, sim.event_sps, sim.vec_sps,
                sim.speedup);
    if (!args.metrics_out.empty()) {
        std::ofstream out(args.metrics_out);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         args.metrics_out.c_str());
            return 1;
        }
        writeBenchMetrics(out, records, jobs, sim);
        std::fprintf(stderr, "[bench] wrote %s\n",
                     args.metrics_out.c_str());
    }
    if (!args.perfetto_out.empty()) {
        std::ofstream out(args.perfetto_out);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         args.perfetto_out.c_str());
            return 1;
        }
        telemetry::writePerfetto(out);
        std::fprintf(stderr, "[bench] wrote %s\n",
                     args.perfetto_out.c_str());
    }
    return 0;
}
