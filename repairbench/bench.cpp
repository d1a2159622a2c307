// repairbench: end-to-end and per-layer benchmark of the repair tool.
//
//   repairbench --workload sat-suite|long-trace|fuzz-cosim|fuzz-heldout
//               --seed N --seconds S --trace 0|1 [--out DIR]
//
// Each workload is a fixed set of items: registry bugs, or 200 fuzz
// cases derived from a case seed that is part of the workload (1 for
// fuzz-cosim, 2 for the held-out fuzz-heldout).  --seed orders the
// items: every pass after the first runs them in the same seeded order.
//
// One process, jobs=1.  Set-up builds the inputs in kSetupBlocks
// blocks of about a second each, spread over the run; setup_s is the
// median block.  Pass 0 runs the items in listed order; peak_rss_mb is
// its peak RSS.  The passes after it run for S seconds, at least one;
// pass_s is the median of all passes.  Every pass must reproduce pass
// 0's exact counts.
// Every claimed repair is checked: against its own driving trace under
// the event simulator and with the Table 4 battery (checks::checkRepair).
//
// --trace 1 alternates traced and untraced timed passes.  A traced pass
// records the benchmark's own spans around each public call, turns on
// the tool's telemetry, grafts its spans under the benchmark's, and
// reports per-layer self times and work counters.  Files go to DIR
// (default .bench_out): <workload>-report.txt, and with --trace 1
// <workload>-trace.ndjson.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit 0 only when every check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "benchmarks/registry.hpp"
#include "checks/correctness.hpp"
#include "cirfix/mutations.hpp"
#include "elaborate/elaborate.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "repair/driver.hpp"
#include "sim/interpreter.hpp"
#include "sim/vec_sim.hpp"
#include "spans.hpp"
#include "trace/io_trace.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

namespace {

using namespace rtlrepair;
using repairbench::Scope;
using repairbench::SpanLog;

// ---------------------------------------------------------------- util

/** Wall seconds on the steady clock. */
double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds used by this process. */
double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

/** The same clock the tool's telemetry spans use. */
uint64_t
spanClockUs()
{
    return telemetry::nowUs();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set (VmHWM) of this process in MB; 0 if unknown. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/**
 * Start a fresh peak-RSS window: hand freed heap pages back to the
 * kernel, then reset VmHWM to the current RSS (Linux clear_refs "5"),
 * so the next peakRssMb() reads the peak of what ran in between.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Nanoseconds per cycle; 0 when nothing was replayed. */
double
perCycleNs(double seconds, double cycles)
{
    return cycles > 0 ? 1e9 * seconds / cycles : 0.0;
}

/** First @p rows cycles of a trace, via its CSV form (header + rows). */
trace::IoTrace
csvPrefix(const std::string &csv, size_t rows)
{
    size_t pos = 0;
    for (size_t line = 0; line <= rows && pos != std::string::npos;
         ++line) {
        pos = csv.find('\n', pos);
        if (pos != std::string::npos)
            ++pos;
    }
    return trace::IoTrace::fromCsv(
        pos == std::string::npos ? csv : csv.substr(0, pos));
}

/** Set the @p hidden outputs of @p tb to X (don't care) in every row. */
void
maskHidden(trace::IoTrace &tb, const std::vector<std::string> &hidden)
{
    for (const auto &name : hidden) {
        int idx = tb.outputIndex(name);
        if (idx < 0)
            throw std::runtime_error("no output " + name);
        for (auto &row : tb.output_rows)
            row[idx] = bv::Value::allX(row[idx].width());
    }
}

/** The module named @p top; every other module goes to @p library. */
const verilog::Module &
selectTop(const verilog::SourceFile &file, const std::string &top,
          std::vector<const verilog::Module *> &library)
{
    const verilog::Module *selected = nullptr;
    for (const auto &m : file.modules) {
        if (m->name == top)
            selected = m.get();
        else
            library.push_back(m.get());
    }
    if (!selected)
        throw std::runtime_error("top module not found: " + top);
    return *selected;
}

// ------------------------------------------------------------- metrics

/** Per-layer sums of one pass, keyed by metric name. */
using Sums = std::map<std::string, double>;

/** What one pass produced. */
struct PassResult
{
    double wall_s = 0.0;
    /** One line of exact counts per item, indexed by item (listed
     *  order, whatever order the pass ran them in). */
    std::vector<std::string> signature;
    size_t repaired = 0;
    size_t verified = 0;  ///< fuzz-cosim: oracle verdicts (pinned)
    size_t failed = 0;
    Sums sums;
    /** Per-item wall seconds and outcome, for the run report. */
    std::vector<std::string> item_lines;
};

/** Result of the once-per-run correctness checks. */
struct CheckResult
{
    size_t verified = 0;
    size_t drive_failures = 0;  ///< patches failing their own trace
    /** 0-change verdicts failing the trace under event semantics. */
    size_t unchanged_mismatches = 0;
    size_t errors = 0;          ///< checks that threw
    double seconds = 0.0;
    std::vector<std::string> lines;
};

/** A traced pass: the merged span tree and the tool's counters. */
struct TracedPass
{
    /** The benchmark's spans first, then the tool's. */
    std::vector<repairbench::Span> spans;
    size_t bench_spans = 0;
    std::vector<uint64_t> self_us;
    std::map<std::string, double> self_s;      ///< per layer
    std::map<std::string, double> total_s;     ///< per span name key
    std::map<std::string, uint64_t> counters;  ///< tool telemetry
    double pass_s = 0.0;  ///< bench.pass duration
    double self_sum_s = 0.0;
    uint64_t dropped = 0;

    /** Total duration of the spans named @p key (before any ':'). */
    double
    total(const std::string &key) const
    {
        auto it = total_s.find(key);
        return it == total_s.end() ? 0.0 : it->second;
    }

    double
    counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0
                                    : static_cast<double>(it->second);
    }
};

// ------------------------------------------------------------ workloads

/** One benchmark workload: set-up, timed pass, checks, extras. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs from scratch (timed by the caller). */
    virtual void setup() = 0;
    /** Items per pass. */
    virtual size_t items() const = 0;
    /** Run the items in their listed order (seed 0) or in an order
     *  drawn from @p seed; the same seed gives the same order. */
    void
    shuffle(uint64_t seed)
    {
        order.resize(items());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(seed);
        for (size_t i = order.size(); seed != 0 && i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }
    /** One pass over the items in `order`; spans go to @p log when
     *  enabled.  The first pass keeps its repairs for check(). */
    virtual PassResult pass(SpanLog &log, bool first) = 0;
    /** Check the repairs kept by the last pass(first=true);
     *  its `verified` is the workload's verified count. */
    virtual CheckResult check() = 0;
    /** Set-up builds per block, sized so that a block takes about a
     *  second; setup_s is the median block. */
    virtual size_t setupBuilds() const = 0;
    /** Per-layer values the traced pass's sums lack: measurements
     *  made outside the passes, or figures read from the trace. */
    virtual void layerExtras(const TracedPass &traced, Sums &out) = 0;
    /** Seconds spent in golden-trace recording by the last setup. */
    double record_s = 0.0;

  protected:
    /** Item indices in run order (see shuffle). */
    std::vector<size_t> order;
};

// --- sat-suite / long-trace: the repair_cli path, in process ----------

/** sat-suite: the registry bugs whose driving traces are short
 *  (<= 636 cycles), i.e. all but pairing_k1/w1/w2, reed_b1/o1, i2c_k1,
 *  oss_c1/c3 and oss_d9. */
const std::vector<std::string> kSatSuiteBugs = {
    "decoder_w1", "decoder_w2", "counter_w1", "counter_k1", "counter_w2",
    "flop_w1",    "flop_w2",    "fsm_w1",     "fsm_s2",     "fsm_w2",
    "fsm_s1",     "shift_w1",   "shift_w2",   "shift_k1",   "mux_k1",
    "mux_w2",     "mux_w1",     "i2c_w1",     "i2c_w2",     "sha3_w1",
    "sha3_r1",    "sha3_w2",    "sha3_s1",    "sdram_w2",   "sdram_k2",
    "sdram_w1",   "oss_d4",     "oss_d8",     "oss_d11",    "oss_d12",
    "oss_d13",    "oss_c4",     "oss_s1r",    "oss_s1b",    "oss_s2",
    "oss_s3",     "oss_m1",     "oss_m2",     "oss_m3",     "oss_m4",
    "oss_m5",
};

struct RepairInput
{
    const benchmarks::BenchmarkDef *def = nullptr;
    std::string buggy_text;
    std::string golden_text;
    std::string csv;      ///< golden trace, serialized
    std::string ext_csv;  ///< extended trace ("" = none)
    size_t cycles = 0;
};

/** What the correctness checks need from a pass: the printed repair. */
struct KeptRepair
{
    size_t item = 0;
    std::string repaired_text;
    /** The tool found nothing to change (RepairOutcome::
     *  no_repair_needed): a verdict about the trace, not a patch. */
    bool unchanged = false;
};

class RepairWorkload : public Workload
{
  public:
    RepairWorkload(const std::vector<std::string> &names,
                   size_t setup_builds)
        : _setup_builds(setup_builds)
    {
        for (const auto &name : names) {
            const benchmarks::BenchmarkDef *def =
                benchmarks::find(name);
            if (!def)
                throw std::runtime_error("unknown benchmark " + name);
            _defs.push_back(def);
        }
    }

    void
    setup() override
    {
        // Parse the ground truth, elaborate it, record its trace with
        // 4-state semantics (X = don't care) and serialize the CSV —
        // what the registry does to make a testbench trace.
        _inputs.clear();
        record_s = 0.0;
        for (const auto *def : _defs) {
            RepairInput in;
            in.def = def;
            std::string base =
                benchmarks::benchmarkRoot() + "/" + def->dir + "/";
            in.buggy_text = readFile(base + def->buggy_file);
            in.golden_text = readFile(base + def->golden_file);
            verilog::SourceFile golden = verilog::parse(in.golden_text);
            std::vector<const verilog::Module *> lib;
            const verilog::Module &top =
                selectTop(golden, def->top, lib);
            elaborate::ElaborateOptions opts;
            opts.library = lib;
            ir::TransitionSystem sys = elaborate::elaborate(top, opts);
            sim::SimOptions so;
            so.init_policy = sim::XPolicy::Keep;
            so.input_policy = sim::XPolicy::Keep;
            double t0 = nowS();
            trace::IoTrace tb = sim::record(
                sys, benchmarks::makeStimulus(def->stimulus_id), so);
            record_s += nowS() - t0;
            maskHidden(tb, def->hidden_outputs);
            in.cycles = tb.length();
            in.csv = tb.toCsv();
            if (!def->extended_stimulus_id.empty()) {
                t0 = nowS();
                trace::IoTrace ext = sim::record(
                    sys,
                    benchmarks::makeStimulus(def->extended_stimulus_id),
                    so);
                record_s += nowS() - t0;
                in.ext_csv = ext.toCsv();
            }
            _inputs.push_back(std::move(in));
        }
    }

    size_t items() const override { return _defs.size(); }
    size_t setupBuilds() const override { return _setup_builds; }

    PassResult
    pass(SpanLog &log, bool first) override
    {
        PassResult r;
        r.signature.resize(items());
        if (first)
            _kept.clear();
        double start = nowS();
        Scope pass_span(log, "bench.pass");
        for (size_t i : order)
            runItem(i, log, first, r);
        r.wall_s = nowS() - start;
        return r;
    }

    CheckResult
    check() override
    {
        CheckResult c;
        double start = nowS();
        for (const KeptRepair &k : _kept) {
            const RepairInput &in = _inputs[k.item];
            const benchmarks::BenchmarkDef &def = *in.def;
            try {
                verilog::SourceFile golden =
                    verilog::parse(in.golden_text);
                std::vector<const verilog::Module *> golden_lib;
                const verilog::Module &gtop =
                    selectTop(golden, def.top, golden_lib);
                verilog::SourceFile repaired =
                    verilog::parse(k.repaired_text);
                trace::IoTrace tb = trace::IoTrace::fromCsv(in.csv);
                std::optional<trace::IoTrace> ext;
                if (!in.ext_csv.empty())
                    ext = trace::IoTrace::fromCsv(in.ext_csv);
                checks::CheckInputs ci;
                ci.golden = &gtop;
                ci.repaired = &repaired.top();
                ci.library = golden_lib;
                ci.clock = def.clock;
                ci.tb = &tb;
                ci.extended_tb = ext ? &*ext : nullptr;
                checks::CheckReport rep = checks::checkRepair(ci);
                // The testbench check is the event-driven replay of
                // the repair's own driving trace.  A patch that fails
                // it is a wrong repair.  A "nothing to repair" verdict
                // that fails it is the simulation-vs-synthesis gap the
                // paper reports for shift_k1: the buggy design
                // synthesizes to a circuit that passes.  It is
                // reported and never counts as verified.
                bool drives = rep.testbench.value_or(false);
                const char *note = "";
                if (!drives && k.unchanged) {
                    ++c.unchanged_mismatches;
                    note = "\tUNCHANGED-FAILS-EVENT-SIM";
                } else if (!drives) {
                    ++c.drive_failures;
                    note = "\tDRIVE-FAIL";
                }
                if (rep.overall)
                    ++c.verified;
                c.lines.push_back(def.name + "\t" + rep.cells() + note);
            } catch (const std::exception &e) {
                ++c.errors;
                c.lines.push_back(def.name + "\tcheck threw: " +
                                  e.what());
            }
        }
        c.seconds = nowS() - start;
        return c;
    }

    void
    layerExtras(const TracedPass &, Sums &out) override
    {
        double scalar_s = 0.0, scalar_cycles = 0.0;
        double vec_s = 0.0, vec_lane_cycles = 0.0;
        for (const RepairInput &in : _inputs) {
            verilog::SourceFile golden = verilog::parse(in.golden_text);
            std::vector<const verilog::Module *> lib;
            const verilog::Module &top =
                selectTop(golden, in.def->top, lib);
            trace::IoTrace tb = trace::IoTrace::fromCsv(in.csv);
            // Scalar full replay of the golden system (the concrete
            // replay the repair engine runs on candidates).
            elaborate::ElaborateOptions opts;
            opts.library = lib;
            ir::TransitionSystem sys = elaborate::elaborate(top, opts);
            sim::Interpreter interp(sys);
            double t0 = nowS();
            sim::ReplayResult rr = sim::replay(interp, tb);
            scalar_s += nowS() - t0;
            scalar_cycles += static_cast<double>(
                rr.passed ? tb.length() : rr.first_failure + 1);
            // 64-lane batch replay of a bounded prefix.
            trace::IoTrace prefix = csvPrefix(in.csv, kVecCycles);
            std::vector<const trace::IoTrace *> batch(64, &prefix);
            t0 = nowS();
            sim::replayTraceBatch(sim::SimBackend::Vec, top, lib,
                                  in.def->clock, batch);
            vec_s += nowS() - t0;
            vec_lane_cycles += 64.0 * static_cast<double>(
                                          prefix.length());
        }
        out["sim.replay_ns_per_cycle"] = perCycleNs(scalar_s, scalar_cycles);
        out["sim.vec_ns_per_lane_cycle"] = perCycleNs(vec_s, vec_lane_cycles);
    }

  private:
    static constexpr size_t kVecCycles = 2048;

    void
    runItem(size_t i, SpanLog &log, bool keep, PassResult &r)
    {
        const RepairInput &in = _inputs[i];
        const benchmarks::BenchmarkDef &def = *in.def;
        Scope item_span(log, "bench.item:" + def.name);
        double t_item = nowS();
        std::string status = "threw";
        std::ostringstream sig;
        sig << def.name;
        try {
            double t0 = nowS();
            verilog::SourceFile file;
            {
                Scope s(log, "verilog.parse");
                file = verilog::parse(in.buggy_text);
            }
            double t1 = nowS();
            trace::IoTrace io;
            {
                Scope s(log, "trace.parse");
                io = trace::IoTrace::fromCsv(in.csv);
            }
            double t2 = nowS();
            std::vector<const verilog::Module *> lib;
            const verilog::Module &top = selectTop(file, def.top, lib);
            repair::RepairConfig cfg;
            cfg.timeout_seconds = def.timeout_seconds;
            cfg.x_policy = def.x_policy;
            cfg.jobs = 1;
            repair::RepairOutcome out;
            {
                Scope s(log, "repair.repairDesign");
                out = repair::repairDesign(top, lib, io, cfg);
            }
            double t3 = nowS();
            std::string printed;
            if (out.repaired) {
                Scope s(log, "verilog.print");
                printed = verilog::print(*out.repaired);
            }

            using St = repair::RepairOutcome::Status;
            status = out.status == St::Repaired     ? "repaired"
                     : out.status == St::NoRepair   ? "no-repair"
                     : out.status == St::Timeout    ? "timeout"
                     : out.status == St::Degraded   ? "degraded"
                                                    : "cannot-synth";
            if (out.status == St::Repaired) {
                ++r.repaired;
                if (keep)
                    _kept.push_back({i, printed, out.no_repair_needed});
            } else if (out.status != St::NoRepair) {
                ++r.failed;
            }

            double window_s = 0.0;
            uint64_t sat_calls = 0, reused = 0;
            for (const auto &cand : out.candidates) {
                const repair::WindowStat &w = cand.window;
                window_s += w.solve_seconds;
                sat_calls += w.sat_calls;
                reused += w.reused_aig_nodes;
                r.sums["repair.windows"] += 1;
                r.sums["repair.sat_windows"] +=
                    std::strcmp(w.status, "sat") == 0;
                r.sums["sat.calls"] += w.sat_calls;
                r.sums["sat.conflicts"] += w.conflicts;
                r.sums["sat.propagations"] += w.propagations;
                r.sums["smt.encode_s"] += w.encode_seconds;
                r.sums["smt.aig_nodes"] += w.aig_nodes;
                r.sums["smt.reused_aig_nodes"] += w.reused_aig_nodes;
            }
            r.sums["repair.window_s"] += window_s;
            r.sums["repair.wall_s"] += t3 - t2;
            r.sums["verilog.parse_s"] += t1 - t0;
            r.sums["trace.parse_s"] += t2 - t1;
            r.sums["trace.rows"] += io.length();
            // Exact counts only: no wall-clock field may enter here.
            sig << " sat_calls=" << sat_calls << " reused=" << reused
                << "\n"
                << fuzz::outcomeFingerprint(out);
        } catch (const std::exception &e) {
            ++r.failed;
            sig << " threw: " << e.what();
        }
        r.signature[i] = sig.str();
        char line[256];
        std::snprintf(line, sizeof line, "%-12s %7zu cycles  %-12s %9.4f s",
                      def.name.c_str(), in.cycles, status.c_str(),
                      nowS() - t_item);
        r.item_lines.push_back(line);
    }

    size_t _setup_builds;
    std::vector<const benchmarks::BenchmarkDef *> _defs;
    std::vector<RepairInput> _inputs;
    std::vector<KeptRepair> _kept;
};

// --- fuzz-cosim, fuzz-heldout: the differential fuzz loop ---------------

/** The fuzz design pool (the fast registry subset fuzz_cli uses). */
const std::vector<std::string> kFuzzPool = {
    "decoder_w1", "counter_k1", "flop_w1", "fsm_w1", "shift_w1",
    "mux_k1",     "oss_m1",     "oss_m2",  "oss_m3", "oss_m4",
    "oss_m5",
};

struct FuzzInput
{
    fuzz::FuzzCase fcase;
    verilog::SourceFile golden_src;  ///< parsed ground truth
    const verilog::Module *golden = nullptr;
    std::vector<const verilog::Module *> library;
    std::string clock;
    std::string csv;  ///< golden trace, hidden outputs masked
};

class FuzzWorkload : public Workload
{
  public:
    explicit FuzzWorkload(uint64_t case_seed)
    {
        _config.seed = case_seed;
        _config.runs = kRuns;
        _config.jobs = 1;
        _config.fresh_cycles = 256;
        _config.fresh_batch = 64;
        _config.reduce = false;
        // Registry designs are loaded (and their traces recorded) on
        // first use and cached for the process; do it before timing.
        for (const auto &name : kFuzzPool)
            benchmarks::load(name);
    }

    void
    setup() override
    {
        // A copy of the input build fuzz::fuzz and fuzz::runCase do
        // before the repair: derive the cases from the case seed, then
        // for each generate or parse the design, record its golden
        // trace with the oracle's simulator backend, mask hidden
        // outputs, and inject the mutations.  runCase repeats this
        // internally in the pass; set-up keeps the cases for the pass
        // and the golden designs and traces for layerExtras.
        _inputs.clear();
        record_s = _parse_s = _mutate_s = 0.0;
        Rng rng(_config.seed);
        for (size_t run = 0; run < _config.runs; ++run) {
            FuzzInput in;
            fuzz::FuzzCase &fc = in.fcase;
            if (rng.chance(_config.gen_probability))
                fc.design = "gen2:" + std::to_string(rng.next() & 0xffff);
            else
                fc.design = kFuzzPool[rng.below(kFuzzPool.size())];
            fc.mutator = cirfix::kMutatorVersion;
            size_t n_mut = 1 + rng.below(static_cast<uint64_t>(
                                   _config.max_mutations));
            for (size_t i = 0; i < n_mut; ++i)
                fc.mutations.push_back(rng.next());
            fc.fresh_cycles = _config.fresh_cycles;
            fc.fresh_seed = rng.next();
            materialize(in);
            _inputs.push_back(std::move(in));
        }
    }

    size_t items() const override { return kRuns; }
    /** About 0.12 s per build. */
    size_t setupBuilds() const override { return 8; }

    PassResult
    pass(SpanLog &log, bool first) override
    {
        PassResult r;
        r.signature.resize(items());
        double start = nowS();
        Scope pass_span(log, "bench.pass");
        for (size_t idx : order) {
            const fuzz::FuzzCase &fc = _inputs[idx].fcase;
            Scope item_span(log, "bench.item:" + std::to_string(idx));
            fuzz::CaseResult res;
            {
                Scope s(log, "fuzz.runCase");
                res = fuzz::runCase(fc, _config);
            }
            r.sums[std::string("fuzz.") + classKey(res.cls)] += 1;
            switch (res.cls) {
            case fuzz::RunClass::RepairedVerified:
                ++r.verified;
                ++r.repaired;
                break;
            case fuzz::RunClass::RepairedOverfit:
                ++r.repaired;
                break;
            case fuzz::RunClass::PipelineFault:
            case fuzz::RunClass::OracleMismatch:
                ++r.failed;
                break;
            default:
                break;
            }
            r.signature[idx] = std::to_string(idx) + " " + fc.design +
                               " " + fuzz::toString(res.cls) + "\n" +
                               res.fingerprint;
            char line[256];
            std::snprintf(line, sizeof line, "%4zu %-12s %-18s %9.4f s",
                          idx, fc.design.c_str(),
                          fuzz::toString(res.cls), res.seconds);
            r.item_lines.push_back(line);
        }
        r.wall_s = nowS() - start;
        if (first)
            _verified = r.verified;
        return r;
    }

    CheckResult
    check() override
    {
        // The oracle inside runCase already co-simulated every claimed
        // repair (driving trace + 64 fresh stimuli); its verdict is
        // the check, and the exactness guard pins it across passes.
        CheckResult c;
        c.verified = _verified;
        return c;
    }

    void
    layerExtras(const TracedPass &t, Sums &out) override
    {
        // runCase hides its outcomes; the tool's telemetry folds the
        // same per-window statistics.
        out["sat.calls"] = t.counter("window.sat_calls");
        out["sat.conflicts"] = t.counter("sat.conflicts");
        out["sat.propagations"] = t.counter("sat.propagations");
        out["repair.windows"] = t.counter("window.solves");
        out["repair.sat_windows"] = t.counter("window.sat");
        out["repair.window_s"] = 1e-6 * t.counter("window.solve_us");
        out["smt.encode_s"] = 1e-6 * t.counter("window.encode_us");
        out["smt.aig_nodes"] = t.counter("window.aig_nodes");
        out["smt.reused_aig_nodes"] = t.counter("window.reused_aig_nodes");
        out["repair.wall_s"] = t.total("repair");
        out["fuzz.repair_s"] = t.total("repair");
        out["fuzz.oracle_s"] = t.total("fuzz.runCase") - t.total("repair");
        out["fuzz.mutate_s"] = _mutate_s;
        out["verilog.parse_s"] = _parse_s;

        double scalar_s = 0.0, scalar_cycles = 0.0;
        double vec_s = 0.0, vec_lane_cycles = 0.0;
        for (const FuzzInput &in : _inputs) {
            trace::IoTrace tb = trace::IoTrace::fromCsv(in.csv);
            try {
                elaborate::ElaborateOptions opts;
                opts.library = in.library;
                ir::TransitionSystem sys =
                    elaborate::elaborate(*in.golden, opts);
                sim::Interpreter interp(sys);
                double t0 = nowS();
                sim::ReplayResult rr = sim::replay(interp, tb);
                scalar_s += nowS() - t0;
                scalar_cycles += static_cast<double>(
                    rr.passed ? tb.length() : rr.first_failure + 1);
            } catch (const std::exception &) {
                // Not synthesizable under the IR semantics: no scalar
                // replay for this design.
            }
            std::vector<const trace::IoTrace *> batch(64, &tb);
            double t0 = nowS();
            sim::replayTraceBatch(sim::SimBackend::Vec, *in.golden,
                                  in.library, in.clock, batch);
            vec_s += nowS() - t0;
            vec_lane_cycles += 64.0 * static_cast<double>(tb.length());
        }
        out["sim.replay_ns_per_cycle"] = perCycleNs(scalar_s, scalar_cycles);
        out["sim.vec_ns_per_lane_cycle"] = perCycleNs(vec_s, vec_lane_cycles);
    }

    static const char *
    classKey(fuzz::RunClass cls)
    {
        switch (cls) {
        case fuzz::RunClass::RepairedVerified: return "verified";
        case fuzz::RunClass::RepairedOverfit: return "overfit";
        case fuzz::RunClass::NoRepair: return "no_repair";
        case fuzz::RunClass::MutantBenign: return "benign";
        case fuzz::RunClass::MutantInvisible: return "invisible";
        case fuzz::RunClass::PipelineFault: return "fault";
        case fuzz::RunClass::OracleMismatch: return "mismatch";
        }
        return "unknown";
    }

  private:
    static constexpr size_t kRuns = 200;
    static constexpr size_t kGenCycles = 24;

    void
    materialize(FuzzInput &in)
    {
        const std::string &design = in.fcase.design;
        trace::InputSequence stim;
        std::vector<std::string> hidden;
        double t0 = 0.0;
        if (design.rfind("gen2:", 0) == 0) {
            uint64_t gen_seed = std::stoull(design.substr(5));
            fuzz::GeneratedDesign gen = fuzz::generateDesign(gen_seed, 2);
            t0 = nowS();
            in.golden_src = verilog::parse(gen.source);
            _parse_s += nowS() - t0;
            in.golden = &in.golden_src.top();
            in.clock = gen.clock;
            stim = fuzz::generateStimulus(gen, kGenCycles, gen_seed);
        } else {
            const benchmarks::BenchmarkDef *def =
                benchmarks::find(design);
            std::string path = benchmarks::benchmarkRoot() + "/" +
                               def->dir + "/" + def->golden_file;
            std::string text = readFile(path);
            t0 = nowS();
            in.golden_src = verilog::parse(text);
            _parse_s += nowS() - t0;
            in.golden = &selectTop(in.golden_src, def->top, in.library);
            in.clock = def->clock;
            hidden = def->hidden_outputs;
            stim = benchmarks::makeStimulus(def->stimulus_id);
        }
        t0 = nowS();
        trace::IoTrace tb =
            sim::recordTrace(_config.sim_backend, *in.golden,
                             in.library, in.clock, stim);
        record_s += nowS() - t0;
        maskHidden(tb, hidden);
        in.csv = tb.toCsv();
        t0 = nowS();
        std::unique_ptr<verilog::Module> mutant = in.golden->clone();
        for (uint64_t subseed : in.fcase.mutations) {
            mutant = cirfix::applyMutation(*mutant, subseed,
                                           in.fcase.mutator)
                         .mod;
        }
        _mutate_s += nowS() - t0;
    }

    fuzz::FuzzConfig _config;
    std::vector<FuzzInput> _inputs;
    /** Parse and mutation seconds of the last set-up build. */
    double _parse_s = 0.0;
    double _mutate_s = 0.0;
    size_t _verified = 0;  ///< oracle verdicts of the kept pass
};

// ---------------------------------------------------- traced-run report

/** Layer a span belongs to, from its name (prefix before ':'). */
std::string
layerOf(const std::string &name)
{
    std::string key = name.substr(0, name.find(':'));
    static const std::map<std::string, std::string> layers = {
        {"bench.pass", "bench"},
        {"bench.item", "bench"},
        {"verilog.parse", "verilog"},
        {"verilog.print", "verilog"},
        {"trace.parse", "trace"},
        {"repair.repairDesign", "repair"},
        {"repair", "repair"},
        {"baseline", "repair"},
        {"engine", "repair"},
        {"task", "repair"},
        {"solve", "window"},
        {"window.solve", "window"},
        {"encode", "smt"},
        {"sat.solve", "sat"},
        {"preprocess", "templates"},
        {"preprocess.lint", "templates"},
        {"template", "templates"},
        {"elaborate", "elaborate"},
        {"elaborate.ir", "elaborate"},
        {"fuzz.runCase", "fuzz"},
    };
    auto it = layers.find(key);
    return it == layers.end() ? "other" : it->second;
}

/** Layers in report order; every one is reported on every workload. */
const std::vector<std::string> kLayers = {
    "bench", "verilog",   "trace",     "repair", "window", "smt",
    "sat",   "templates", "elaborate", "fuzz",   "other",
};

TracedPass
mergeTrace(const SpanLog &log)
{
    TracedPass t;
    t.spans = log.spans;
    t.bench_spans = t.spans.size();
    std::vector<telemetry::SpanEvent> events = telemetry::events();
    std::map<uint64_t, int> by_id;
    for (size_t i = 0; i < events.size(); ++i)
        by_id[events[i].id] = static_cast<int>(t.bench_spans + i);
    for (const auto &e : events) {
        repairbench::Span s{e.name, e.start_us, e.start_us + e.dur_us,
                            -1};
        auto it = by_id.find(e.parent);
        s.parent = it != by_id.end()
                       ? it->second
                       : log.innermostContaining(s.start_us, s.end_us);
        t.spans.push_back(std::move(s));
    }
    t.dropped = telemetry::eventsDropped();
    t.self_us = repairbench::selfTimes(t.spans);
    for (size_t i = 0; i < t.spans.size(); ++i) {
        const auto &s = t.spans[i];
        t.self_s[layerOf(s.name)] += 1e-6 * t.self_us[i];
        t.total_s[s.name.substr(0, s.name.find(':'))] +=
            1e-6 * s.duration();
        t.self_sum_s += 1e-6 * t.self_us[i];
        if (s.name == "bench.pass")
            t.pass_s = 1e-6 * s.duration();
    }
    for (auto kind : {telemetry::MetricKind::Deterministic,
                      telemetry::MetricKind::Unstable}) {
        for (const auto &[name, value] : telemetry::counterValues(kind))
            t.counters[name] = value;
    }
    return t;
}

void
writeTraceNdjson(const std::string &path, const TracedPass &t)
{
    std::ofstream os(path);
    for (size_t i = 0; i < t.spans.size(); ++i) {
        const auto &s = t.spans[i];
        os << "{\"type\":\"span\",\"source\":\""
           << (i < t.bench_spans ? "bench" : "tool")
           << "\",\"name\":\"" << s.name << "\",\"id\":" << i
           << ",\"parent\":" << s.parent << ",\"layer\":\""
           << layerOf(s.name) << "\",\"ts_us\":" << s.start_us
           << ",\"dur_us\":" << s.duration()
           << ",\"self_us\":" << t.self_us[i] << "}\n";
    }
    for (const auto &[name, value] : t.counters) {
        if (value != 0) {
            os << "{\"type\":\"counter\",\"name\":\"" << name
               << "\",\"value\":" << value << "}\n";
        }
    }
}

// ----------------------------------------------------------------- main

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_out";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--out")
            o.out = v;
        else
            throw std::runtime_error("unknown option " + a);
    }
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    // Builds per set-up block: about 35 ms, 1.3 s and 0.12 s each.
    if (o.workload == "sat-suite")
        return std::make_unique<RepairWorkload>(kSatSuiteBugs, 30);
    if (o.workload == "long-trace")
        return std::make_unique<RepairWorkload>(
            std::vector<std::string>{"i2c_k1"}, 1);
    if (o.workload == "fuzz-cosim")
        return std::make_unique<FuzzWorkload>(1);
    if (o.workload == "fuzz-heldout")
        return std::make_unique<FuzzWorkload>(2);
    throw std::runtime_error("unknown workload " + o.workload);
}

/** Set-up blocks per run; setup_s is their median. */
constexpr size_t kSetupBlocks = 5;
/** Passes per run at the least (the exactness guard compares them). */
constexpr size_t kMinPasses = 2;
constexpr int kMaxPasses = 64;
/** Telemetry ring size for a traced pass; a drop fails the run. */
constexpr size_t kEventCapacity = size_t{1} << 18;

int
run(const Options &o)
{
    mkdir(o.out.c_str(), 0755);
    std::unique_ptr<Workload> w = makeWorkload(o);
    std::ostringstream report;
    bool correct = true;
    auto fail = [&](const std::string &why) {
        correct = false;
        report << "CHECK FAILED: " << why << "\n";
    };

    // Set-up: a fixed number of builds (a time-based count would make
    // the heap history, and so the RSS, vary), timed as whole blocks.
    // One block runs before each of the first passes and the rest
    // after the last, so that the blocks, like the passes, sample the
    // machine over the whole run rather than over its first seconds.
    std::vector<double> setup_times, record_times;
    auto setupBlock = [&] {
        double t0 = nowS(), recorded = 0.0;
        for (size_t b = 0; b < w->setupBuilds(); ++b) {
            w->setup();
            recorded += w->record_s;
        }
        setup_times.push_back(nowS() - t0);
        record_times.push_back(recorded);
    };

    // Pass 0 runs the items in their listed order, keeps its repairs
    // for the checks and measures the peak RSS (no warm-up: a user's
    // process is cold too), which would depend on the order of the
    // items.  The passes after it run for --seconds in the order drawn
    // from --seed; in a traced run the odd ones are traced.
    SpanLog log(spanClockUs);
    std::vector<PassResult> passes;
    std::vector<double> untraced_s, traced_s;
    double pass_rss = 0.0;
    TracedPass traced;
    size_t traced_pass = 0;  ///< index of the pass behind `traced`
    double start = 0.0;  ///< end of pass 0
    for (int n = 0; n < kMaxPasses; ++n) {
        bool enough = n > 0 && nowS() - start >= o.seconds &&
                      passes.size() >= kMinPasses &&
                      (!o.trace || (!traced_s.empty() &&
                                    !untraced_s.empty()));
        if (enough)
            break;
        if (setup_times.size() < kSetupBlocks)
            setupBlock();
        bool tracing = o.trace && n % 2 == 1;
        if (tracing) {
            log.spans.clear();
            log.setEnabled(true);
            telemetry::reset();
            telemetry::setEventCapacity(kEventCapacity);
            telemetry::setEnabled(true);
        }
        if (n <= 1) {
            w->shuffle(n == 0 ? 0 : o.seed);
            if (n == 0)
                resetPeakRss();
        }
        double cpu0 = cpuS();
        passes.push_back(w->pass(log, n == 0));
        double wall = passes.back().wall_s;
        report << "pass " << n << (tracing ? " traced" : "")
               << " wall " << wall << " s cpu " << cpuS() - cpu0
               << " s\n";
        if (n == 0) {
            pass_rss = peakRssMb();
            start = nowS();
        }
        if (tracing) {
            telemetry::setEnabled(false);
            log.setEnabled(false);
            traced = mergeTrace(log);
            traced_pass = passes.size() - 1;
            traced_s.push_back(wall);
        } else {
            untraced_s.push_back(wall);
        }
    }
    while (setup_times.size() < kSetupBlocks)
        setupBlock();
    double record_s = median(record_times);

    // Exactness guard: every pass must reproduce pass 0's counts.
    const PassResult &p0 = passes.front();
    for (size_t n = 1; n < passes.size(); ++n) {
        const PassResult &p = passes[n];
        if (p.signature != p0.signature || p.repaired != p0.repaired ||
            p.verified != p0.verified || p.failed != p0.failed) {
            for (size_t i = 0; i < p.signature.size() &&
                               i < p0.signature.size(); ++i) {
                if (p.signature[i] != p0.signature[i]) {
                    report << "pass 0:\n" << p0.signature[i]
                           << "\npass " << n << ":\n"
                           << p.signature[i] << "\n";
                    break;
                }
            }
            fail("exact counts differ between pass 0 and pass " +
                 std::to_string(n));
        }
    }

    CheckResult checks = w->check();
    size_t failed = p0.failed + checks.drive_failures + checks.errors;
    if (checks.drive_failures > 0)
        fail(std::to_string(checks.drive_failures) +
             " claimed repair(s) fail their own driving trace under "
             "the event simulator");
    if (checks.errors > 0)
        fail(std::to_string(checks.errors) + " check(s) threw");
    if (p0.failed > 0)
        fail(std::to_string(p0.failed) +
             " item(s) threw, timed out, degraded or could not "
             "synthesize");

    // ---- report -------------------------------------------------
    report << "workload " << o.workload << "  seed " << o.seed
           << "  passes " << passes.size() << "  items " << w->items()
           << "\n";
    report << "pass 0 items:\n";
    for (const auto &line : p0.item_lines)
        report << "  " << line << "\n";
    if (checks.unchanged_mismatches > 0)
        report << checks.unchanged_mismatches
               << " 0-change verdict(s) fail their trace under the "
                  "event simulator (simulation-vs-synthesis gap)\n";
    if (!checks.lines.empty()) {
        report << "checks (tb gate 2nd-sim ext):\n";
        for (const auto &line : checks.lines)
            report << "  " << line << "\n";
    }

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    auto emit = [&](const std::string &name, double value,
                    const std::string &unit) {
        metrics.push_back({name, {value, unit}});
    };

    if (!o.trace) {
        emit("pass_s", median(untraced_s), "s");
        emit("setup_s", median(setup_times), "s");
        emit("peak_rss_mb", pass_rss, "MB");
        emit("attempted", static_cast<double>(w->items()), "count");
        emit("repaired", static_cast<double>(p0.repaired), "count");
        emit("verified", static_cast<double>(checks.verified), "count");
    } else {
        Sums s = passes[traced_pass].sums;
        w->layerExtras(traced, s);
        double windows = s["repair.windows"];
        emit("sat.calls", s["sat.calls"], "count");
        emit("sat.conflicts", s["sat.conflicts"], "count");
        emit("sat.propagations", s["sat.propagations"], "count");
        emit("repair.window_s", s["repair.window_s"], "s");
        emit("repair.windows", windows, "count");
        emit("repair.sat_ratio",
             windows > 0 ? s["repair.sat_windows"] / windows : 0.0,
             "ratio");
        emit("repair.replay_s", s["repair.wall_s"] - s["repair.window_s"],
             "s");
        emit("smt.encode_s", s["smt.encode_s"], "s");
        emit("smt.aig_nodes", s["smt.aig_nodes"], "count");
        emit("smt.reused_aig_nodes", s["smt.reused_aig_nodes"], "count");
        emit("sim.replay_ns_per_cycle", s["sim.replay_ns_per_cycle"],
             "ns");
        emit("sim.vec_ns_per_lane_cycle", s["sim.vec_ns_per_lane_cycle"],
             "ns");
        emit("sim.record_s", record_s, "s");
        emit("trace.parse_s", s["trace.parse_s"], "s");
        emit("trace.rows", s["trace.rows"], "count");
        emit("verilog.parse_s", s["verilog.parse_s"], "s");
        emit("templates.preprocess_s", traced.total("preprocess.lint"),
             "s");
        emit("elaborate.elab_s", traced.total("elaborate.ir"), "s");
        emit("fuzz.repair_s", s["fuzz.repair_s"], "s");
        emit("fuzz.oracle_s", s["fuzz.oracle_s"], "s");
        emit("fuzz.mutate_s", s["fuzz.mutate_s"], "s");
        for (auto cls : {fuzz::RunClass::RepairedVerified,
                         fuzz::RunClass::RepairedOverfit,
                         fuzz::RunClass::NoRepair,
                         fuzz::RunClass::MutantBenign,
                         fuzz::RunClass::MutantInvisible,
                         fuzz::RunClass::PipelineFault,
                         fuzz::RunClass::OracleMismatch}) {
            std::string key =
                std::string("fuzz.") + FuzzWorkload::classKey(cls);
            emit(key, s[key], "count");
        }
        emit("checks.verify_s", checks.seconds, "s");
        for (const auto &layer : kLayers)
            emit("self." + layer + "_s", traced.self_s[layer], "s");
        double overhead = median(traced_s) - median(untraced_s);
        emit("trace.pass_s", traced.pass_s, "s");
        emit("trace.overhead_s", overhead, "s");
        emit("trace.self_sum_ratio",
             traced.pass_s > 0 ? traced.self_sum_s / traced.pass_s : 0.0,
             "ratio");

        // Self-time table.
        std::string dominant;
        double best = -1.0;
        report << "self time by layer (traced pass "
               << traced.pass_s << " s, untraced median "
               << median(untraced_s) << " s, overhead " << overhead
               << " s):\n";
        for (const auto &layer : kLayers) {
            double v = traced.self_s[layer];
            char line[128];
            std::snprintf(line, sizeof line, "  %-10s %10.6f s %6.2f%%\n",
                          layer.c_str(), v,
                          traced.pass_s > 0 ? 100.0 * v / traced.pass_s
                                            : 0.0);
            report << line;
            if (v > best) {
                best = v;
                dominant = layer;
            }
        }
        report << "  sum        " << traced.self_sum_s << " s ("
               << 100.0 * traced.self_sum_s / traced.pass_s
               << "% of the traced pass)\n";
        report << "dominant layer: " << dominant << "\n";
        // The two blocking shares the workloads were chosen for.
        double window_share = s["repair.window_s"] / traced.pass_s;
        double replay_share =
            (s["repair.wall_s"] - s["repair.window_s"] +
             s["trace.parse_s"]) /
            traced.pass_s;
        report << "window solving (repair.window_s): "
               << 100.0 * window_share << "% of the traced pass\n"
               << "replay + trace parse (repair.replay_s + "
                  "trace.parse_s): "
               << 100.0 * replay_share << "% of the traced pass\n";
        if (traced.dropped > 0)
            fail("telemetry ring dropped " +
                 std::to_string(traced.dropped) + " span(s)");
        if (std::abs(traced.self_sum_s / traced.pass_s - 1.0) > 0.05)
            fail("layer self times do not add up to the traced pass");
        writeTraceNdjson(o.out + "/" + o.workload + "-trace.ndjson",
                         traced);
    }

    std::ofstream(o.out + "/" + o.workload + "-report.txt")
        << report.str();
    std::fputs(report.str().c_str(), stdout);

    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << w->items()
         << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << "\"" << metrics[i].first
             << "\": {\"value\": " << metrics[i].second.first
             << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "repairbench: %s\n", e.what());
        return 2;
    }
}
