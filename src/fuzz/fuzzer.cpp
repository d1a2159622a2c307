#include "fuzz/fuzzer.hpp"

#include <ostream>
#include <sstream>

#include "benchmarks/registry.hpp"
#include "cirfix/mutations.hpp"
#include "elaborate/elaborate.hpp"
#include "fuzz/generator.hpp"
#include "sim/event_sim.hpp"
#include "sim/interpreter.hpp"
#include "sim/vec_sim.hpp"
#include "trace/stimulus.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "verilog/ast_util.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

namespace rtlrepair::fuzz {

using verilog::Module;

namespace {

/** The fast registry subset the fuzzer defaults to: every design
 *  repairs (or gives up) well under a second, so a 200-run sweep
 *  stays within a CI smoke budget. */
const std::vector<std::string> &
defaultPool()
{
    // Fast registry subset; the oss_m* designs keep the expanded
    // subset (memories, generate blocks, functions) in every sweep.
    static const std::vector<std::string> pool = {
        "decoder_w1", "counter_k1", "flop_w1",
        "fsm_w1",     "shift_w1",   "mux_k1",
        "oss_m1",     "oss_m2",     "oss_m3",
        "oss_m4",     "oss_m5",
    };
    return pool;
}

/** Driving-trace cycles for generated designs whose case does not
 *  set FuzzCase::trace_cycles. */
constexpr size_t kGenTraceCycles = 24;

/** A fuzz case made concrete: design + library + driving stimulus. */
struct Materialized
{
    /** Owns generated designs; null for registry designs (whose
     *  modules live in the registry cache). */
    verilog::SourceFile owned;
    const Module *golden = nullptr;
    std::vector<const Module *> library;
    std::string clock;
    trace::InputSequence stim;
    sim::XPolicy x_policy = sim::XPolicy::Random;
    std::vector<std::string> hidden_outputs;
    /** Input columns for fresh-stimulus generation. */
    std::vector<trace::Column> input_cols;
    /** Reset prefix rows replayed before fresh random rows. */
    size_t warmup_rows = 2;
};

/** Append `fcase.trace_extra` fully-known random rows to the driving
 *  stimulus.  A richer driving trace leaves the repair synthesizer
 *  less room to overfit (a 14-row trace over a 4-bit input space is
 *  easy to satisfy with a wrong expression; 64 extra rows are not). */
void
extendStimulus(Materialized &m, const FuzzCase &fcase)
{
    if (fcase.trace_extra == 0)
        return;
    Rng rng(fcase.trace_seed ^ 0x7ace'5eedull);
    trace::StimulusBuilder sb(m.input_cols);
    std::vector<std::string> names;
    for (const auto &col : m.input_cols)
        names.push_back(col.name);
    for (const auto &row : m.stim.rows) {
        for (size_t i = 0; i < names.size(); ++i)
            sb.setValue(names[i], row[i]);
        sb.step();
    }
    trace::randomRows(sb, names, fcase.trace_extra, rng);
    m.stim = sb.finish();
}

Materialized
materialize(const FuzzCase &fcase)
{
    Materialized m;
    // `gen:<seed>` pins generator version 1, `gen2:<seed>` version 2;
    // a corpus entry must replay the exact design it was found on.
    if (startsWith(fcase.design, "gen:") ||
        startsWith(fcase.design, "gen2:")) {
        bool v2 = startsWith(fcase.design, "gen2:");
        uint64_t gen_seed =
            std::stoull(fcase.design.substr(v2 ? 5 : 4));
        GeneratedDesign gen = generateDesign(gen_seed, v2 ? 2 : 1);
        m.owned = verilog::parse(gen.source);
        m.golden = &m.owned.top();
        m.clock = gen.clock;
        size_t cycles =
            fcase.trace_cycles ? fcase.trace_cycles : kGenTraceCycles;
        m.stim = generateStimulus(gen, cycles, gen_seed);
        m.input_cols = gen.inputs;
        extendStimulus(m, fcase);
        return m;
    }
    const benchmarks::BenchmarkDef *def =
        benchmarks::find(fcase.design);
    check(def != nullptr, "fuzz: unknown design: " + fcase.design);
    const benchmarks::LoadedBenchmark &lb = benchmarks::load(*def);
    m.golden = lb.golden;
    m.library = lb.golden_lib;
    m.clock = def->clock;
    m.x_policy = def->x_policy;
    m.hidden_outputs = def->hidden_outputs;
    m.stim = benchmarks::makeStimulus(def->stimulus_id);
    if (fcase.trace_cycles > 0 &&
        fcase.trace_cycles < m.stim.rows.size())
        m.stim.rows.resize(fcase.trace_cycles);
    m.input_cols = m.stim.inputs;
    m.warmup_rows = std::min<size_t>(4, m.stim.rows.size());
    extendStimulus(m, fcase);
    return m;
}

void
maskHiddenOutputs(trace::IoTrace &tb,
                  const std::vector<std::string> &hidden)
{
    for (const auto &name : hidden) {
        int idx = tb.outputIndex(name);
        if (idx < 0)
            continue;
        for (auto &row : tb.output_rows)
            row[idx] = bv::Value::allX(row[idx].width());
    }
}

/**
 * Fresh stimulus for the co-simulation check: the first few rows of
 * the driving stimulus (so designs come out of reset the intended
 * way), then fully-known random rows.
 */
trace::InputSequence
freshStimulus(const Materialized &m, size_t cycles, uint64_t seed)
{
    Rng rng(seed ^ 0xf5e5'1000ull);
    trace::StimulusBuilder sb(m.input_cols);
    std::vector<std::string> names;
    for (const auto &col : m.input_cols)
        names.push_back(col.name);
    size_t warmup = std::min(m.warmup_rows, m.stim.rows.size());
    for (size_t row = 0; row < warmup; ++row) {
        for (size_t i = 0; i < m.input_cols.size(); ++i)
            sb.setValue(names[i], m.stim.rows[row][i]);
        sb.step();
    }
    if (cycles > warmup)
        trace::randomRows(sb, names, cycles - warmup, rng);
    return sb.finish();
}

std::string
describeReplay(const sim::ReplayResult &r)
{
    return format("cycle %zu, output %s", r.first_failure,
                  r.failed_output.c_str());
}

/**
 * True when the mutant fails the driving trace under the repair
 * tool's own synthesis semantics (the interpreter over the elaborated
 * IR).  A mutant that passes carries a bug the fault model cannot
 * observe — e.g. a sensitivity-list edit, which elaboration erases —
 * so asking the pipeline to repair it is a category error, not an
 * overfit (paper §6: simulation-vs-synthesis semantics gap).
 */
bool
mutantVisibleToTool(const Module &mutant, const Materialized &m,
                    const trace::IoTrace &tb, uint64_t seed)
{
    try {
        elaborate::ElaborateOptions eo;
        eo.library = m.library;
        ir::TransitionSystem sys = elaborate::elaborate(mutant, eo);
        sim::SimOptions so;
        so.init_policy = m.x_policy;
        so.input_policy = m.x_policy;
        so.seed = seed;
        sim::Interpreter interp(sys, so);
        return !sim::replay(interp, tb).passed;
    } catch (const std::exception &) {
        return true;  // not synthesizable — the pipeline will see that
    }
}

} // namespace

const char *
toString(RunClass cls)
{
    switch (cls) {
      case RunClass::RepairedVerified: return "REPAIRED_VERIFIED";
      case RunClass::RepairedOverfit:  return "REPAIRED_OVERFIT";
      case RunClass::NoRepair:         return "NO_REPAIR";
      case RunClass::MutantBenign:     return "MUTANT_BENIGN";
      case RunClass::MutantInvisible:  return "MUTANT_INVISIBLE";
      case RunClass::PipelineFault:    return "PIPELINE_FAULT";
      case RunClass::OracleMismatch:   return "ORACLE_MISMATCH";
    }
    return "UNKNOWN";
}

std::optional<RunClass>
runClassFromString(const std::string &name)
{
    static const RunClass all[] = {
        RunClass::RepairedVerified, RunClass::RepairedOverfit,
        RunClass::NoRepair,         RunClass::MutantBenign,
        RunClass::MutantInvisible,  RunClass::PipelineFault,
        RunClass::OracleMismatch,
    };
    for (RunClass cls : all) {
        if (name == toString(cls))
            return cls;
    }
    return std::nullopt;
}

bool
isFailure(RunClass cls)
{
    return cls == RunClass::RepairedOverfit ||
           cls == RunClass::PipelineFault ||
           cls == RunClass::OracleMismatch;
}

CorpusEntry
FuzzCase::toCorpus() const
{
    CorpusEntry entry;
    entry.design = design;
    entry.mutations = mutations;
    entry.mutator = mutator;
    entry.trace_cycles = trace_cycles;
    entry.trace_extra = trace_extra;
    entry.trace_seed = trace_seed;
    entry.fresh_cycles = fresh_cycles;
    entry.fresh_seed = fresh_seed;
    return entry;
}

FuzzCase
FuzzCase::fromCorpus(const CorpusEntry &entry)
{
    FuzzCase fcase;
    fcase.design = entry.design;
    fcase.mutations = entry.mutations;
    fcase.mutator = entry.mutator;
    fcase.trace_cycles = entry.trace_cycles;
    fcase.trace_extra = entry.trace_extra;
    fcase.trace_seed = entry.trace_seed;
    fcase.fresh_cycles = entry.fresh_cycles;
    fcase.fresh_seed = entry.fresh_seed;
    return fcase;
}

std::string
outcomeFingerprint(const repair::RepairOutcome &outcome)
{
    std::ostringstream out;
    out << "status=" << static_cast<int>(outcome.status)
        << " changes=" << outcome.changes
        << " preprocess=" << outcome.preprocess_changes
        << " by_pre=" << outcome.by_preprocessing
        << " none_needed=" << outcome.no_repair_needed
        << " template=" << outcome.template_name
        << " first_failure=" << outcome.first_failure
        << " window=" << outcome.window_past << "/"
        << outcome.window_future
        << " degraded=" << outcome.degraded << "\n";
    for (const auto &cand : outcome.candidates) {
        const repair::WindowStat &w = cand.window;
        out << cand.template_name << " k=" << w.k_past << "/"
            << w.k_future << " " << w.status
            << " changes=" << w.changes << " aig=" << w.aig_nodes
            << " conflicts=" << w.conflicts
            << " props=" << w.propagations
            << " restarts=" << w.restarts
            << " learnt=" << w.learnt_peak << "\n";
    }
    if (outcome.repaired)
        out << verilog::print(*outcome.repaired);
    return out.str();
}

CaseResult
runCase(const FuzzCase &fcase, const FuzzConfig &config)
{
    Stopwatch watch;
    CaseResult result;
    std::ostringstream detail;
    try {
        Materialized m = materialize(fcase);

        // 1. Golden oracle trace, and the oracle's self-check: the
        //    unmutated design must reproduce its own recording.
        trace::IoTrace tb;
        try {
            tb = sim::recordTrace(config.sim_backend, *m.golden,
                                  m.library, m.clock, m.stim);
            maskHiddenOutputs(tb, m.hidden_outputs);
            sim::ReplayResult self = sim::replayTrace(
                config.sim_backend, *m.golden, m.library, m.clock,
                tb);
            if (!self.passed) {
                result.cls = RunClass::OracleMismatch;
                result.detail =
                    "golden fails own trace: " + describeReplay(self);
                result.seconds = watch.seconds();
                return result;
            }
        } catch (const std::exception &e) {
            result.cls = RunClass::OracleMismatch;
            result.detail =
                std::string("oracle threw on golden: ") + e.what();
            result.seconds = watch.seconds();
            return result;
        }

        // 2. Inject the recorded bugs.
        auto mutant = m.golden->clone();
        std::vector<std::string> descs;
        for (uint64_t subseed : fcase.mutations) {
            cirfix::MutationResult mr =
                cirfix::applyMutation(*mutant, subseed, fcase.mutator);
            mutant = std::move(mr.mod);
            descs.push_back(mr.description);
        }
        detail << "mutations: " << join(descs, "; ");

        // 3. A mutant that still satisfies the trace carries no
        //    observable bug to repair.
        bool broke;
        try {
            broke = !sim::replayTrace(config.sim_backend, *mutant,
                                      m.library, m.clock, tb)
                         .passed;
        } catch (const std::exception &) {
            broke = true;  // unsimulatable counts as broken
        }
        if (!broke) {
            result.cls = RunClass::MutantBenign;
            result.detail = detail.str();
            result.seconds = watch.seconds();
            return result;
        }

        // 3b. A bug only the event simulator can see is outside the
        //     repair tool's synthesis-semantics fault model; running
        //     the pipeline on it could only ever "overfit".
        if (!mutantVisibleToTool(*mutant, m, tb, fcase.fresh_seed)) {
            result.cls = RunClass::MutantInvisible;
            detail << "; bug invisible under synthesis semantics";
            result.detail = detail.str();
            result.seconds = watch.seconds();
            return result;
        }

        // 4. The full repair pipeline.  Everything it throws is a
        //    containment violation — the driver's contract is to
        //    report, not to raise.
        repair::RepairConfig rc;
        rc.timeout_seconds = config.repair_timeout;
        rc.x_policy = m.x_policy;
        rc.seed = fcase.fresh_seed;
        rc.jobs = config.jobs == 0 ? 1 : config.jobs;
        repair::RepairOutcome outcome;
        try {
            outcome =
                repair::repairDesign(*mutant, m.library, tb, rc);
        } catch (const std::exception &e) {
            result.cls = RunClass::PipelineFault;
            detail << "; pipeline threw: " << e.what();
            result.detail = detail.str();
            result.seconds = watch.seconds();
            return result;
        }
        result.fingerprint = outcomeFingerprint(outcome);

        if (config.check_determinism) {
            try {
                repair::RepairOutcome again =
                    repair::repairDesign(*mutant, m.library, tb, rc);
                repair::RepairConfig cross = rc;
                cross.jobs = rc.jobs == 1 ? 4 : 1;
                repair::RepairOutcome other =
                    repair::repairDesign(*mutant, m.library, tb,
                                         cross);
                if (outcomeFingerprint(again) != result.fingerprint ||
                    outcomeFingerprint(other) != result.fingerprint) {
                    result.cls = RunClass::PipelineFault;
                    detail << "; nondeterministic RepairOutcome "
                              "(rerun or jobs=1 vs jobs=4)";
                    result.detail = detail.str();
                    result.seconds = watch.seconds();
                    return result;
                }
            } catch (const std::exception &e) {
                result.cls = RunClass::PipelineFault;
                detail << "; determinism re-run threw: " << e.what();
                result.detail = detail.str();
                result.seconds = watch.seconds();
                return result;
            }
        }

        if (outcome.status !=
            repair::RepairOutcome::Status::Repaired) {
            result.cls = RunClass::NoRepair;
            detail << "; pipeline: " << outcome.detail;
            result.detail = detail.str();
            result.seconds = watch.seconds();
            return result;
        }

        // 5. Cross-check the claimed repair: first the driving trace
        //    under true event semantics, then golden-vs-repaired
        //    co-simulation on fresh random stimulus.
        const Module &rep = *outcome.repaired;
        try {
            sim::ReplayResult drive = sim::replayTrace(
                config.sim_backend, rep, m.library, m.clock, tb);
            if (!drive.passed) {
                result.cls = RunClass::RepairedOverfit;
                detail << "; repair fails driving trace under the "
                          "oracle simulator: "
                       << describeReplay(drive);
                result.detail = detail.str();
                result.seconds = watch.seconds();
                return result;
            }
            // One fresh stimulus per batch slot; slot 0 reproduces
            // the classic single-stimulus check exactly.
            size_t batch = config.fresh_batch < 1
                               ? 1
                               : static_cast<size_t>(
                                     config.fresh_batch);
            std::vector<trace::InputSequence> fresh;
            fresh.reserve(batch);
            for (size_t i = 0; i < batch; ++i) {
                fresh.push_back(freshStimulus(m, fcase.fresh_cycles,
                                              fcase.fresh_seed + i));
            }
            std::vector<const trace::InputSequence *> fresh_ptrs;
            for (const auto &f : fresh)
                fresh_ptrs.push_back(&f);
            std::vector<trace::IoTrace> fresh_tbs =
                sim::recordTraceBatch(config.sim_backend, *m.golden,
                                      m.library, m.clock, fresh_ptrs);
            for (auto &fresh_tb : fresh_tbs)
                maskHiddenOutputs(fresh_tb, m.hidden_outputs);
            std::vector<const trace::IoTrace *> tb_ptrs;
            for (const auto &fresh_tb : fresh_tbs)
                tb_ptrs.push_back(&fresh_tb);
            std::vector<sim::ReplayResult> cos = sim::replayTraceBatch(
                config.sim_backend, rep, m.library, m.clock, tb_ptrs);
            result.cls = RunClass::RepairedVerified;
            for (size_t i = 0; i < cos.size(); ++i) {
                if (cos[i].passed)
                    continue;
                result.cls = RunClass::RepairedOverfit;
                detail << "; diverges from golden on fresh stimulus";
                if (batch > 1)
                    detail << " (seed " << fcase.fresh_seed + i << ")";
                detail << ": " << describeReplay(cos[i]);
                break;
            }
        } catch (const std::exception &e) {
            result.cls = RunClass::RepairedOverfit;
            detail << "; repaired design unsimulatable: " << e.what();
        }
        result.detail = detail.str();
    } catch (const FatalError &) {
        throw;  // unknown design name etc. — caller error, not a run
    } catch (const std::exception &e) {
        result.cls = RunClass::PipelineFault;
        result.detail = std::string("harness: ") + e.what();
    }
    result.seconds = watch.seconds();
    return result;
}

FuzzCase
reduceCase(const FuzzCase &fcase, const FuzzConfig &config,
           RunClass target, int max_trials)
{
    int trials = 0;
    auto still_fails = [&](const FuzzCase &cand) {
        if (trials >= max_trials)
            return false;
        ++trials;
        return runCase(cand, config).cls == target;
    };

    FuzzCase best = fcase;

    // 1. Drop mutations one at a time to a fixed point.
    bool progress = true;
    while (progress && best.mutations.size() > 1) {
        progress = false;
        for (size_t i = 0; i < best.mutations.size(); ++i) {
            FuzzCase cand = best;
            cand.mutations.erase(cand.mutations.begin() +
                                 static_cast<long>(i));
            if (still_fails(cand)) {
                best = cand;
                progress = true;
                break;
            }
        }
    }

    // 2. Shed the extra random driving rows, then shrink the base
    //    trace by halving, while the class holds.
    while (best.trace_extra > 0) {
        FuzzCase cand = best;
        cand.trace_extra = best.trace_extra / 2;
        if (!still_fails(cand))
            break;
        best = cand;
    }
    size_t full = materialize(best).stim.rows.size() - best.trace_extra;
    size_t len = best.trace_cycles ? best.trace_cycles : full;
    while (len > 4) {
        FuzzCase cand = best;
        cand.trace_cycles = len / 2;
        if (!still_fails(cand))
            break;
        best = cand;
        len = cand.trace_cycles;
    }

    // 3. Shrink the fresh co-simulation stimulus the same way.
    while (best.fresh_cycles > 8) {
        FuzzCase cand = best;
        cand.fresh_cycles = best.fresh_cycles / 2;
        if (!still_fails(cand))
            break;
        best = cand;
    }
    return best;
}

size_t
FuzzStats::count(RunClass cls) const
{
    auto it = counts.find(cls);
    return it == counts.end() ? 0 : it->second;
}

bool
FuzzStats::ok(const std::vector<RunClass> &fail_on) const
{
    for (RunClass cls : fail_on) {
        if (count(cls) > 0)
            return false;
    }
    return true;
}

std::string
FuzzStats::summary() const
{
    std::ostringstream out;
    static const RunClass order[] = {
        RunClass::RepairedVerified, RunClass::RepairedOverfit,
        RunClass::NoRepair,         RunClass::MutantBenign,
        RunClass::MutantInvisible,  RunClass::PipelineFault,
        RunClass::OracleMismatch,
    };
    size_t total = 0;
    for (RunClass cls : order) {
        out << format("%-18s %6zu\n", toString(cls), count(cls));
        total += count(cls);
    }
    out << format("%-18s %6zu\n", "total", total);
    return out.str();
}

FuzzStats
fuzz(const FuzzConfig &config, std::ostream *log)
{
    const std::vector<std::string> &pool =
        config.designs.empty() ? defaultPool() : config.designs;
    Rng rng(config.seed);
    FuzzStats stats;
    for (size_t run = 0; run < config.runs; ++run) {
        FuzzCase fcase;
        if (rng.chance(config.gen_probability)) {
            fcase.design =
                "gen2:" + std::to_string(rng.next() & 0xffff);
        } else {
            fcase.design = pool[rng.below(pool.size())];
        }
        fcase.mutator = cirfix::kMutatorVersion;
        size_t n_mut = 1 + rng.below(static_cast<uint64_t>(
                               std::max(1, config.max_mutations)));
        for (size_t i = 0; i < n_mut; ++i)
            fcase.mutations.push_back(rng.next());
        fcase.fresh_cycles = config.fresh_cycles;
        fcase.fresh_seed = rng.next();
        if (config.extra_trace_cycles > 0) {
            fcase.trace_extra = config.extra_trace_cycles;
            fcase.trace_seed = rng.next();
        }

        CaseResult result = runCase(fcase, config);
        stats.counts[result.cls]++;
        if (log) {
            *log << format("run %4zu  %-12s %-18s %6.2fs  ",
                           run, fcase.design.c_str(),
                           toString(result.cls), result.seconds)
                 << result.detail << "\n";
        }
        if (!isFailure(result.cls))
            continue;

        FuzzCase reduced =
            config.reduce ? reduceCase(fcase, config, result.cls)
                          : fcase;
        CaseResult rr =
            config.reduce ? runCase(reduced, config) : result;
        // Reduction must never lose the failure; fall back if the
        // trial budget ran out mid-shrink.
        if (rr.cls != result.cls) {
            reduced = fcase;
            rr = result;
        }
        stats.failures.emplace_back(reduced, rr);
        if (!config.corpus_dir.empty()) {
            CorpusEntry entry = reduced.toCorpus();
            entry.found = toString(rr.cls);
            entry.expect = toString(rr.cls);
            entry.note = format("found by fuzz --seed %llu, run %zu",
                                static_cast<unsigned long long>(
                                    config.seed),
                                run);
            std::string name = format(
                "%s_%s_s%llu_r%zu.fuzz",
                startsWith(reduced.design, "gen:") ||
                        startsWith(reduced.design, "gen2:")
                    ? "gen"
                    : reduced.design.c_str(),
                toString(rr.cls),
                static_cast<unsigned long long>(config.seed), run);
            entry.store(config.corpus_dir + "/" + name);
            stats.corpus_written++;
        }
    }
    if (log)
        *log << stats.summary();
    return stats;
}

} // namespace rtlrepair::fuzz
