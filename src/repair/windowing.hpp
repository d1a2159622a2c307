/**
 * @file
 * The repair engine: basic full-unroll synthesis and the adaptive
 * windowing strategy of paper §4.4.
 *
 * Adaptive windowing concretely executes the unmodified circuit to
 * the first output divergence, then unrolls only a window
 * [f - k_past, f + k_future] around it.  Candidate minimal repairs
 * are validated by full concrete simulation; their failure pattern
 * steers window growth:
 *  - all candidates fail at or before the original failure -> a past
 *    state update must be wrong -> k_past += 2;
 *  - some candidate fails strictly later -> future context is
 *    missing -> k_future grows to include the new failure;
 *  - window size is capped at 32, after which the engine gives up;
 *  - after 4 failing candidates the engine advances to the next
 *    window immediately.
 * The basic synthesizer (paper §3) runs the same loop with the ladder
 * pinned to one window, the whole trace, sampling up to 16
 * candidates; it gives up instead of growing that window.
 */
#ifndef RTLREPAIR_REPAIR_WINDOWING_HPP
#define RTLREPAIR_REPAIR_WINDOWING_HPP

#include <map>

#include "repair/guarded.hpp"
#include "repair/synthesizer.hpp"
#include "sim/interpreter.hpp"

namespace rtlrepair::repair {

/** Paper: the engine gives up on windows beyond 32 cycles. */
constexpr size_t kMaxWindow = 32;
/** Paper: k_past grows in increments of two (halved once a window
 *  solve faults). */
constexpr size_t kPastStep = 2;
/** Candidates the basic full-unroll synthesizer samples. */
constexpr size_t kBasicMaxCandidates = 16;

/**
 * Strategy configuration.  The engine keeps one incremental
 * RepairQuery across the whole window ladder: window growth encodes
 * only the delta cycles and UNSAT cores fast-forward the ladder.
 */
struct EngineConfig
{
    bool adaptive = true;       ///< false = one full-trace window
    /** Paper: next window after 4 failures (the basic synthesizer
     *  samples kBasicMaxCandidates instead). */
    size_t max_candidates = 4;
    /** Label for stage reports / fault sites ("solve:<label>"). */
    std::string stage_label;
};

/** Per-window-candidate solve statistics (Table 5 / portfolio). */
struct WindowStat
{
    int k_past = 0;
    int k_future = 0;
    const char *status = "";  ///< "sat" / "unsat" / "timeout"
    int changes = -1;         ///< Σφ when status == "sat"
    double solve_seconds = 0.0;
    size_t aig_nodes = 0;
    /** AIG nodes already present when the window's encode began
     *  (incremental reuse). */
    size_t reused_aig_nodes = 0;
    /** Wall seconds spent encoding this window's delta. */
    double encode_seconds = 0.0;
    /** SAT solve() calls issued for this window. */
    uint64_t sat_calls = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    /** Learnt-clause database high-water mark of the solve. */
    uint64_t learnt_peak = 0;
    /** Trace cycles replayed validating this window's candidates,
     *  over the replays up to the first passing one. */
    uint64_t replay_cycles = 0;
    /** Seconds left on the governing deadline when the solve returned
     *  (negative = no deadline / unlimited). */
    double deadline_slack = -1.0;
};

/** Copy the query's SAT/AIG statistics into @p stat. */
void captureQueryStats(WindowStat &stat, const RepairQuery &query,
                       const Deadline *deadline);

/**
 * Fold one window solve into the telemetry counters.  Called by the
 * driver over the final outcome's candidate list — NOT at engine
 * consume time: at jobs>1 a template that the portfolio later
 * cancels consumes windows the fold never visits, while the folded
 * candidate list is bit-identical for jobs=1 and jobs=N.  Wall-clock
 * fields land in the unstable group.
 */
void recordWindowStat(const WindowStat &stat);

/** Outcome of one engine run on one instrumented system. */
struct EngineResult
{
    /** Failed = a window solve faulted even after the retry ladder;
     *  the caller drops this template and continues the cascade. */
    enum class Status { Repaired, NoRepair, Timeout, Failed };
    Status status = Status::NoRepair;
    templates::SynthAssignment assignment;
    int changes = 0;
    /** Final window, relative to the first failure (for Table 2). */
    int window_past = 0;
    int window_future = 0;
    /** First failing cycle of the unmodified circuit. */
    size_t first_failure = 0;
    bool failure_free = false;  ///< circuit already passed the trace
    /** One entry per (window × solve) candidate examined. */
    std::vector<WindowStat> windows;
    /** One guarded-stage record per window solve (and per retry). */
    std::vector<StageReport> stages;
    /** Diagnostic for Status::Failed. */
    std::string error;
};

/**
 * Deterministic adaptive-window ladder state (paper §4.4), stepped by
 * runEngine() in ladder order.  The window sequence depends only on
 * the candidates' replay results, never on thread timing.
 */
struct WindowLadder
{
    size_t failure = 0;    ///< first failing cycle of the base run
    size_t trace_len = 0;
    size_t k_past = 0;
    size_t k_future = 0;
    /** Largest k_past + k_future the ladder solves. */
    size_t max_window = kMaxWindow;

    struct Window
    {
        size_t start = 0;
        size_t count = 0;
    };

    /** Current window clamped to the trace. */
    Window window() const;

    bool exhausted() const { return k_past + k_future > max_window; }

    /** No repair in window / all candidates fail at or before the
     *  original failure: a past state update must be wrong. */
    void growPast(size_t step) { k_past += step; }

    /** Some candidate fails strictly later: include that cycle. */
    void growFuture(size_t latest_failure);
};

/**
 * Validates candidate assignments by concrete simulation of the
 * instrumented system over the resolved trace.
 *
 * Every replay runs on the system specialized (ir::specialize) under
 * the assignment it replays, as the paper's patch step substitutes
 * φ/α before simulating: dead change sites fold away and cost nothing
 * per cycle.  The all-off specialization is built once per runner and
 * serves the baseline run and the prefix simulation of statesAt().
 */
class ConcreteRunner
{
  public:
    /** @p init one fully-known value per state.
     *  @throws FatalError for a trace column that names no port. */
    ConcreteRunner(const ir::TransitionSystem &sys,
                   const trace::IoTrace &resolved,
                   std::vector<bv::Value> init);
    // The all-off interpreter refers to the runner's own _off.
    ConcreteRunner(const ConcreteRunner &) = delete;
    ConcreteRunner &operator=(const ConcreteRunner &) = delete;

    /** Replay with @p assignment (variables it does not name are
     *  zero); stops at the first mismatch. */
    sim::ReplayResult run(const templates::SynthAssignment &assignment);

    /**
     * Replay the assignments in order until one passes, stopping each
     * at its first mismatch.  Result i is identical to
     * run(assignments[i]); the list ends at the first passing
     * candidate, and results after it are not computed.
     */
    std::vector<sim::ReplayResult>
    runBatch(const std::vector<templates::SynthAssignment> &assignments);

    /**
     * State vector at entry of @p cycle under the all-off circuit.
     * Results are memoized: each call resumes from the nearest
     * earlier cached snapshot instead of re-simulating from cycle 0,
     * so the ladder's descending window starts cost a handful of
     * cycles each instead of a full prefix replay.
     */
    std::vector<bv::Value> statesAt(size_t cycle);

  private:
    /** Simulate from a known (cycle, states) snapshot to @p cycle,
     *  caching snapshots shortly before the target on the way. */
    std::vector<bv::Value>
    statesFrom(size_t snapshot_cycle,
               const std::vector<bv::Value> &snapshot, size_t cycle);

    /** Replay the trace on @p interp from the initial states. */
    sim::ReplayResult replay(sim::Interpreter &interp);

    const ir::TransitionSystem &_sys;
    const trace::IoTrace &_io;
    std::vector<bv::Value> _init;
    sim::TraceBinding _bind;
    /** _sys with every synthesis variable zero (all φ off). */
    ir::TransitionSystem _off;
    sim::Interpreter _off_interp;  ///< runs _off
    /** All-off prefix-state snapshots, keyed by cycle. */
    std::map<size_t, std::vector<bv::Value>> _snapshots;
};

/** Cycles a replay simulated: through the failing cycle, or the whole
 *  trace when it passed. */
inline uint64_t
replayCycles(const sim::ReplayResult &r)
{
    return r.passed ? r.first_failure : r.first_failure + 1;
}

/**
 * Run the repair engine on one instrumented system.  @p guard_cfg
 * gives the window-solve retry budget (reseeded solver, halved window
 * growth) and the RSS watermark checked before each window solve.
 */
EngineResult runEngine(const ir::TransitionSystem &sys,
                       const templates::SynthVarTable &vars,
                       const trace::IoTrace &resolved,
                       const std::vector<bv::Value> &init,
                       const EngineConfig &config,
                       const GuardConfig &guard_cfg,
                       const Deadline *deadline);

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_WINDOWING_HPP
