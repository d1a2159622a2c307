/**
 * @file
 * The repair query: a BMC-style unrolling of the instrumented
 * transition system over a window of the I/O trace, with the
 * synthesis variables kept symbolic (paper §3, "The Basic Repair
 * Synthesizer", and §4.3).
 *
 * For each cycle in [first, first + count):
 *  - inputs are constrained to the (X-resolved) trace values,
 *  - outputs are asserted equal to the expected values wherever the
 *    trace checks them (X bits are don't-cares),
 *  - next-state words feed the following cycle.
 * The window starts from a concrete state vector obtained by
 * simulating the unmodified circuit up to the window start.
 *
 * One query serves every window.  The adaptive engine keeps it across
 * the whole window ladder; the basic synthesizer (paper §3,
 * EngineConfig::adaptive = false) is the same query retargeted once
 * to the full trace.
 * The entry state is a vector of free variables equated to the
 * concrete start state through an *anchor* activation literal that
 * is passed as an assumption; growing the window encodes only the
 * delta cycles, ties the new prefix to the old entry variables
 * with permanent seam equalities, retires the old anchor with a
 * unit clause and mints a new one.  Blocking clauses are gated
 * behind a per-window *session* literal so sampling exclusions do
 * not leak into later windows.  UNSAT cores over {anchor, session}
 * classify failures: a core that names the anchor blames the
 * concrete past state (growing the window can help), a core free
 * of both proves the window-independent constraints alone are
 * inconsistent — every larger window is UNSAT too.
 *
 * Reported models are canonicalized to the lexicographically
 * smallest synthesis-variable assignment, so the chosen repair
 * depends only on the window's semantic constraints — not on the
 * solver trajectory, the window history of the persistent solver, or
 * the reseeded solver of a retried window solve.
 */
#ifndef RTLREPAIR_REPAIR_UNROLLER_HPP
#define RTLREPAIR_REPAIR_UNROLLER_HPP

#include <optional>

#include "ir/transition_system.hpp"
#include "sim/replay.hpp"
#include "smt/bitblast.hpp"
#include "smt/bv_solver.hpp"
#include "templates/synth_vars.hpp"
#include "trace/io_trace.hpp"

namespace rtlrepair::repair {

/** One incremental SMT instance for a (growable) repair window. */
class RepairQuery
{
  public:
    /**
     * Nothing is encoded yet; call retarget() for each window.  The
     * trace's input X bits must already be resolved (randomize/zero
     * per §4.3).  A non-zero @p solver_seed scrambles the SAT phase
     * heuristic — the degradation ladder's "retry with a reseeded
     * solver" knob.
     */
    RepairQuery(const ir::TransitionSystem &sys,
                const templates::SynthVarTable &vars,
                const trace::IoTrace &io, uint64_t solver_seed = 0);

    /**
     * Point the query at window [first, first + count), starting
     * from @p start_state (one fully-known value per system state).
     * The window may only grow — the adaptive ladder's starts are
     * monotonically nonincreasing and ends nondecreasing, so
     * already-encoded cycles are always inside the new window.
     * Encodes only the delta cycles, resets the per-window
     * statistics epoch.
     */
    void retarget(size_t first, size_t count,
                  const std::vector<bv::Value> &start_state,
                  const Deadline *deadline);

    /**
     * True if encoding was aborted (deadline expired or the unrolled
     * AIG exceeded the size cap); solving then reports Timeout.  The
     * basic synthesizer hits this on the paper's very long
     * testbenches, just as the original tool times out there.
     */
    bool aborted() const { return _aborted; }

    /** Is any repair (any number of changes) possible? */
    smt::Result checkFeasible(const Deadline *deadline);

    /**
     * Model of the last Sat solve (feasibility check or bounded
     * solve).  The synthesizer uses the feasibility model's change
     * count as an upper bound for the Σφ minimality search and as the
     * k-th solution itself when every smaller bound is UNSAT.
     */
    const std::optional<templates::SynthAssignment> &
    lastModel() const
    {
        return _last_model;
    }

    /**
     * Find a model with at most @p max_changes φs enabled.  Returns
     * nullopt on UNSAT; throws nothing on timeout — check
     * lastResult().
     */
    std::optional<templates::SynthAssignment>
    solveWithBound(size_t max_changes, const Deadline *deadline);

    /**
     * Rewrite lastModel() into the lexicographically smallest
     * synthesis assignment satisfying the query under Σφ ≤
     * @p max_changes (variables in system order, bits LSB-first).
     * The lex minimum is unique per *semantic* constraint set, so
     * canonical models agree across encodings and solver seeds.
     * Returns false on timeout.
     */
    bool canonicalizeLast(size_t max_changes,
                          const Deadline *deadline);

    /** Exclude @p assignment (and its α values at active sites). */
    void blockAssignment(const templates::SynthAssignment &assignment);

    smt::Result lastResult() const { return _last; }

    /**
     * A solve came back UNSAT with a core naming neither the anchor
     * nor the block session — the inconsistency lives entirely in
     * window-independent constraints, so every larger window is
     * UNSAT too and the ladder can fast-forward.
     */
    bool windowIndependentUnsat() const { return _window_free_unsat; }

    /** @name Per-window statistics (deltas since the last retarget;
     *  a persistent solver's cumulative totals would misattribute
     *  earlier windows' work) @{ */
    /** AIG nodes in the encoded window (total graph size). */
    size_t aigNodes() const { return _solver_aig_nodes; }
    /** Nodes that already existed when this window's encode began. */
    size_t reusedAigNodes() const { return _reused_aig_nodes; }
    /** Wall seconds spent encoding this window's delta. */
    double encodeSeconds() const { return _encode_seconds; }
    uint64_t
    conflicts() const
    {
        return _solver.satSolver().conflicts - _base_conflicts;
    }
    uint64_t
    propagations() const
    {
        return _solver.satSolver().propagations - _base_propagations;
    }
    uint64_t
    restarts() const
    {
        return _solver.satSolver().restarts - _base_restarts;
    }
    /** SAT solve() calls issued for this window. */
    uint64_t
    satCalls() const
    {
        return _solver.satSolver().solve_calls - _base_solve_calls;
    }
    /** Learnt-clause database high-water mark (absolute). */
    uint64_t
    learntPeak() const
    {
        return _solver.satSolver().learnt_peak;
    }
    /** @} */

  private:
    templates::SynthAssignment extractModel();
    void allocateSynthWords();
    void beginEpoch();
    /** Assumptions active in the current window (anchor, session). */
    std::vector<sat::Lit> baseAssumptions() const;
    /** Encode cycles [from, to) starting from @p states; returns the
     *  next-state words at @p to.  Sets _aborted on cap/deadline. */
    std::vector<smt::Word> encodeRange(size_t from, size_t to,
                                       std::vector<smt::Word> states,
                                       const Deadline *deadline);
    /** Classify an UNSAT core; @p bound is the Σφ assumption of a
     *  bounded solve (kUndefLit for feasibility checks). */
    void noteUnsatCore(sat::Lit bound, size_t max_changes);

    const ir::TransitionSystem &_sys;
    const templates::SynthVarTable &_vars;
    const trace::IoTrace &_io;
    sim::TraceBinding _bind;
    smt::BvSolver _solver;
    std::optional<smt::Totalizer> _card;
    std::vector<smt::Word> _synth_words;  ///< indexed like sys.synth_vars
    std::vector<smt::AigLit> _phi_lits;
    smt::Result _last = smt::Result::Unsat;
    std::optional<templates::SynthAssignment> _last_model;
    size_t _solver_aig_nodes = 0;
    bool _aborted = false;

    size_t _lo = 0;  ///< encoded cycle range [_lo, _hi)
    size_t _hi = 0;
    bool _encoded = false;           ///< any cycles encoded yet?
    std::vector<smt::Word> _entry_words;  ///< symbolic state at _lo
    std::vector<smt::Word> _frontier;     ///< next-state words at _hi
    sat::Lit _anchor = sat::kUndefLit;    ///< current window anchor
    sat::Lit _session = sat::kUndefLit;   ///< current block session
    /** Σφ bounds proven UNSAT from window-independent constraints. */
    long _dead_bound = -1;
    bool _window_free_unsat = false;

    // Per-window statistics epoch.
    uint64_t _base_conflicts = 0;
    uint64_t _base_propagations = 0;
    uint64_t _base_restarts = 0;
    uint64_t _base_solve_calls = 0;
    size_t _reused_aig_nodes = 0;
    double _encode_seconds = 0.0;
};

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_UNROLLER_HPP
