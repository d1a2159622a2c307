/**
 * @file
 * CDCL SAT solver with assumption-based incremental solving.
 *
 * This is the reproduction's solving core, standing in for bitwuzla's
 * internal SAT engine.  Features: two-watched-literal propagation,
 * first-UIP conflict analysis with clause minimization, VSIDS
 * activities, phase saving, Luby restarts, and learnt-clause database
 * reduction.  solve(assumptions) makes the minimality search of paper
 * §4.3 (successively tightening the Σφ bound) incremental: learnt
 * clauses persist across calls.
 */
#ifndef RTLREPAIR_SAT_SOLVER_HPP
#define RTLREPAIR_SAT_SOLVER_HPP

#include <cstdint>
#include <vector>

#include "util/stopwatch.hpp"

namespace rtlrepair::sat {

using Var = int32_t;

/** Literal: variable with sign, encoded as 2*var + sign. */
struct Lit
{
    int32_t x = -2;

    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
};

inline Lit
mkLit(Var v, bool negative = false)
{
    return Lit{2 * v + (negative ? 1 : 0)};
}

inline Lit operator~(Lit l) { return Lit{l.x ^ 1}; }
inline Var var(Lit l) { return l.x >> 1; }
inline bool sign(Lit l) { return l.x & 1; }
constexpr Lit kUndefLit{-2};

/** Three-valued result / assignment. */
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

inline LBool
fromBool(bool b)
{
    return b ? LBool::True : LBool::False;
}

/** CDCL solver. */
class Solver
{
  public:
    Solver();

    /** Allocate a fresh variable. */
    Var newVar();

    /**
     * Reseed the decision heuristic: scrambles the saved phases of
     * existing variables and the default phase of future ones with a
     * deterministic xorshift stream.  Used by the repair engine's
     * degradation ladder to retry a faulted window solve on a
     * different search trajectory; 0 restores the default phases.
     */
    void setPhaseSeed(uint64_t seed);

    int numVars() const { return static_cast<int>(_assigns.size()); }

    /**
     * Add a clause.  Returns false if the formula is already
     * unsatisfiable at level 0.
     */
    bool addClause(std::vector<Lit> lits);
    bool addClause(Lit a) { return addClause(std::vector<Lit>{a}); }
    bool addClause(Lit a, Lit b)
    {
        return addClause(std::vector<Lit>{a, b});
    }
    bool addClause(Lit a, Lit b, Lit c)
    {
        return addClause(std::vector<Lit>{a, b, c});
    }

    /**
     * Solve under @p assumptions.  Returns Undef if @p deadline
     * expires first.  After True, the model is available via
     * modelValue(); after False, conflictCore() holds an UNSAT core
     * of the assumptions.
     */
    LBool solve(const std::vector<Lit> &assumptions = {},
                const Deadline *deadline = nullptr);

    /**
     * After solve() returns False: a subset of the assumption
     * literals whose conjunction is inconsistent with the clause
     * database (final-conflict analysis a la MiniSat analyzeFinal).
     * Empty when the formula is unsatisfiable on its own — any
     * assumption set fails.  The incremental repair engine reads this
     * to decide whether an UNSAT window can ever be rescued by
     * growing the window (the anchor assumption is in the core) or is
     * dead for good (it is not).
     */
    const std::vector<Lit> &conflictCore() const { return _conflict; }

    /** Value of @p v in the last model. */
    bool modelValue(Var v) const;

    /** True when addClause derived level-0 unsatisfiability. */
    bool inConflict() const { return !_ok; }

    /** @name Statistics @{ */
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    /** High-water mark of the learnt-clause database. */
    uint64_t learnt_peak = 0;
    /** Number of solve() invocations. */
    uint64_t solve_calls = 0;
    /** @} */

    /** Live learnt clauses currently in the database. */
    size_t numLearnt() const { return _num_learnt; }

  private:
    /** Fixed-size clause header; the literals are
     *  _lits[start, start + size). */
    struct Clause
    {
        float activity = 0.0f;
        bool learnt = false;
        bool removed = false;
        uint32_t start = 0;
        uint32_t size = 0;
    };
    using ClauseRef = uint32_t;
    static constexpr ClauseRef kNoReason = 0xffffffffu;

    struct Watcher
    {
        ClauseRef clause;
        Lit blocker;
    };

    Lit *lits(const Clause &c) { return _lits.data() + c.start; }
    const Lit *lits(const Clause &c) const
    {
        return _lits.data() + c.start;
    }
    /** Append a clause over @p size literals from @p first (size >= 2)
     *  and return its ref. */
    ClauseRef newClause(const Lit *first, size_t size, bool learnt);

    LBool value(Lit l) const;
    LBool value(Var v) const { return _assigns[v]; }

    void analyzeFinal(Lit failing);

    void attachClause(ClauseRef cref);
    void uncheckedEnqueue(Lit l, ClauseRef reason);
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    bool litRedundant(Lit l, uint32_t abstract_levels);
    void cancelUntil(int level);
    Lit pickBranchLit();
    void varBumpActivity(Var v);
    void varDecayActivity();
    void claBumpActivity(Clause &c);
    void claDecayActivity();
    void reduceDB();
    void rebuildWatches();
    void insertVarOrder(Var v);
    static double luby(double y, int i);

    // Heap helpers (binary max-heap on activity).
    void heapPercolateUp(int pos);
    void heapPercolateDown(int pos);
    bool heapEmpty() const { return _heap.empty(); }
    Var heapPop();

    bool _ok = true;
    std::vector<Clause> _clauses;
    /** Literal pool shared by every clause: one allocation instead
     *  of one per clause.  reduceDB compacts it with the headers. */
    std::vector<Lit> _lits;
    std::vector<std::vector<Watcher>> _watches;  ///< indexed by lit.x
    std::vector<LBool> _assigns;
    std::vector<bool> _polarity;       ///< phase saving
    std::vector<double> _activity;
    std::vector<int> _level;
    std::vector<ClauseRef> _reason;
    std::vector<Lit> _trail;
    std::vector<int> _trail_lim;
    size_t _qhead = 0;

    std::vector<Var> _heap;
    std::vector<int> _heap_index;  ///< var -> heap pos or -1

    std::vector<bool> _seen;
    std::vector<Lit> _analyze_stack;
    std::vector<Lit> _analyze_toclear;

    std::vector<bool> _model;
    std::vector<Lit> _conflict;  ///< assumption core after UNSAT

    uint64_t _phase_seed = 0;  ///< xorshift state; 0 = default phases
    size_t _num_learnt = 0;
    double _var_inc = 1.0;
    double _var_decay = 0.95;
    float _cla_inc = 1.0f;
    float _cla_decay = 0.999f;
    uint64_t _learnt_limit = 4000;
};

} // namespace rtlrepair::sat

#endif // RTLREPAIR_SAT_SOLVER_HPP
