/**
 * @file
 * The SMT facade: AIG + incremental Tseitin encoding + CDCL SAT.
 *
 * Plays the role of bitwuzla in the paper's flow.  The repair
 * synthesizer asserts AIG literals (trace equalities), solves under
 * assumptions (the Σφ cardinality bound), and reads back the model of
 * the synthesis variables.
 */
#ifndef RTLREPAIR_SMT_BV_SOLVER_HPP
#define RTLREPAIR_SMT_BV_SOLVER_HPP

#include <optional>

#include "bv/value.hpp"
#include "sat/solver.hpp"
#include "smt/aig.hpp"
#include "util/stopwatch.hpp"

namespace rtlrepair::smt {

/** Solver result. */
enum class Result { Sat, Unsat, Timeout };

/** Incremental AIG-to-SAT solver. */
class BvSolver
{
  public:
    BvSolver() = default;

    /** The underlying graph (build formulas directly on it). */
    Aig &aig() { return _aig; }

    /** Permanently assert @p lit true. */
    void assertLit(AigLit lit);

    /** Assert a word equals a constant (unknown bits skipped). */
    void assertWordEquals(const Word &word, const bv::Value &value);

    /**
     * Fresh SAT literal with no constraints, for gating assertions:
     * the incremental repair query guards its per-window trace anchor
     * and blocking clauses behind such literals so that moving the
     * window is an assumption change (or a single retiring unit
     * clause), not a solver rebuild.
     */
    sat::Lit newActivationLit();

    /** Assert @p act implies @p lit (clause ¬act ∨ lit). */
    void assertLitIf(sat::Lit act, AigLit lit);

    /** assertWordEquals gated behind @p act. */
    void assertWordEqualsIf(sat::Lit act, const Word &word,
                            const bv::Value &value);

    /** Permanently assert two words are bitwise equal (the shorter
     *  word is zero-extended). */
    void assertWordsEqual(const Word &a, const Word &b);

    /** Solve under AIG-literal assumptions. */
    Result solve(const std::vector<AigLit> &assumptions = {},
                 const Deadline *deadline = nullptr);

    /** Model value of an AIG literal (valid after Sat). */
    bool modelValue(AigLit lit);
    /** Model value of a word as an integer value. */
    bv::Value modelWord(const Word &word);

    /** SAT literal for an AIG literal (Tseitin-encodes on demand). */
    sat::Lit satLitOf(AigLit lit);

    /** Access the SAT core (statistics, cardinality encoders). */
    const sat::Solver &satSolver() const { return _sat; }
    sat::Solver &satCore() { return _sat; }

  private:
    sat::Var varOfNode(uint32_t node);

    Aig _aig;
    sat::Solver _sat;
    std::vector<int32_t> _node_var;  ///< AIG node -> SAT var (-1 unset)
};

/**
 * Totalizer cardinality encoder over a set of AIG literals (the φ
 * indicator variables).  Provides monotone "sum ≥ k" outputs with the
 * one-sided clauses needed for at-most-k assumptions: assuming
 * ¬geq(k+1) enforces Σ ≤ k.
 */
class Totalizer
{
  public:
    /** Build over @p inputs inside @p solver (encodes immediately). */
    Totalizer(BvSolver &solver, const std::vector<AigLit> &inputs);

    size_t size() const { return _outputs.size(); }

    /** SAT literal meaning "at least k inputs are true", 1-based. */
    sat::Lit geq(size_t k) const;

    /** Assumption literal enforcing "at most k inputs are true". */
    sat::Lit atMost(size_t k) const;

  private:
    std::vector<sat::Lit> merge(const std::vector<sat::Lit> &a,
                                const std::vector<sat::Lit> &b);

    sat::Solver *_sat = nullptr;
    std::vector<sat::Lit> _outputs;  ///< outputs[i] = "sum >= i+1"
    sat::Lit _true_lit;
};

} // namespace rtlrepair::smt

#endif // RTLREPAIR_SMT_BV_SOLVER_HPP
