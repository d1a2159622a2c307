/**
 * @file
 * And-Inverter Graph with structural hashing.
 *
 * The AIG is the shared 2-state circuit representation: the
 * bit-blaster lowers transition-system words onto it, the SMT facade
 * Tseitin-encodes it into the SAT solver, and the gate-level netlist
 * (used for the paper's synthesis-mismatch checks) simulates it
 * directly.
 */
#ifndef RTLREPAIR_SMT_AIG_HPP
#define RTLREPAIR_SMT_AIG_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace rtlrepair::smt {

/**
 * AIG literal: 2*node + complement bit.  Node 0 is the constant, so
 * literal 0 = false and literal 1 = true.
 */
using AigLit = uint32_t;

constexpr AigLit kAigFalse = 0;
constexpr AigLit kAigTrue = 1;

inline AigLit aigNot(AigLit l) { return l ^ 1u; }
inline uint32_t aigNode(AigLit l) { return l >> 1; }
inline bool aigCompl(AigLit l) { return l & 1u; }

/** The graph. */
class Aig
{
  public:
    Aig();

    /** Allocate a free variable node. */
    AigLit newVar();

    /** Number of nodes (including the constant). */
    size_t numNodes() const { return _nodes.size(); }

    /** Is node @p n a variable (not const, not and)? */
    bool isVar(uint32_t n) const;
    /** Is node @p n an and-gate? */
    bool isAnd(uint32_t n) const;
    /** Fan-ins of and-node @p n. */
    AigLit fanin0(uint32_t n) const { return _nodes[n].a; }
    AigLit fanin1(uint32_t n) const { return _nodes[n].b; }

    /** @name Boolean operators (hashed, locally simplified) @{ */
    AigLit andOf(AigLit a, AigLit b);
    AigLit orOf(AigLit a, AigLit b) { return aigNot(andOf(aigNot(a), aigNot(b))); }
    AigLit xorOf(AigLit a, AigLit b);
    AigLit mux(AigLit cond, AigLit then_l, AigLit else_l);
    /** @} */

  private:
    struct Node
    {
        AigLit a;
        AigLit b;
    };
    static constexpr AigLit kVarMark = 0xffffffffu;

    std::vector<Node> _nodes;
    /** (a, b) fan-in pair of an AND node -> its node index. */
    std::unordered_map<uint64_t, uint32_t> _hash;
};

/** A word is a vector of AIG literals, LSB first. */
using Word = std::vector<AigLit>;

/** @name Word-level operators on AIGs (the bit-blasting library) @{ */
Word wordConst(uint64_t value, uint32_t width);
Word wordNot(Aig &aig, const Word &a);
Word wordAnd(Aig &aig, const Word &a, const Word &b);
Word wordOr(Aig &aig, const Word &a, const Word &b);
Word wordXor(Aig &aig, const Word &a, const Word &b);
Word wordAdd(Aig &aig, const Word &a, const Word &b);
Word wordSub(Aig &aig, const Word &a, const Word &b);
Word wordNeg(Aig &aig, const Word &a);
Word wordMul(Aig &aig, const Word &a, const Word &b);
/** Restoring divider; returns quotient. Division by zero -> all ones. */
Word wordUDiv(Aig &aig, const Word &a, const Word &b);
Word wordURem(Aig &aig, const Word &a, const Word &b);
Word wordShl(Aig &aig, const Word &a, const Word &amount);
Word wordLShr(Aig &aig, const Word &a, const Word &amount);
Word wordAShr(Aig &aig, const Word &a, const Word &amount);
AigLit wordEq(Aig &aig, const Word &a, const Word &b);
AigLit wordULt(Aig &aig, const Word &a, const Word &b);
AigLit wordULe(Aig &aig, const Word &a, const Word &b);
AigLit wordSLt(Aig &aig, const Word &a, const Word &b);
AigLit wordSLe(Aig &aig, const Word &a, const Word &b);
AigLit wordRedAnd(Aig &aig, const Word &a);
AigLit wordRedOr(Aig &aig, const Word &a);
AigLit wordRedXor(Aig &aig, const Word &a);
Word wordMux(Aig &aig, AigLit cond, const Word &t, const Word &e);
/** @} */

} // namespace rtlrepair::smt

#endif // RTLREPAIR_SMT_AIG_HPP
