/**
 * @file
 * Bit-parallel packed 4-state values: 64 independent lanes per word.
 *
 * A PackedValue holds the same two-plane (value/unknown) encoding as
 * bv::Value, but *transposed*: the planes are stored bit-position
 * major, one 64-bit word per bit position, where bit L of that word
 * belongs to lane L.  One pass over the planes therefore evaluates 64
 * independent stimuli at once — the layout the vectorized simulator
 * (sim/vec_sim.*) executes a whole fuzz batch or candidate-repair
 * set on.
 *
 * Semantics are lane-for-lane identical to bv::Value:
 *  - bitwise ops use the 4-state dominance rules per lane,
 *  - arithmetic, shifts, and relational ops go all-X in any lane
 *    where *any* bit of either operand is X (whole-operand rule,
 *    matching Value),
 *  - udiv/urem by a known zero yields all-X in that lane,
 *  - caseEq compares X bits literally and is always known.
 *
 * The canonical-form invariant also carries over per lane: a value
 * plane bit is always zero where the unknown plane bit is set, so
 * per-lane equality is plain word comparison.
 *
 * Mul/udiv/urem take a per-lane scalar fallback through bv::Value
 * (exact by construction); everything else is O(width) word ops for
 * all 64 lanes together.
 *
 * Storage is bv::Value's two-plane block (bv/planes.hpp) with one word
 * per bit position, so a 1-bit PackedValue — every condition and
 * relational result — is inline and allocation-free.
 */
#ifndef RTLREPAIR_BV_PACKED_VALUE_HPP
#define RTLREPAIR_BV_PACKED_VALUE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "bv/value.hpp"

namespace rtlrepair::bv {

/** Fixed-width 4-state bit-vector, 64 lanes wide. */
class PackedValue
{
  public:
    static constexpr uint32_t kLanes = 64;

    /** Default: 1-bit known zero in every lane. */
    PackedValue() noexcept = default;

    /** @name Constructors @{ */
    static PackedValue zeros(uint32_t width);
    static PackedValue allX(uint32_t width);
    /** Same scalar value in all 64 lanes. */
    static PackedValue broadcast(const Value &v);
    /**
     * Pack per-lane values.  Each value is zero-extended or truncated
     * to @p width (the way a port connection adjusts); lanes beyond
     * @p vals.size() are all-X.
     */
    static PackedValue pack(const std::vector<Value> &vals,
                            uint32_t width);
    /**
     * Pointer-based pack for hot batch loops: no per-lane Value
     * copies.  A null pointer leaves that lane all-X; lanes beyond
     * @p n are all-X too.
     */
    static PackedValue pack(const Value *const *vals, size_t n,
                            uint32_t width);
    /** @} */

    uint32_t width() const { return _p.width(); }

    /** Extract one lane as a scalar value. */
    Value lane(uint32_t l) const;
    /** Overwrite one lane; @p v must have this width. */
    void setLane(uint32_t l, const Value &v);

    /** @name Raw plane access (for the simulator internals) @{ */
    uint64_t valAt(uint32_t pos) const { return val()[pos]; }
    uint64_t unkAt(uint32_t pos) const { return unk()[pos]; }
    /** Set bit @p pos to (val, unk) in the lanes of @p mask. */
    void setBitLanes(uint32_t pos, uint64_t val, uint64_t unk,
                     uint64_t mask);
    /** @} */

    /** @name Per-lane predicates (one result bit per lane) @{ */
    /** Lanes with any X bit. */
    uint64_t anyX() const;
    /** Lanes with any known-one bit. */
    uint64_t anyOne() const;
    /** Lanes that are fully known and non-zero (isNonZero). */
    uint64_t laneTrue() const { return anyOne() & ~anyX(); }
    /** Lanes that are fully known and zero (isZero). */
    uint64_t laneZero() const { return ~anyOne() & ~anyX(); }
    /** Lanes where both planes are identical (operator==). */
    uint64_t laneEq(const PackedValue &rhs) const;
    /** Value::matches per lane (X in @p expected = don't care). */
    uint64_t laneMatches(const PackedValue &expected) const;
    /**
     * Lanes that are X-free and whose low 64 bits equal @p target
     * (bits at positions >= 64 are ignored, the way toUint64 /
     * slice(63,0) reads an index).
     */
    uint64_t laneEqUint(uint64_t target) const;
    /** @} */

    /** Per-lane select: lanes of @p mask from @p a, rest from @p b. */
    static PackedValue blend(const PackedValue &a, const PackedValue &b,
                             uint64_t mask);

    /** @name Width changes and structure @{ */
    PackedValue zext(uint32_t new_width) const;
    PackedValue sext(uint32_t new_width) const;
    PackedValue slice(uint32_t hi, uint32_t lo) const;
    /** {this, low}: this becomes the upper bits. */
    PackedValue concat(const PackedValue &low) const;
    PackedValue replicate(uint32_t n) const;
    /** @} */

    /** @name Bitwise (4-state dominance rules per lane) @{ */
    PackedValue operator~() const;
    PackedValue operator&(const PackedValue &rhs) const;
    PackedValue operator|(const PackedValue &rhs) const;
    PackedValue operator^(const PackedValue &rhs) const;
    /** @} */

    /** @name Arithmetic (lane all-X on any unknown operand bit) @{ */
    PackedValue operator+(const PackedValue &rhs) const;
    PackedValue operator-(const PackedValue &rhs) const;
    PackedValue operator*(const PackedValue &rhs) const;
    PackedValue udiv(const PackedValue &rhs) const;
    PackedValue urem(const PackedValue &rhs) const;
    PackedValue negate() const;
    /** @} */

    /** @name Shifts; same-width amount, per-lane saturation @{ */
    PackedValue shl(const PackedValue &amount) const;
    PackedValue lshr(const PackedValue &amount) const;
    PackedValue ashr(const PackedValue &amount) const;
    /** @} */

    /** @name Relational; 1-bit result per lane @{ */
    PackedValue eq(const PackedValue &rhs) const;
    PackedValue ne(const PackedValue &rhs) const;
    PackedValue ult(const PackedValue &rhs) const;
    PackedValue ule(const PackedValue &rhs) const;
    PackedValue slt(const PackedValue &rhs) const;
    PackedValue sle(const PackedValue &rhs) const;
    /** @} */

    /** Case equality (===) per lane; always known. */
    PackedValue caseEq(const PackedValue &rhs) const;

    /** @name Reductions; 1-bit result per lane @{ */
    PackedValue redAnd() const;
    PackedValue redOr() const;
    PackedValue redXor() const;
    /** @} */

    /**
     * Per-lane 2-to-1 multiplexer.  @p cond must be 1 bit wide; an X
     * condition lane merges the arms bitwise (agreeing known bits
     * survive, everything else goes X), exactly like Value::ite.
     */
    static PackedValue ite(const PackedValue &cond,
                           const PackedValue &then_v,
                           const PackedValue &else_v);

  private:
    explicit PackedValue(uint32_t width);

    /** Clear value-plane bits under the unknown plane (canonical). */
    void normalize();
    /** Per-lane scalar fallback for mul/div/rem. */
    PackedValue scalarFallback(const PackedValue &rhs,
                               uint64_t ok_lanes,
                               Value (Value::*op)(const Value &)
                                   const) const;

    /** @name Value and unknown planes, one word per bit position @{ */
    std::span<uint64_t> val() { return _p.plane(0); }
    std::span<const uint64_t> val() const { return _p.plane(0); }
    std::span<uint64_t> unk() { return _p.plane(1); }
    std::span<const uint64_t> unk() const { return _p.plane(1); }
    /** @} */

    detail::Planes _p;
};

} // namespace rtlrepair::bv

#endif // RTLREPAIR_BV_PACKED_VALUE_HPP
