/**
 * @file
 * Arbitrary-width 4-state bit-vector values.
 *
 * A Value models a Verilog value of a fixed bit width where every bit is
 * 0, 1, or X (unknown).  Z is folded into X, matching how the paper's
 * flow treats tri-state constructs (they are removed before repair).
 * All operators implement Verilog 4-state semantics:
 *
 *  - bitwise ops use the dominance rules (0 & X = 0, 1 | X = 1, ...)
 *  - arithmetic, shifts by unknown amounts, and relational operators
 *    with any unknown operand bit produce an all-X result
 *  - case-equality (===) compares X bits literally
 *
 * Values are canonical: data bits above the width and under the X mask
 * are always zero, so structural equality is word-wise comparison.
 *
 * A Value is 24 bytes.  Up to 64 bits, its data and X words are stored
 * inline and it owns no heap memory; wider values own one heap block
 * holding both planes (see bv/planes.hpp).  A moved-from Value is the
 * default 1-bit zero.
 */
#ifndef RTLREPAIR_BV_VALUE_HPP
#define RTLREPAIR_BV_VALUE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bv/planes.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace rtlrepair::bv {

/** Fixed-width 4-state bit-vector value. */
class Value
{
  public:
    /** Default: 1-bit known zero. */
    Value() noexcept = default;

    /** @name Constructors @{ */
    static Value zeros(uint32_t width);
    static Value ones(uint32_t width);
    static Value allX(uint32_t width);
    static Value fromUint(uint32_t width, uint64_t value);
    /** Build from raw little-endian words (excess bits are masked). */
    static Value fromWords(uint32_t width, std::vector<uint64_t> words);
    /** Uniformly random fully-known value. */
    static Value random(uint32_t width, Rng &rng);
    /**
     * Parse a Verilog literal such as @c 4'b10x1, @c 8'hff, @c 'd5 or a
     * bare decimal (32-bit).  Underscores are permitted.  Throws
     * FatalError on malformed input.
     */
    static Value parseVerilog(std::string_view literal);
    /** @} */

    uint32_t width() const { return _p.width(); }

    /** True if any bit is X. */
    bool hasX() const;
    /** True if fully known and equal to zero. */
    bool isZero() const;
    /** True if fully known and non-zero. */
    bool isNonZero() const;

    /**
     * Low 64 bits as an unsigned integer.  Panics if any of the low
     * 64 bits (or any bit at all, for widths <= 64) is X.
     */
    uint64_t toUint64() const;

    /** Bit @p i as 0, 1, or -1 for X. */
    int
    bit(uint32_t i) const
    {
        check(i < width(), "bit index out of range");
        size_t word = i / 64u;
        uint64_t mask = 1ull << (i % 64u);
        if (xmask()[word] & mask)
            return -1;
        return (bits()[word] & mask) ? 1 : 0;
    }

    /** Set bit @p i to 0, 1, or -1 (X). */
    void
    setBit(uint32_t i, int v)
    {
        check(i < width(), "bit index out of range");
        size_t word = i / 64u;
        uint64_t mask = 1ull << (i % 64u);
        uint64_t &b = bits()[word];
        uint64_t &x = xmask()[word];
        b &= ~mask;
        x &= ~mask;
        if (v < 0)
            x |= mask;
        else if (v == 1)
            b |= mask;
    }

    /** @name Raw plane access (for bit-parallel transposes) @{ */
    /** Word @p i of the data plane (little-endian 64-bit words). */
    uint64_t bitsWord(size_t i) const { return bits()[i]; }
    /** Word @p i of the X plane; set bits are unknown. */
    uint64_t xmaskWord(size_t i) const { return xmask()[i]; }
    /**
     * Build from raw planes: @p bits / @p xmask are little-endian
     * words, excess bits are masked and data bits under X cleared.
     */
    static Value fromPlanes(uint32_t width, std::vector<uint64_t> bits,
                            std::vector<uint64_t> xmask);
    /** @} */

    /** Binary digits, MSB first, with @c x for unknown bits. */
    std::string toBinaryString() const;
    /** Verilog literal form, e.g. @c 4'b10x1 (hex when fully known). */
    std::string toVerilogLiteral() const;
    /** Decimal if fully known and width <= 64, else binary form. */
    std::string toDisplayString() const;

    bool operator==(const Value &other) const;
    bool operator!=(const Value &other) const { return !(*this == other); }

    /**
     * Compatibility with a trace cell: every *known* bit of @p expected
     * must match this value; X bits in @p expected are don't-cares.
     * An X bit in @c this against a known expected bit is a mismatch.
     */
    bool matches(const Value &expected) const;

    /** @name Width changes and structure @{ */
    Value zext(uint32_t new_width) const;
    Value sext(uint32_t new_width) const;
    /** Bits [hi:lo], inclusive; hi < width(). */
    Value slice(uint32_t hi, uint32_t lo) const;
    /** {this, low}: this becomes the upper bits. */
    Value concat(const Value &low) const;
    /** @p n copies of this value concatenated. */
    Value replicate(uint32_t n) const;
    /** @} */

    /** @name Bitwise (4-state dominance rules) @{ */
    Value operator~() const;
    Value operator&(const Value &rhs) const;
    Value operator|(const Value &rhs) const;
    Value operator^(const Value &rhs) const;
    /** @} */

    /** @name Arithmetic (all-X on unknown operands) @{ */
    Value operator+(const Value &rhs) const;
    Value operator-(const Value &rhs) const;
    Value operator*(const Value &rhs) const;
    /** Division by zero yields all-X, as in Verilog. */
    Value udiv(const Value &rhs) const;
    Value urem(const Value &rhs) const;
    Value negate() const;
    /** @} */

    /** @name Shifts; unknown amount gives all-X @{ */
    Value shl(const Value &amount) const;
    Value lshr(const Value &amount) const;
    Value ashr(const Value &amount) const;
    /** @} */

    /** @name Relational; 1-bit result, X if any operand bit is X @{ */
    Value eq(const Value &rhs) const;
    Value ne(const Value &rhs) const;
    Value ult(const Value &rhs) const;
    Value ule(const Value &rhs) const;
    Value slt(const Value &rhs) const;
    Value sle(const Value &rhs) const;
    /** @} */

    /** Case equality (===): X compares literally; always known. */
    Value caseEq(const Value &rhs) const;

    /** @name Reductions; 1-bit result @{ */
    Value redAnd() const;
    Value redOr() const;
    Value redXor() const;
    /** @} */

    /**
     * 2-to-1 multiplexer.  @p cond must be 1 bit.  An X condition
     * merges: result bits where both arms agree and are known keep
     * that value, all other bits become X (Verilog ?: semantics).
     */
    static Value ite(const Value &cond, const Value &then_v,
                     const Value &else_v);

    /** Replace every X bit with 0. */
    Value xToZero() const;
    /** Replace every X bit with a random known bit. */
    Value xToRandom(Rng &rng) const;

    /** Hash over width, bits, and X mask. */
    size_t hash() const;

    friend void swap(Value &a, Value &b) noexcept { a._p.swap(b._p); }

  private:
    friend class PackedValue;

    /** Known-zero value; the only place storage is sized. */
    explicit Value(uint32_t width);

    static size_t nwords(uint32_t width) { return (width + 63u) / 64u; }
    /** Mask the top word and clear data bits under the X mask. */
    void normalize();
    /** Unsigned comparison of known values: -1, 0, +1. */
    static int compareKnown(const Value &a, const Value &b);
    /** MSB as 0/1; requires fully known. */
    int signBit() const { return bit(width() - 1) == 1 ? 1 : 0; }

    /** @name The data and X planes, nwords(width()) words each @{ */
    std::span<uint64_t> bits() { return _p.plane(0); }
    std::span<const uint64_t> bits() const { return _p.plane(0); }
    std::span<uint64_t> xmask() { return _p.plane(1); }
    std::span<const uint64_t> xmask() const { return _p.plane(1); }
    /** @} */

    detail::Planes _p;
};

} // namespace rtlrepair::bv

#endif // RTLREPAIR_BV_VALUE_HPP
