#include "bv/packed_value.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace rtlrepair::bv {

namespace {

/** Validated plane length of a @p width-bit PackedValue. */
uint32_t
checkedWidth(uint32_t width)
{
    check(width > 0, "zero-width PackedValue");
    if (width > (1u << 22))
        fatal("bit-vector width too large");
    return width;
}

} // namespace

PackedValue::PackedValue(uint32_t width)
    : _p(checkedWidth(width), width)
{}

void
PackedValue::normalize()
{
    for (uint32_t p = 0; p < width(); ++p)
        val()[p] &= ~unk()[p];
}

PackedValue
PackedValue::zeros(uint32_t width)
{
    return PackedValue(width);
}

PackedValue
PackedValue::allX(uint32_t width)
{
    PackedValue r(width);
    for (auto &w : r.unk())
        w = ~0ull;
    return r;
}

PackedValue
PackedValue::broadcast(const Value &v)
{
    PackedValue r(v.width());
    for (uint32_t p = 0; p < r.width(); ++p) {
        uint64_t wd = v.bitsWord(p >> 6), xm = v.xmaskWord(p >> 6);
        uint64_t m = 1ull << (p & 63u);
        if (xm & m)
            r.unk()[p] = ~0ull;
        else if (wd & m)
            r.val()[p] = ~0ull;
    }
    return r;
}

PackedValue
PackedValue::pack(const std::vector<Value> &vals, uint32_t width)
{
    check(vals.size() <= kLanes, "pack: too many lanes");
    const Value *ptrs[kLanes];
    for (size_t l = 0; l < vals.size(); ++l)
        ptrs[l] = &vals[l];
    return pack(ptrs, vals.size(), width);
}

PackedValue
PackedValue::pack(const Value *const *vals, size_t n, uint32_t width)
{
    check(n <= kLanes, "pack: too many lanes");
    PackedValue r = allX(width);
    for (size_t l = 0; l < n; ++l) {
        if (!vals[l])
            continue;
        const Value &v = *vals[l];
        uint64_t m = 1ull << l;
        // Reading the source planes in place implements the zext /
        // truncate adjustment without materializing a copy: bits
        // past the source width are known zero.  The inner loop is
        // register-only — one plane-word load per 64 source bits.
        uint32_t low = std::min(v.width(), width);
        for (uint32_t p = 0; p < low;) {
            uint64_t bits = v.bitsWord(p >> 6);
            uint64_t xm = v.xmaskWord(p >> 6);
            uint32_t hi = std::min(low, (p & ~63u) + 64u);
            for (; p < hi; ++p) {
                uint64_t pm = 1ull << (p & 63u);
                r.val()[p] = (bits & pm) ? (r.val()[p] | m)
                                        : (r.val()[p] & ~m);
                r.unk()[p] = (xm & pm) ? (r.unk()[p] | m)
                                      : (r.unk()[p] & ~m);
            }
        }
        for (uint32_t p = low; p < width; ++p) {
            r.val()[p] &= ~m;
            r.unk()[p] &= ~m;
        }
    }
    return r;
}

Value
PackedValue::lane(uint32_t l) const
{
    check(l < kLanes, "lane index out of range");
    Value v = Value::zeros(width());
    auto bits = v.bits(), xmask = v.xmask();
    auto pv = val(), pu = unk();
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t pm = 1ull << (p & 63u);
        if ((pu[p] >> l) & 1)
            xmask[p >> 6] |= pm;
        else if ((pv[p] >> l) & 1)
            bits[p >> 6] |= pm;
    }
    return v;
}

void
PackedValue::setLane(uint32_t l, const Value &v)
{
    check(l < kLanes, "lane index out of range");
    check(v.width() == width(), "setLane: width mismatch");
    uint64_t m = 1ull << l;
    for (uint32_t p = 0; p < width(); ++p) {
        int b = v.bit(p);
        val()[p] = (b == 1) ? (val()[p] | m) : (val()[p] & ~m);
        unk()[p] = (b < 0) ? (unk()[p] | m) : (unk()[p] & ~m);
    }
}

void
PackedValue::setBitLanes(uint32_t pos, uint64_t val, uint64_t unk,
                         uint64_t mask)
{
    check(pos < width(), "setBitLanes: position out of range");
    uint64_t &v = this->val()[pos];
    uint64_t &u = this->unk()[pos];
    v = (v & ~mask) | (val & mask);
    u = (u & ~mask) | (unk & mask);
    v &= ~u;
}

uint64_t
PackedValue::anyX() const
{
    uint64_t m = 0;
    for (uint32_t p = 0; p < width(); ++p)
        m |= unk()[p];
    return m;
}

uint64_t
PackedValue::anyOne() const
{
    uint64_t m = 0;
    for (uint32_t p = 0; p < width(); ++p)
        m |= val()[p];
    return m;
}

uint64_t
PackedValue::laneEq(const PackedValue &rhs) const
{
    if (width() != rhs.width())
        return 0;
    uint64_t diff = 0;
    for (uint32_t p = 0; p < width(); ++p)
        diff |= (val()[p] ^ rhs.val()[p]) | (unk()[p] ^ rhs.unk()[p]);
    return ~diff;
}

uint64_t
PackedValue::laneMatches(const PackedValue &expected) const
{
    if (width() != expected.width()) {
        uint32_t w = std::max(width(), expected.width());
        return zext(w).laneMatches(expected.zext(w));
    }
    uint64_t bad = 0;
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t care = ~expected.unk()[p];
        bad |= care & (unk()[p] | (val()[p] ^ expected.val()[p]));
    }
    return ~bad;
}

uint64_t
PackedValue::laneEqUint(uint64_t target) const
{
    uint32_t n = std::min<uint32_t>(width(), 64);
    if (n < 64 && (target >> n) != 0)
        return 0;
    uint64_t m = ~anyX();
    for (uint32_t p = 0; p < n; ++p)
        m &= ((target >> p) & 1) ? val()[p] : ~val()[p];
    return m;
}

PackedValue
PackedValue::blend(const PackedValue &a, const PackedValue &b,
                   uint64_t mask)
{
    check(a.width() == b.width(), "blend: width mismatch");
    PackedValue r(a.width());
    for (uint32_t p = 0; p < r.width(); ++p) {
        r.val()[p] = (a.val()[p] & mask) | (b.val()[p] & ~mask);
        r.unk()[p] = (a.unk()[p] & mask) | (b.unk()[p] & ~mask);
    }
    return r;
}

PackedValue
PackedValue::zext(uint32_t new_width) const
{
    check(new_width >= width(), "zext must not shrink");
    PackedValue r(new_width);
    std::copy(val().begin(), val().end(), r.val().begin());
    std::copy(unk().begin(), unk().end(), r.unk().begin());
    return r;
}

PackedValue
PackedValue::sext(uint32_t new_width) const
{
    check(new_width >= width(), "sext must not shrink");
    PackedValue r = zext(new_width);
    for (uint32_t p = width(); p < new_width; ++p) {
        r.val()[p] = val()[width() - 1];
        r.unk()[p] = unk()[width() - 1];
    }
    return r;
}

PackedValue
PackedValue::slice(uint32_t hi, uint32_t lo) const
{
    check(hi < width() && lo <= hi, "slice out of range");
    PackedValue r(hi - lo + 1);
    for (uint32_t p = 0; p < r.width(); ++p) {
        r.val()[p] = val()[lo + p];
        r.unk()[p] = unk()[lo + p];
    }
    return r;
}

PackedValue
PackedValue::concat(const PackedValue &low) const
{
    PackedValue r(width() + low.width());
    std::copy(low.val().begin(), low.val().end(), r.val().begin());
    std::copy(low.unk().begin(), low.unk().end(), r.unk().begin());
    std::copy(val().begin(), val().end(), r.val().begin() + low.width());
    std::copy(unk().begin(), unk().end(), r.unk().begin() + low.width());
    return r;
}

PackedValue
PackedValue::replicate(uint32_t n) const
{
    check(n > 0, "replicate zero times");
    PackedValue r(width() * n);
    for (uint32_t i = 0; i < n; ++i) {
        std::copy(val().begin(), val().end(),
                  r.val().begin() + size_t(i) * width());
        std::copy(unk().begin(), unk().end(),
                  r.unk().begin() + size_t(i) * width());
    }
    return r;
}

PackedValue
PackedValue::operator~() const
{
    PackedValue r(width());
    for (uint32_t p = 0; p < width(); ++p) {
        r.val()[p] = ~val()[p] & ~unk()[p];
        r.unk()[p] = unk()[p];
    }
    return r;
}

PackedValue
PackedValue::operator&(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "and: width mismatch");
    PackedValue r(width());
    for (uint32_t p = 0; p < width(); ++p) {
        // Known zero on either side dominates any X on the other.
        uint64_t one = val()[p] & rhs.val()[p];
        uint64_t zero = (~val()[p] & ~unk()[p]) |
                        (~rhs.val()[p] & ~rhs.unk()[p]);
        r.val()[p] = one;
        r.unk()[p] = ~(one | zero);
    }
    return r;
}

PackedValue
PackedValue::operator|(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "or: width mismatch");
    PackedValue r(width());
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t one = val()[p] | rhs.val()[p];
        uint64_t zero = (~val()[p] & ~unk()[p]) &
                        (~rhs.val()[p] & ~rhs.unk()[p]);
        r.val()[p] = one;
        r.unk()[p] = ~(one | zero);
    }
    return r;
}

PackedValue
PackedValue::operator^(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "xor: width mismatch");
    PackedValue r(width());
    for (uint32_t p = 0; p < width(); ++p) {
        r.unk()[p] = unk()[p] | rhs.unk()[p];
        r.val()[p] = (val()[p] ^ rhs.val()[p]) & ~r.unk()[p];
    }
    return r;
}

PackedValue
PackedValue::operator+(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "add: width mismatch");
    PackedValue r(width());
    uint64_t xl = anyX() | rhs.anyX();
    uint64_t carry = 0;
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t a = val()[p], b = rhs.val()[p];
        r.val()[p] = (a ^ b ^ carry) & ~xl;
        r.unk()[p] = xl;
        carry = (a & b) | (carry & (a ^ b));
    }
    return r;
}

PackedValue
PackedValue::operator-(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "sub: width mismatch");
    PackedValue r(width());
    uint64_t xl = anyX() | rhs.anyX();
    uint64_t carry = ~0ull;  // a + ~b + 1
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t a = val()[p], b = ~rhs.val()[p];
        r.val()[p] = (a ^ b ^ carry) & ~xl;
        r.unk()[p] = xl;
        carry = (a & b) | (carry & (a ^ b));
    }
    return r;
}

PackedValue
PackedValue::negate() const
{
    PackedValue r(width());
    uint64_t xl = anyX();
    uint64_t carry = ~0ull;  // ~a + 1
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t a = ~val()[p];
        r.val()[p] = (a ^ carry) & ~xl;
        r.unk()[p] = xl;
        carry = a & carry;
    }
    return r;
}

PackedValue
PackedValue::scalarFallback(const PackedValue &rhs, uint64_t ok_lanes,
                            Value (Value::*op)(const Value &) const) const
{
    PackedValue r = allX(width());
    for (uint32_t l = 0; l < kLanes; ++l) {
        if (!((ok_lanes >> l) & 1))
            continue;
        r.setLane(l, (lane(l).*op)(rhs.lane(l)));
    }
    return r;
}

PackedValue
PackedValue::operator*(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "mul: width mismatch");
    return scalarFallback(rhs, ~(anyX() | rhs.anyX()),
                          &Value::operator*);
}

PackedValue
PackedValue::udiv(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "udiv: width mismatch");
    return scalarFallback(
        rhs, ~(anyX() | rhs.anyX()) & ~rhs.laneZero(), &Value::udiv);
}

PackedValue
PackedValue::urem(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "urem: width mismatch");
    return scalarFallback(
        rhs, ~(anyX() | rhs.anyX()) & ~rhs.laneZero(), &Value::urem);
}

namespace {

/**
 * Per-lane saturation mask for a shift: lanes whose known amount bits
 * select a shift >= width.  Bit positions >= 64 of the amount are
 * ignored, exactly like the scalar path that reads bits()[0]; the
 * scalar path instead saturates when any upper *word* is non-zero,
 * which for amount widths > 64 we mirror below.
 */
uint64_t
shiftSaturation(const PackedValue &amount, uint32_t width)
{
    uint64_t sat = 0;
    for (uint32_t p = 0; p < amount.width(); ++p) {
        bool overflows = p >= 64 || (1ull << std::min<uint32_t>(p, 63)) >=
                                        static_cast<uint64_t>(width);
        if (overflows)
            sat |= amount.valAt(p);
    }
    return sat;
}

} // namespace

PackedValue
PackedValue::shl(const PackedValue &amount) const
{
    PackedValue r = *this;
    uint64_t xl = anyX() | amount.anyX();
    uint64_t sat = shiftSaturation(amount, width());
    auto cur = r.val();
    for (uint32_t p = 0; p < amount.width() && p < 64; ++p) {
        uint64_t s = 1ull << p;
        if (s >= width())
            break;
        uint64_t m = amount.val()[p];
        if (!m)
            continue;
        for (uint32_t pos = width(); pos-- > 0;) {
            uint64_t in = pos >= s ? cur[pos - s] : 0;
            cur[pos] = (cur[pos] & ~m) | (in & m);
        }
    }
    uint64_t keep = ~xl & ~sat;
    for (uint32_t p = 0; p < width(); ++p) {
        cur[p] &= keep;
        r.unk()[p] = xl;
    }
    return r;
}

PackedValue
PackedValue::lshr(const PackedValue &amount) const
{
    PackedValue r = *this;
    uint64_t xl = anyX() | amount.anyX();
    uint64_t sat = shiftSaturation(amount, width());
    auto cur = r.val();
    for (uint32_t p = 0; p < amount.width() && p < 64; ++p) {
        uint64_t s = 1ull << p;
        if (s >= width())
            break;
        uint64_t m = amount.val()[p];
        if (!m)
            continue;
        for (uint32_t pos = 0; pos < width(); ++pos) {
            uint64_t in = pos + s < width() ? cur[pos + s] : 0;
            cur[pos] = (cur[pos] & ~m) | (in & m);
        }
    }
    uint64_t keep = ~xl & ~sat;
    for (uint32_t p = 0; p < width(); ++p) {
        cur[p] &= keep;
        r.unk()[p] = xl;
    }
    return r;
}

PackedValue
PackedValue::ashr(const PackedValue &amount) const
{
    PackedValue r = *this;
    uint64_t xl = anyX() | amount.anyX();
    uint64_t sat = shiftSaturation(amount, width());
    uint64_t sign = val()[width() - 1];
    auto cur = r.val();
    for (uint32_t p = 0; p < amount.width() && p < 64; ++p) {
        uint64_t s = 1ull << p;
        if (s >= width())
            break;
        uint64_t m = amount.val()[p];
        if (!m)
            continue;
        for (uint32_t pos = 0; pos < width(); ++pos) {
            uint64_t in = pos + s < width() ? cur[pos + s] : sign;
            cur[pos] = (cur[pos] & ~m) | (in & m);
        }
    }
    for (uint32_t p = 0; p < width(); ++p) {
        cur[p] = ((cur[p] & ~sat) | (sign & sat)) & ~xl;
        r.unk()[p] = xl;
    }
    return r;
}

PackedValue
PackedValue::eq(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "eq: width mismatch");
    PackedValue r(1);
    uint64_t xl = anyX() | rhs.anyX();
    uint64_t ne_mask = 0;
    for (uint32_t p = 0; p < width(); ++p)
        ne_mask |= val()[p] ^ rhs.val()[p];
    r.val()[0] = ~ne_mask & ~xl;
    r.unk()[0] = xl;
    return r;
}

PackedValue
PackedValue::ne(const PackedValue &rhs) const
{
    return ~eq(rhs);
}

PackedValue
PackedValue::ult(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "ult: width mismatch");
    PackedValue r(1);
    uint64_t xl = anyX() | rhs.anyX();
    uint64_t lt = 0;
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t a = val()[p], b = rhs.val()[p];
        lt = (~a & b) | (~(a ^ b) & lt);
    }
    r.val()[0] = lt & ~xl;
    r.unk()[0] = xl;
    return r;
}

PackedValue
PackedValue::ule(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "ule: width mismatch");
    PackedValue lt = ult(rhs);
    PackedValue e = eq(rhs);
    PackedValue r(1);
    uint64_t xl = lt.unk()[0];
    r.val()[0] = (lt.val()[0] | e.val()[0]) & ~xl;
    r.unk()[0] = xl;
    return r;
}

PackedValue
PackedValue::slt(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "slt: width mismatch");
    PackedValue r(1);
    uint64_t xl = anyX() | rhs.anyX();
    uint64_t sa = val()[width() - 1], sb = rhs.val()[width() - 1];
    uint64_t lt = 0;
    for (uint32_t p = 0; p < width(); ++p) {
        uint64_t a = val()[p], b = rhs.val()[p];
        lt = (~a & b) | (~(a ^ b) & lt);
    }
    // Different signs: the negative side (sign bit set) is smaller.
    r.val()[0] = ((sa & ~sb) | (~(sa ^ sb) & lt)) & ~xl;
    r.unk()[0] = xl;
    return r;
}

PackedValue
PackedValue::sle(const PackedValue &rhs) const
{
    PackedValue lt = slt(rhs);
    PackedValue e = eq(rhs);
    PackedValue r(1);
    uint64_t xl = lt.unk()[0];
    r.val()[0] = (lt.val()[0] | e.val()[0]) & ~xl;
    r.unk()[0] = xl;
    return r;
}

PackedValue
PackedValue::caseEq(const PackedValue &rhs) const
{
    check(width() == rhs.width(), "caseEq: width mismatch");
    PackedValue r(1);
    uint64_t diff = 0;
    for (uint32_t p = 0; p < width(); ++p)
        diff |= (val()[p] ^ rhs.val()[p]) | (unk()[p] ^ rhs.unk()[p]);
    r.val()[0] = ~diff;
    return r;
}

PackedValue
PackedValue::redAnd() const
{
    PackedValue r(1);
    uint64_t known0 = 0;
    for (uint32_t p = 0; p < width(); ++p)
        known0 |= ~val()[p] & ~unk()[p];
    uint64_t xl = anyX();
    r.val()[0] = ~known0 & ~xl;
    r.unk()[0] = xl & ~known0;
    return r;
}

PackedValue
PackedValue::redOr() const
{
    PackedValue r(1);
    uint64_t one = anyOne();
    r.val()[0] = one;
    r.unk()[0] = anyX() & ~one;
    return r;
}

PackedValue
PackedValue::redXor() const
{
    PackedValue r(1);
    uint64_t xl = anyX();
    uint64_t parity = 0;
    for (uint32_t p = 0; p < width(); ++p)
        parity ^= val()[p];
    r.val()[0] = parity & ~xl;
    r.unk()[0] = xl;
    return r;
}

PackedValue
PackedValue::ite(const PackedValue &cond, const PackedValue &then_v,
                 const PackedValue &else_v)
{
    check(cond.width() == 1, "ite: condition must be 1 bit");
    check(then_v.width() == else_v.width(), "ite: arm width mismatch");
    uint64_t c1 = cond.val()[0];
    uint64_t cx = cond.unk()[0];
    uint64_t c0 = ~c1 & ~cx;
    PackedValue r(then_v.width());
    for (uint32_t p = 0; p < r.width(); ++p) {
        uint64_t agree = ~then_v.unk()[p] & ~else_v.unk()[p] &
                         ~(then_v.val()[p] ^ else_v.val()[p]);
        r.val()[p] = (c1 & then_v.val()[p]) | (c0 & else_v.val()[p]) |
                    (cx & then_v.val()[p] & agree);
        r.unk()[p] = (c1 & then_v.unk()[p]) | (c0 & else_v.unk()[p]) |
                    (cx & ~agree);
    }
    return r;
}

} // namespace rtlrepair::bv
