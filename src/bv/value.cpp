#include "bv/value.hpp"

#include <algorithm>
#include <cctype>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::bv {

namespace {

/** Bit mask covering the valid bits of the top word. */
uint64_t
topMask(uint32_t width)
{
    uint32_t rem = width % 64u;
    return rem == 0 ? ~0ull : ((1ull << rem) - 1ull);
}

} // namespace

Value::Value(uint32_t width)
    : _p(width, static_cast<uint32_t>(nwords(width)))
{}

void
Value::normalize()
{
    uint64_t mask = topMask(width());
    auto b = bits(), x = xmask();
    b.back() &= mask;
    x.back() &= mask;
    for (size_t i = 0; i < b.size(); ++i)
        b[i] &= ~x[i];
}

Value
Value::zeros(uint32_t width)
{
    check(width > 0, "zero-width Value");
    // A defensive cap: widths beyond this are always the result of a
    // corrupted constant (e.g. a mutated part-select bound), and the
    // bit-level algorithms would effectively hang on them.
    if (width > (1u << 22))
        fatal("bit-vector width too large");
    return Value(width);
}

Value
Value::ones(uint32_t width)
{
    Value v = zeros(width);
    for (auto &w : v.bits())
        w = ~0ull;
    v.normalize();
    return v;
}

Value
Value::allX(uint32_t width)
{
    Value v = zeros(width);
    for (auto &w : v.xmask())
        w = ~0ull;
    v.normalize();
    return v;
}

Value
Value::fromUint(uint32_t width, uint64_t value)
{
    Value v = zeros(width);
    v.bits()[0] = value;
    v.normalize();
    return v;
}

Value
Value::fromWords(uint32_t width, std::vector<uint64_t> words)
{
    Value v = zeros(width);
    auto b = v.bits();
    std::copy_n(words.begin(), std::min(b.size(), words.size()), b.begin());
    v.normalize();
    return v;
}

Value
Value::random(uint32_t width, Rng &rng)
{
    Value v = zeros(width);
    for (auto &w : v.bits())
        w = rng.next();
    v.normalize();
    return v;
}

Value
Value::parseVerilog(std::string_view literal)
{
    std::string text;
    for (char c : literal) {
        if (c != '_' && !std::isspace(static_cast<unsigned char>(c)))
            text += c;
    }
    size_t tick = text.find('\'');
    if (tick == std::string::npos) {
        // Bare decimal: 32 bits per the Verilog standard.
        uint64_t value = 0;
        if (text.empty())
            fatal("empty integer literal");
        for (char c : text) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("malformed integer literal: " + std::string(literal));
            value = value * 10u + static_cast<uint64_t>(c - '0');
        }
        return fromUint(32, value);
    }

    uint32_t width = 32;
    if (tick > 0) {
        width = 0;
        for (size_t i = 0; i < tick; ++i) {
            char c = text[i];
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("malformed literal width: " + std::string(literal));
            width = width * 10u + static_cast<uint32_t>(c - '0');
        }
        if (width == 0 || width > 1u << 20)
            fatal("unsupported literal width: " + std::string(literal));
    }

    size_t pos = tick + 1;
    if (pos < text.size() &&
        (text[pos] == 's' || text[pos] == 'S')) {
        ++pos; // signedness marker; value bits are the same
    }
    if (pos >= text.size())
        fatal("malformed literal: " + std::string(literal));

    char base = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[pos])));
    ++pos;
    std::string digits = text.substr(pos);
    if (digits.empty())
        fatal("literal has no digits: " + std::string(literal));

    uint32_t bits_per_digit = 0;
    switch (base) {
      case 'b': bits_per_digit = 1; break;
      case 'o': bits_per_digit = 3; break;
      case 'h': bits_per_digit = 4; break;
      case 'd': bits_per_digit = 0; break;
      default:
        fatal("unknown literal base: " + std::string(literal));
    }

    Value v = zeros(width);
    if (bits_per_digit == 0) {
        uint64_t value = 0;
        for (char c : digits) {
            if (c == 'x' || c == 'X')
                return allX(width);
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("malformed decimal literal: " + std::string(literal));
            value = value * 10u + static_cast<uint64_t>(c - '0');
        }
        return fromUint(width, value);
    }

    uint32_t bit_pos = 0;
    for (size_t i = digits.size(); i-- > 0;) {
        char c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(digits[i])));
        uint32_t digit = 0;
        bool is_x = false;
        if (c == 'x' || c == 'z' || c == '?') {
            is_x = true; // Z folds into X (tri-states are pre-removed)
        } else if (c >= '0' && c <= '9') {
            digit = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<uint32_t>(c - 'a') + 10u;
        } else {
            fatal("malformed literal digit: " + std::string(literal));
        }
        if (digit >= (1u << bits_per_digit) && !is_x)
            fatal("digit out of range for base: " + std::string(literal));
        for (uint32_t b = 0; b < bits_per_digit; ++b) {
            if (bit_pos >= width)
                break;
            if (is_x) {
                v.setBit(bit_pos, -1);
            } else if ((digit >> b) & 1u) {
                v.setBit(bit_pos, 1);
            }
            ++bit_pos;
        }
    }
    // Verilog extends a leading x digit through the remaining bits.
    if (bit_pos < width && !digits.empty()) {
        char lead = static_cast<char>(
            std::tolower(static_cast<unsigned char>(digits.front())));
        if (lead == 'x' || lead == 'z' || lead == '?') {
            for (uint32_t b = bit_pos; b < width; ++b)
                v.setBit(b, -1);
        }
    }
    return v;
}

bool
Value::hasX() const
{
    for (uint64_t w : xmask()) {
        if (w != 0)
            return true;
    }
    return false;
}

bool
Value::isZero() const
{
    if (hasX())
        return false;
    for (uint64_t w : bits()) {
        if (w != 0)
            return false;
    }
    return true;
}

bool
Value::isNonZero() const
{
    if (hasX())
        return false;
    for (uint64_t w : bits()) {
        if (w != 0)
            return true;
    }
    return false;
}

uint64_t
Value::toUint64() const
{
    check(xmask()[0] == 0, "toUint64 on X value");
    return bits()[0];
}

Value
Value::fromPlanes(uint32_t width, std::vector<uint64_t> bits,
                  std::vector<uint64_t> xmask)
{
    Value v = zeros(width);
    auto b = v.bits(), x = v.xmask();
    std::copy_n(bits.begin(), std::min(b.size(), bits.size()), b.begin());
    std::copy_n(xmask.begin(), std::min(x.size(), xmask.size()),
                x.begin());
    v.normalize();
    return v;
}

std::string
Value::toBinaryString() const
{
    std::string out;
    out.reserve(width());
    for (uint32_t i = width(); i-- > 0;) {
        int b = bit(i);
        out += b < 0 ? 'x' : static_cast<char>('0' + b);
    }
    return out;
}

std::string
Value::toVerilogLiteral() const
{
    if (!hasX() && width() % 4u == 0 && width() >= 8) {
        std::string digits;
        for (uint32_t i = width(); i >= 4; i -= 4) {
            uint32_t nibble = 0;
            for (uint32_t b = 0; b < 4; ++b)
                nibble |= static_cast<uint32_t>(bit(i - 4 + b)) << b;
            digits += "0123456789abcdef"[nibble];
        }
        return format("%u'h%s", width(), digits.c_str());
    }
    return format("%u'b%s", width(), toBinaryString().c_str());
}

std::string
Value::toDisplayString() const
{
    if (!hasX() && width() <= 64)
        return format("%llu", static_cast<unsigned long long>(bits()[0]));
    return toBinaryString();
}

bool
Value::operator==(const Value &other) const
{
    return width() == other.width() && _p.sameWords(other._p);
}

bool
Value::matches(const Value &expected) const
{
    if (width() != expected.width()) {
        // Width mismatches happen when a bug changes a port width
        // (e.g. the mux_k1 benchmark).  Compare zero-extended, the
        // way a testbench comparison against a wider vector would.
        uint32_t w = std::max(width(), expected.width());
        return zext(w).matches(expected.zext(w));
    }
    for (size_t i = 0; i < bits().size(); ++i) {
        uint64_t care = ~expected.xmask()[i];
        if (i + 1 == bits().size())
            care &= topMask(width());
        if ((xmask()[i] & care) != 0)
            return false; // our bit unknown where the trace checks
        if (((bits()[i] ^ expected.bits()[i]) & care) != 0)
            return false;
    }
    return true;
}

Value
Value::zext(uint32_t new_width) const
{
    check(new_width >= width(), "zext must not shrink");
    Value v = zeros(new_width);
    std::copy(bits().begin(), bits().end(), v.bits().begin());
    std::copy(xmask().begin(), xmask().end(), v.xmask().begin());
    v.normalize();
    return v;
}

Value
Value::sext(uint32_t new_width) const
{
    check(new_width >= width(), "sext must not shrink");
    Value v = zext(new_width);
    int msb = bit(width() - 1);
    for (uint32_t i = width(); i < new_width; ++i)
        v.setBit(i, msb);
    return v;
}

Value
Value::slice(uint32_t hi, uint32_t lo) const
{
    check(hi < width() && lo <= hi, "slice out of range");
    Value v = zeros(hi - lo + 1);
    for (uint32_t i = lo; i <= hi; ++i)
        v.setBit(i - lo, bit(i));
    return v;
}

Value
Value::concat(const Value &low) const
{
    Value v = zeros(width() + low.width());
    for (uint32_t i = 0; i < low.width(); ++i)
        v.setBit(i, low.bit(i));
    for (uint32_t i = 0; i < width(); ++i)
        v.setBit(low.width() + i, bit(i));
    return v;
}

Value
Value::replicate(uint32_t n) const
{
    check(n > 0, "replicate zero times");
    Value v = *this;
    for (uint32_t i = 1; i < n; ++i)
        v = v.concat(*this);
    return v;
}

Value
Value::operator~() const
{
    Value v = *this;
    for (size_t i = 0; i < v.bits().size(); ++i)
        v.bits()[i] = ~v.bits()[i];
    v.normalize();
    return v;
}

Value
Value::operator&(const Value &rhs) const
{
    check(width() == rhs.width(), "and: width mismatch");
    Value v = zeros(width());
    for (size_t i = 0; i < bits().size(); ++i) {
        // Known one bits: both known one.  Unknown unless either is a
        // known zero.
        uint64_t known_a = ~xmask()[i];
        uint64_t known_b = ~rhs.xmask()[i];
        uint64_t one = (bits()[i] & known_a) & (rhs.bits()[i] & known_b);
        uint64_t zero = (known_a & ~bits()[i]) | (known_b & ~rhs.bits()[i]);
        v.bits()[i] = one;
        v.xmask()[i] = ~(one | zero);
    }
    v.normalize();
    return v;
}

Value
Value::operator|(const Value &rhs) const
{
    check(width() == rhs.width(), "or: width mismatch");
    Value v = zeros(width());
    for (size_t i = 0; i < bits().size(); ++i) {
        uint64_t known_a = ~xmask()[i];
        uint64_t known_b = ~rhs.xmask()[i];
        uint64_t one = (bits()[i] & known_a) | (rhs.bits()[i] & known_b);
        uint64_t zero = (known_a & ~bits()[i]) & (known_b & ~rhs.bits()[i]);
        v.bits()[i] = one;
        v.xmask()[i] = ~(one | zero);
    }
    v.normalize();
    return v;
}

Value
Value::operator^(const Value &rhs) const
{
    check(width() == rhs.width(), "xor: width mismatch");
    Value v = zeros(width());
    for (size_t i = 0; i < bits().size(); ++i) {
        v.xmask()[i] = xmask()[i] | rhs.xmask()[i];
        v.bits()[i] = bits()[i] ^ rhs.bits()[i];
    }
    v.normalize();
    return v;
}

Value
Value::operator+(const Value &rhs) const
{
    check(width() == rhs.width(), "add: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(width());
    Value v = zeros(width());
    uint64_t carry = 0;
    for (size_t i = 0; i < bits().size(); ++i) {
        uint64_t sum = bits()[i] + carry;
        uint64_t carry1 = sum < bits()[i] ? 1u : 0u;
        uint64_t total = sum + rhs.bits()[i];
        uint64_t carry2 = total < sum ? 1u : 0u;
        v.bits()[i] = total;
        carry = carry1 | carry2;
    }
    v.normalize();
    return v;
}

Value
Value::negate() const
{
    if (hasX())
        return allX(width());
    Value v = ~*this;
    return v + fromUint(width(), 1);
}

Value
Value::operator-(const Value &rhs) const
{
    check(width() == rhs.width(), "sub: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(width());
    return *this + rhs.negate();
}

Value
Value::operator*(const Value &rhs) const
{
    check(width() == rhs.width(), "mul: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(width());
    size_t n = bits().size();
    std::vector<uint64_t> acc(n, 0);
    for (size_t i = 0; i < n; ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; i + j < n; ++j) {
            unsigned __int128 cur =
                static_cast<unsigned __int128>(bits()[i]) * rhs.bits()[j] +
                acc[i + j] + carry;
            acc[i + j] = static_cast<uint64_t>(cur);
            carry = static_cast<uint64_t>(cur >> 64);
        }
    }
    return fromWords(width(), std::move(acc));
}

Value
Value::udiv(const Value &rhs) const
{
    check(width() == rhs.width(), "udiv: width mismatch");
    if (hasX() || rhs.hasX() || rhs.isZero())
        return allX(width());
    // Simple restoring long division, MSB first.
    Value quotient = zeros(width());
    Value remainder = zeros(width());
    for (uint32_t i = width(); i-- > 0;) {
        remainder = remainder.shl(fromUint(width(), 1));
        remainder.setBit(0, bit(i));
        if (rhs.ule(remainder).isNonZero()) {
            remainder = remainder - rhs;
            quotient.setBit(i, 1);
        }
    }
    return quotient;
}

Value
Value::urem(const Value &rhs) const
{
    check(width() == rhs.width(), "urem: width mismatch");
    if (hasX() || rhs.hasX() || rhs.isZero())
        return allX(width());
    Value quotient = udiv(rhs);
    return *this - quotient * rhs;
}

Value
Value::shl(const Value &amount) const
{
    if (hasX() || amount.hasX())
        return allX(width());
    uint64_t by = amount.bits()[0];
    for (size_t i = 1; i < amount.bits().size(); ++i) {
        if (amount.bits()[i] != 0)
            by = width(); // saturate
    }
    if (by >= width())
        return zeros(width());
    Value v = zeros(width());
    for (uint32_t i = static_cast<uint32_t>(by); i < width(); ++i)
        v.setBit(i, bit(i - static_cast<uint32_t>(by)));
    return v;
}

Value
Value::lshr(const Value &amount) const
{
    if (hasX() || amount.hasX())
        return allX(width());
    uint64_t by = amount.bits()[0];
    for (size_t i = 1; i < amount.bits().size(); ++i) {
        if (amount.bits()[i] != 0)
            by = width();
    }
    if (by >= width())
        return zeros(width());
    Value v = zeros(width());
    for (uint32_t i = 0; i + by < width(); ++i)
        v.setBit(i, bit(i + static_cast<uint32_t>(by)));
    return v;
}

Value
Value::ashr(const Value &amount) const
{
    if (hasX() || amount.hasX())
        return allX(width());
    uint64_t by = amount.bits()[0];
    for (size_t i = 1; i < amount.bits().size(); ++i) {
        if (amount.bits()[i] != 0)
            by = width();
    }
    int sign = bit(width() - 1);
    if (by >= width())
        return sign == 1 ? ones(width()) : zeros(width());
    Value v = zeros(width());
    for (uint32_t i = 0; i < width(); ++i) {
        uint64_t src = i + by;
        v.setBit(i, src < width() ? bit(static_cast<uint32_t>(src)) : sign);
    }
    return v;
}

int
Value::compareKnown(const Value &a, const Value &b)
{
    for (size_t i = a.bits().size(); i-- > 0;) {
        if (a.bits()[i] < b.bits()[i])
            return -1;
        if (a.bits()[i] > b.bits()[i])
            return 1;
    }
    return 0;
}

Value
Value::eq(const Value &rhs) const
{
    check(width() == rhs.width(), "eq: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(1);
    return fromUint(1, compareKnown(*this, rhs) == 0 ? 1u : 0u);
}

Value
Value::ne(const Value &rhs) const
{
    Value e = eq(rhs);
    return e.hasX() ? e : ~e;
}

Value
Value::ult(const Value &rhs) const
{
    check(width() == rhs.width(), "ult: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(1);
    return fromUint(1, compareKnown(*this, rhs) < 0 ? 1u : 0u);
}

Value
Value::ule(const Value &rhs) const
{
    check(width() == rhs.width(), "ule: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(1);
    return fromUint(1, compareKnown(*this, rhs) <= 0 ? 1u : 0u);
}

Value
Value::slt(const Value &rhs) const
{
    check(width() == rhs.width(), "slt: width mismatch");
    if (hasX() || rhs.hasX())
        return allX(1);
    int sa = signBit(), sb = rhs.signBit();
    if (sa != sb)
        return fromUint(1, sa == 1 ? 1u : 0u);
    return fromUint(1, compareKnown(*this, rhs) < 0 ? 1u : 0u);
}

Value
Value::sle(const Value &rhs) const
{
    Value lt = slt(rhs);
    if (lt.hasX())
        return lt;
    if (lt.isNonZero())
        return lt;
    return eq(rhs);
}

Value
Value::caseEq(const Value &rhs) const
{
    check(width() == rhs.width(), "caseEq: width mismatch");
    bool equal = _p.sameWords(rhs._p);
    return fromUint(1, equal ? 1u : 0u);
}

Value
Value::redAnd() const
{
    bool any_x = false;
    for (uint32_t i = 0; i < width(); ++i) {
        int b = bit(i);
        if (b == 0)
            return fromUint(1, 0);
        if (b < 0)
            any_x = true;
    }
    return any_x ? allX(1) : fromUint(1, 1);
}

Value
Value::redOr() const
{
    bool any_x = false;
    for (uint32_t i = 0; i < width(); ++i) {
        int b = bit(i);
        if (b == 1)
            return fromUint(1, 1);
        if (b < 0)
            any_x = true;
    }
    return any_x ? allX(1) : fromUint(1, 0);
}

Value
Value::redXor() const
{
    if (hasX())
        return allX(1);
    uint64_t parity = 0;
    for (uint64_t w : bits())
        parity ^= w;
    parity ^= parity >> 32;
    parity ^= parity >> 16;
    parity ^= parity >> 8;
    parity ^= parity >> 4;
    parity ^= parity >> 2;
    parity ^= parity >> 1;
    return fromUint(1, parity & 1u);
}

Value
Value::ite(const Value &cond, const Value &then_v, const Value &else_v)
{
    check(cond.width() == 1, "ite: condition must be 1 bit");
    check(then_v.width() == else_v.width(), "ite: arm width mismatch");
    int c = cond.bit(0);
    if (c == 1)
        return then_v;
    if (c == 0)
        return else_v;
    // X condition: merge arms bitwise.
    Value v = zeros(then_v.width());
    for (uint32_t i = 0; i < v.width(); ++i) {
        int a = then_v.bit(i);
        int b = else_v.bit(i);
        v.setBit(i, (a == b && a >= 0) ? a : -1);
    }
    return v;
}

Value
Value::xToZero() const
{
    Value v = *this;
    for (auto &w : v.xmask())
        w = 0;
    return v;
}

Value
Value::xToRandom(Rng &rng) const
{
    Value v = *this;
    for (size_t i = 0; i < v.bits().size(); ++i) {
        v.bits()[i] |= rng.next() & v.xmask()[i];
        v.xmask()[i] = 0;
    }
    v.normalize();
    return v;
}

size_t
Value::hash() const
{
    size_t h = width() * 0x9e3779b97f4a7c15ull;
    auto mix = [&h](uint64_t w) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    for (uint64_t w : bits())
        mix(w);
    for (uint64_t w : xmask())
        mix(w ^ 0x5555555555555555ull);
    return h;
}

} // namespace rtlrepair::bv
