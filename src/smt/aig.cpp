#include "smt/aig.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace rtlrepair::smt {

Aig::Aig()
{
    // Node 0: the constant (lit 0 = false, lit 1 = true).
    _nodes.push_back(Node{kVarMark, 0});
}

AigLit
Aig::newVar()
{
    uint32_t n = static_cast<uint32_t>(_nodes.size());
    _nodes.push_back(Node{kVarMark, 1});
    return n << 1;
}

bool
Aig::isVar(uint32_t n) const
{
    return n != 0 && _nodes[n].a == kVarMark;
}

bool
Aig::isAnd(uint32_t n) const
{
    return n != 0 && _nodes[n].a != kVarMark;
}

AigLit
Aig::andOf(AigLit a, AigLit b)
{
    // Local simplifications.
    if (a == kAigFalse || b == kAigFalse)
        return kAigFalse;
    if (a == kAigTrue)
        return b;
    if (b == kAigTrue)
        return a;
    if (a == b)
        return a;
    if (a == aigNot(b))
        return kAigFalse;

    if (a > b)
        std::swap(a, b);
    uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    // The key is the exact fan-in pair, so it names at most one node.
    auto [it, fresh] =
        _hash.try_emplace(key, static_cast<uint32_t>(_nodes.size()));
    if (fresh)
        _nodes.push_back(Node{a, b});
    return it->second << 1;
}

AigLit
Aig::xorOf(AigLit a, AigLit b)
{
    // a ^ b = ~(~( a & ~b ) & ~( ~a & b ))
    return aigNot(andOf(aigNot(andOf(a, aigNot(b))),
                        aigNot(andOf(aigNot(a), b))));
}

AigLit
Aig::mux(AigLit cond, AigLit then_l, AigLit else_l)
{
    if (cond == kAigTrue)
        return then_l;
    if (cond == kAigFalse)
        return else_l;
    if (then_l == else_l)
        return then_l;
    return aigNot(andOf(aigNot(andOf(cond, then_l)),
                        aigNot(andOf(aigNot(cond), else_l))));
}

// ---------------------------------------------------------------------
// Word-level operators
// ---------------------------------------------------------------------

Word
wordConst(uint64_t value, uint32_t width)
{
    Word w(width, kAigFalse);
    for (uint32_t i = 0; i < width && i < 64; ++i) {
        if ((value >> i) & 1u)
            w[i] = kAigTrue;
    }
    return w;
}

Word
wordNot(Aig &, const Word &a)
{
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = aigNot(a[i]);
    return out;
}

Word
wordAnd(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordAnd width mismatch");
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = aig.andOf(a[i], b[i]);
    return out;
}

Word
wordOr(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordOr width mismatch");
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = aig.orOf(a[i], b[i]);
    return out;
}

Word
wordXor(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordXor width mismatch");
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = aig.xorOf(a[i], b[i]);
    return out;
}

namespace {

/** Full adder; returns sum, updates carry. */
AigLit
fullAdder(Aig &aig, AigLit a, AigLit b, AigLit &carry)
{
    AigLit sum = aig.xorOf(aig.xorOf(a, b), carry);
    carry = aig.orOf(aig.andOf(a, b),
                     aig.andOf(carry, aig.orOf(a, b)));
    return sum;
}

} // namespace

Word
wordAdd(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordAdd width mismatch");
    Word out(a.size());
    AigLit carry = kAigFalse;
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = fullAdder(aig, a[i], b[i], carry);
    return out;
}

Word
wordSub(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordSub width mismatch");
    // a - b = a + ~b + 1
    Word out(a.size());
    AigLit carry = kAigTrue;
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = fullAdder(aig, a[i], aigNot(b[i]), carry);
    return out;
}

Word
wordNeg(Aig &aig, const Word &a)
{
    Word zero = wordConst(0, static_cast<uint32_t>(a.size()));
    return wordSub(aig, zero, a);
}

Word
wordMul(Aig &aig, const Word &a, const Word &b)
{
    size_t w = a.size();
    check(w == b.size(), "wordMul width mismatch");
    Word acc = wordConst(0, static_cast<uint32_t>(w));
    for (size_t i = 0; i < w; ++i) {
        // acc += (a & {w{b[i]}}) << i
        Word partial(w, kAigFalse);
        for (size_t j = 0; i + j < w; ++j)
            partial[i + j] = aig.andOf(a[j], b[i]);
        acc = wordAdd(aig, acc, partial);
    }
    return acc;
}

namespace {

/** Shared restoring division; returns {quotient, remainder}. */
std::pair<Word, Word>
divRem(Aig &aig, const Word &a, const Word &b)
{
    size_t w = a.size();
    Word quotient(w, kAigFalse);
    Word remainder = wordConst(0, static_cast<uint32_t>(w));
    for (size_t i = w; i-- > 0;) {
        // remainder = (remainder << 1) | a[i]
        Word shifted(w, kAigFalse);
        for (size_t j = 1; j < w; ++j)
            shifted[j] = remainder[j - 1];
        shifted[0] = a[i];
        AigLit ge = wordULe(aig, b, shifted);
        Word diff = wordSub(aig, shifted, b);
        remainder = wordMux(aig, ge, diff, shifted);
        quotient[i] = ge;
    }
    return {quotient, remainder};
}

} // namespace

Word
wordUDiv(Aig &aig, const Word &a, const Word &b)
{
    auto [q, r] = divRem(aig, a, b);
    (void)r;
    // Division by zero: Verilog yields X; the 2-state circuit reads
    // all-ones (matching common synthesis results for a restoring
    // divider).  Our divider naturally produces all-ones for b == 0.
    return q;
}

Word
wordURem(Aig &aig, const Word &a, const Word &b)
{
    auto [q, r] = divRem(aig, a, b);
    (void)q;
    return r;
}

namespace {

Word
shiftVar(Aig &aig, const Word &a, const Word &amount, bool left,
         AigLit fill)
{
    size_t w = a.size();
    Word cur = a;
    // Barrel shifter over the log2 bits of the amount that matter.
    uint32_t stages = 0;
    while ((1ull << stages) < w)
        ++stages;
    for (uint32_t s = 0; s < stages && s < amount.size(); ++s) {
        size_t dist = 1ull << s;
        Word shifted(w, fill);
        for (size_t i = 0; i < w; ++i) {
            if (left) {
                if (i >= dist)
                    shifted[i] = cur[i - dist];
            } else {
                if (i + dist < w)
                    shifted[i] = cur[i + dist];
            }
        }
        Word next(w);
        for (size_t i = 0; i < w; ++i)
            next[i] = aig.mux(amount[s], shifted[i], cur[i]);
        cur = std::move(next);
    }
    // If any higher amount bit is set, the result is all fill bits.
    AigLit overflow = kAigFalse;
    for (size_t s = stages; s < amount.size(); ++s)
        overflow = aig.orOf(overflow, amount[s]);
    // Shifting by >= w within the covered bits: amount == w..2^stages-1
    // is already handled by the stages when w is a power of two; to be
    // exact for non-powers of two, also saturate when amount >= w.
    Word width_const =
        wordConst(w, static_cast<uint32_t>(amount.size()));
    AigLit too_big = wordULe(aig, width_const, amount);
    overflow = aig.orOf(overflow, too_big);
    Word out(w);
    for (size_t i = 0; i < w; ++i)
        out[i] = aig.mux(overflow, fill, cur[i]);
    return out;
}

} // namespace

Word
wordShl(Aig &aig, const Word &a, const Word &amount)
{
    return shiftVar(aig, a, amount, true, kAigFalse);
}

Word
wordLShr(Aig &aig, const Word &a, const Word &amount)
{
    return shiftVar(aig, a, amount, false, kAigFalse);
}

Word
wordAShr(Aig &aig, const Word &a, const Word &amount)
{
    return shiftVar(aig, a, amount, false, a.back());
}

AigLit
wordEq(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordEq width mismatch");
    AigLit eq = kAigTrue;
    for (size_t i = 0; i < a.size(); ++i)
        eq = aig.andOf(eq, aigNot(aig.xorOf(a[i], b[i])));
    return eq;
}

AigLit
wordULt(Aig &aig, const Word &a, const Word &b)
{
    check(a.size() == b.size(), "wordULt width mismatch");
    // Ripple comparator from LSB: lt_i = (~a & b) | (a==b) & lt_{i-1}
    AigLit lt = kAigFalse;
    for (size_t i = 0; i < a.size(); ++i) {
        AigLit bit_lt = aig.andOf(aigNot(a[i]), b[i]);
        AigLit bit_eq = aigNot(aig.xorOf(a[i], b[i]));
        lt = aig.orOf(bit_lt, aig.andOf(bit_eq, lt));
    }
    return lt;
}

AigLit
wordULe(Aig &aig, const Word &a, const Word &b)
{
    return aigNot(wordULt(aig, b, a));
}

AigLit
wordSLt(Aig &aig, const Word &a, const Word &b)
{
    AigLit sa = a.back();
    AigLit sb = b.back();
    AigLit diff_sign = aig.xorOf(sa, sb);
    AigLit ult = wordULt(aig, a, b);
    // Different signs: a < b iff a is negative.
    return aig.mux(diff_sign, sa, ult);
}

AigLit
wordSLe(Aig &aig, const Word &a, const Word &b)
{
    return aigNot(wordSLt(aig, b, a));
}

AigLit
wordRedAnd(Aig &aig, const Word &a)
{
    AigLit acc = kAigTrue;
    for (AigLit l : a)
        acc = aig.andOf(acc, l);
    return acc;
}

AigLit
wordRedOr(Aig &aig, const Word &a)
{
    AigLit acc = kAigFalse;
    for (AigLit l : a)
        acc = aig.orOf(acc, l);
    return acc;
}

AigLit
wordRedXor(Aig &aig, const Word &a)
{
    AigLit acc = kAigFalse;
    for (AigLit l : a)
        acc = aig.xorOf(acc, l);
    return acc;
}

Word
wordMux(Aig &aig, AigLit cond, const Word &t, const Word &e)
{
    check(t.size() == e.size(), "wordMux width mismatch");
    Word out(t.size());
    for (size_t i = 0; i < t.size(); ++i)
        out[i] = aig.mux(cond, t[i], e[i]);
    return out;
}

} // namespace rtlrepair::smt
