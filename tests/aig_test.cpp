// Tests for the AIG and its word-level operator library.
#include <gtest/gtest.h>

#include <map>

#include "smt/aig.hpp"
#include "smt/bitblast.hpp"
#include "util/rng.hpp"

using namespace rtlrepair;
using namespace rtlrepair::smt;

namespace {

/** Evaluate an AIG literal under an assignment of variable nodes. */
class Evaluator
{
  public:
    explicit Evaluator(const Aig &aig) : _aig(aig) {}

    void
    setVar(AigLit var_lit, bool value)
    {
        _values[aigNode(var_lit)] = value;
    }

    bool
    eval(AigLit lit)
    {
        bool v = evalNode(aigNode(lit));
        return aigCompl(lit) ? !v : v;
    }

    uint64_t
    evalWord(const Word &w)
    {
        uint64_t out = 0;
        for (size_t i = 0; i < w.size(); ++i) {
            if (eval(w[i]))
                out |= 1ull << i;
        }
        return out;
    }

  private:
    bool
    evalNode(uint32_t node)
    {
        if (node == 0)
            return false;  // the constant node: lit 0 = false
        auto it = _values.find(node);
        if (it != _values.end())
            return it->second;
        if (_aig.isVar(node))
            return false;  // unset variables default to false
        bool v = evalLit(_aig.fanin0(node)) &&
                 evalLit(_aig.fanin1(node));
        _values[node] = v;
        return v;
    }

    bool
    evalLit(AigLit lit)
    {
        bool v = evalNode(aigNode(lit));
        return aigCompl(lit) ? !v : v;
    }

    const Aig &_aig;
    std::map<uint32_t, bool> _values;
};

} // namespace

TEST(Aig, LocalSimplifications)
{
    Aig aig;
    AigLit a = aig.newVar();
    EXPECT_EQ(aig.andOf(a, kAigTrue), a);
    EXPECT_EQ(aig.andOf(kAigFalse, a), kAigFalse);
    EXPECT_EQ(aig.andOf(a, a), a);
    EXPECT_EQ(aig.andOf(a, aigNot(a)), kAigFalse);
    AigLit b = aig.newVar();
    EXPECT_EQ(aig.andOf(a, b), aig.andOf(b, a))
        << "structural hashing is commutative";
    size_t nodes = aig.numNodes();
    AigLit ab = aig.andOf(a, aigNot(b));
    EXPECT_EQ(aig.numNodes(), nodes + 1);
    EXPECT_EQ(aig.andOf(a, aigNot(b)), ab);
    EXPECT_EQ(aig.andOf(aigNot(b), a), ab);
    EXPECT_EQ(aig.numNodes(), nodes + 1)
        << "asking for an existing AND adds no node";
    EXPECT_EQ(aig.mux(kAigTrue, a, b), a);
    EXPECT_EQ(aig.mux(kAigFalse, a, b), b);
    EXPECT_EQ(aig.mux(a, b, b), b);
}

TEST(Aig, WordOperatorsMatchNativeArithmetic)
{
    Rng rng(99);
    for (uint32_t width : {1u, 4u, 8u, 13u, 16u}) {
        Aig aig;
        Word wa = freshWord(aig, width);
        Word wb = freshWord(aig, width);
        Word sum = wordAdd(aig, wa, wb);
        Word diff = wordSub(aig, wa, wb);
        Word prod = wordMul(aig, wa, wb);
        Word quot = wordUDiv(aig, wa, wb);
        Word rem = wordURem(aig, wa, wb);
        Word band = wordAnd(aig, wa, wb);
        Word shl = wordShl(aig, wa, wb);
        Word shr = wordLShr(aig, wa, wb);
        Word sra = wordAShr(aig, wa, wb);
        AigLit eq = wordEq(aig, wa, wb);
        AigLit ult = wordULt(aig, wa, wb);
        AigLit slt = wordSLt(aig, wa, wb);
        AigLit rand_ = wordRedAnd(aig, wa);
        AigLit rxor = wordRedXor(aig, wa);

        uint64_t mask = width >= 64 ? ~0ull : ((1ull << width) - 1);
        for (int iter = 0; iter < 60; ++iter) {
            uint64_t a = rng.next() & mask;
            uint64_t b = rng.next() & mask;
            Evaluator ev(aig);
            for (uint32_t i = 0; i < width; ++i) {
                ev.setVar(wa[i], (a >> i) & 1);
                ev.setVar(wb[i], (b >> i) & 1);
            }
            EXPECT_EQ(ev.evalWord(sum), (a + b) & mask);
            EXPECT_EQ(ev.evalWord(diff), (a - b) & mask);
            EXPECT_EQ(ev.evalWord(prod), (a * b) & mask);
            if (b != 0) {
                EXPECT_EQ(ev.evalWord(quot), a / b);
                EXPECT_EQ(ev.evalWord(rem), a % b);
            }
            EXPECT_EQ(ev.evalWord(band), a & b);
            EXPECT_EQ(ev.evalWord(shl),
                      b >= width ? 0 : (a << b) & mask);
            EXPECT_EQ(ev.evalWord(shr), b >= width ? 0 : a >> b);
            // Arithmetic shift: sign-fill.
            uint64_t sign = (a >> (width - 1)) & 1;
            uint64_t expect_sra;
            if (b >= width) {
                expect_sra = sign ? mask : 0;
            } else {
                expect_sra = a >> b;
                if (sign) {
                    expect_sra |= mask & ~(mask >> b);
                }
            }
            EXPECT_EQ(ev.evalWord(sra), expect_sra)
                << "a=" << a << " b=" << b << " w=" << width;
            EXPECT_EQ(ev.eval(eq), a == b);
            EXPECT_EQ(ev.eval(ult), a < b);
            // Signed comparison at the given width.
            auto to_signed = [&](uint64_t v) {
                int64_t sv = static_cast<int64_t>(v);
                if ((v >> (width - 1)) & 1)
                    sv -= static_cast<int64_t>(mask) + 1;
                return sv;
            };
            EXPECT_EQ(ev.eval(slt), to_signed(a) < to_signed(b));
            EXPECT_EQ(ev.eval(rand_), a == mask);
            EXPECT_EQ(ev.eval(rxor),
                      __builtin_popcountll(a) % 2 == 1);
        }
    }
}

TEST(Aig, MuxWord)
{
    Aig aig;
    Word t = wordConst(0xa, 4);
    Word e = wordConst(0x5, 4);
    AigLit c = aig.newVar();
    Word m = wordMux(aig, c, t, e);
    Evaluator ev1(aig);
    ev1.setVar(c, true);
    EXPECT_EQ(ev1.evalWord(m), 0xau);
    Evaluator ev2(aig);
    ev2.setVar(c, false);
    EXPECT_EQ(ev2.evalWord(m), 0x5u);
}
