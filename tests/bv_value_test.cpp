// Unit and property tests for the 4-state bit-vector Value class.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "bv/packed_value.hpp"
#include "bv/value.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using rtlrepair::Rng;
using rtlrepair::bv::PackedValue;
using rtlrepair::bv::Value;

// Every global allocation in this binary is counted, so a test can
// show that an operation on small values never touches the heap.
namespace {
std::atomic<size_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    ++g_allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

TEST(Value, ConstructorsAndQueries)
{
    EXPECT_EQ(Value::zeros(8).toUint64(), 0u);
    EXPECT_EQ(Value::ones(8).toUint64(), 0xffu);
    EXPECT_EQ(Value::fromUint(8, 0x12).toUint64(), 0x12u);
    EXPECT_TRUE(Value::allX(8).hasX());
    EXPECT_FALSE(Value::zeros(8).hasX());
    EXPECT_TRUE(Value::zeros(8).isZero());
    EXPECT_FALSE(Value::allX(8).isZero());
    EXPECT_TRUE(Value::fromUint(8, 3).isNonZero());
}

TEST(Value, WideValues)
{
    Value v = Value::ones(130);
    EXPECT_EQ(v.width(), 130u);
    EXPECT_EQ(v.bit(129), 1);
    EXPECT_EQ((~v).bit(129), 0);
    Value inc = v + Value::fromUint(130, 1);
    EXPECT_TRUE(inc.isZero()) << "all-ones + 1 wraps to zero";
}

TEST(Value, FromUintMasksExcessBits)
{
    EXPECT_EQ(Value::fromUint(4, 0xff).toUint64(), 0xfu);
}

TEST(Value, ParseVerilogBinary)
{
    Value v = Value::parseVerilog("4'b10x1");
    EXPECT_EQ(v.width(), 4u);
    EXPECT_EQ(v.bit(0), 1);
    EXPECT_EQ(v.bit(1), -1);
    EXPECT_EQ(v.bit(2), 0);
    EXPECT_EQ(v.bit(3), 1);
    EXPECT_EQ(v.toBinaryString(), "10x1");
}

TEST(Value, ParseVerilogHexDecimalOctal)
{
    EXPECT_EQ(Value::parseVerilog("8'hff").toUint64(), 0xffu);
    EXPECT_EQ(Value::parseVerilog("8'hFF").toUint64(), 0xffu);
    EXPECT_EQ(Value::parseVerilog("12'o777").toUint64(), 0x1ffu);
    EXPECT_EQ(Value::parseVerilog("5'd31").toUint64(), 31u);
    EXPECT_EQ(Value::parseVerilog("42").width(), 32u);
    EXPECT_EQ(Value::parseVerilog("42").toUint64(), 42u);
    EXPECT_EQ(Value::parseVerilog("8'b1010_1010").toUint64(), 0xaau);
    EXPECT_EQ(Value::parseVerilog("4'sd3").toUint64(), 3u);
}

TEST(Value, ParseVerilogXExtension)
{
    // A leading x digit extends through the remaining bits.
    Value v = Value::parseVerilog("8'bx1");
    EXPECT_EQ(v.bit(0), 1);
    for (uint32_t i = 1; i < 8; ++i)
        EXPECT_EQ(v.bit(i), -1) << i;
}

TEST(Value, ParseVerilogRejectsMalformed)
{
    EXPECT_THROW(Value::parseVerilog(""), rtlrepair::FatalError);
    EXPECT_THROW(Value::parseVerilog("4'q10"), rtlrepair::FatalError);
    EXPECT_THROW(Value::parseVerilog("4'b2"), rtlrepair::FatalError);
    EXPECT_THROW(Value::parseVerilog("x4"), rtlrepair::FatalError);
}

TEST(Value, ZExtSExtSlice)
{
    Value v = Value::fromUint(4, 0b1010);
    EXPECT_EQ(v.zext(8).toUint64(), 0b1010u);
    EXPECT_EQ(v.sext(8).toUint64(), 0b11111010u);
    EXPECT_EQ(v.slice(3, 1).toUint64(), 0b101u);
    EXPECT_EQ(v.slice(0, 0).toUint64(), 0u);
    EXPECT_EQ(v.resize(8), v.zext(8));
    EXPECT_EQ(v.resize(3), v.slice(2, 0));
    EXPECT_EQ(v.resize(4), v);
    Value x = Value::parseVerilog("4'b1x01");
    EXPECT_EQ(x.resize(6).toBinaryString(), "001x01");
    EXPECT_EQ(x.resize(3).toBinaryString(), "x01");
}

TEST(Value, ConcatAndReplicate)
{
    Value hi = Value::fromUint(4, 0xa);
    Value lo = Value::fromUint(4, 0x5);
    EXPECT_EQ(hi.concat(lo).toUint64(), 0xa5u);
    EXPECT_EQ(Value::fromUint(2, 0b10).replicate(3).toUint64(),
              0b101010u);
}

TEST(Value, BitwiseDominanceRules)
{
    Value x = Value::allX(1);
    Value zero = Value::fromUint(1, 0);
    Value one = Value::fromUint(1, 1);
    // 0 & X = 0, 1 & X = X
    EXPECT_TRUE((zero & x).isZero());
    EXPECT_TRUE((one & x).hasX());
    // 1 | X = 1, 0 | X = X
    EXPECT_TRUE((one | x).isNonZero());
    EXPECT_TRUE((zero | x).hasX());
    // X ^ anything = X
    EXPECT_TRUE((one ^ x).hasX());
    EXPECT_TRUE((~x).hasX());
}

TEST(Value, ArithmeticIsAllXOnUnknown)
{
    Value x = Value::allX(8);
    Value v = Value::fromUint(8, 5);
    EXPECT_EQ((v + x).toBinaryString(), "xxxxxxxx");
    EXPECT_EQ((v * x).toBinaryString(), "xxxxxxxx");
    EXPECT_EQ(v.udiv(Value::zeros(8)).toBinaryString(), "xxxxxxxx")
        << "division by zero yields X";
}

TEST(Value, Shifts)
{
    Value v = Value::fromUint(8, 0b10010110);
    EXPECT_EQ(v.shl(Value::fromUint(8, 2)).toUint64(), 0b01011000u);
    EXPECT_EQ(v.lshr(Value::fromUint(8, 2)).toUint64(), 0b00100101u);
    EXPECT_EQ(v.ashr(Value::fromUint(8, 2)).toUint64(), 0b11100101u);
    // Shift by more than the width saturates.
    EXPECT_TRUE(v.shl(Value::fromUint(8, 200)).isZero());
    EXPECT_EQ(v.ashr(Value::fromUint(8, 200)).toUint64(), 0xffu);
}

TEST(Value, Comparisons)
{
    Value a = Value::fromUint(8, 5);
    Value b = Value::fromUint(8, 200);
    EXPECT_TRUE(a.ult(b).isNonZero());
    EXPECT_TRUE(a.ule(a).isNonZero());
    EXPECT_TRUE(a.eq(a).isNonZero());
    EXPECT_TRUE(a.ne(b).isNonZero());
    // 200 as signed 8-bit is negative.
    EXPECT_TRUE(b.slt(a).isNonZero());
    EXPECT_TRUE(b.sle(a).isNonZero());
}

TEST(Value, CaseEqComparesXLiterally)
{
    Value x1 = Value::parseVerilog("4'b10x1");
    Value x2 = Value::parseVerilog("4'b10x1");
    Value k = Value::parseVerilog("4'b1011");
    EXPECT_TRUE(x1.caseEq(x2).isNonZero());
    EXPECT_TRUE(x1.caseEq(k).isZero());
    EXPECT_TRUE(x1.eq(k).hasX()) << "logical == with X is X";
}

TEST(Value, Reductions)
{
    EXPECT_TRUE(Value::fromUint(4, 0xf).redAnd().isNonZero());
    EXPECT_TRUE(Value::fromUint(4, 0x7).redAnd().isZero());
    EXPECT_TRUE(Value::fromUint(4, 0x0).redOr().isZero());
    EXPECT_TRUE(Value::fromUint(4, 0x8).redOr().isNonZero());
    EXPECT_TRUE(Value::fromUint(4, 0b0111).redXor().isNonZero());
    EXPECT_TRUE(Value::fromUint(4, 0b0110).redXor().isZero());
    // X short-circuits: a known 0 dominates redAnd even with X bits.
    Value v = Value::parseVerilog("4'b0xx1");
    EXPECT_TRUE(v.redAnd().isZero());
    EXPECT_TRUE(v.redOr().isNonZero());
}

TEST(Value, IteMergesOnXCondition)
{
    Value t = Value::fromUint(4, 0b1010);
    Value e = Value::fromUint(4, 0b1001);
    Value merged = Value::ite(Value::allX(1), t, e);
    EXPECT_EQ(merged.bit(3), 1);  // both arms agree
    EXPECT_EQ(merged.bit(0), -1); // arms disagree
    EXPECT_EQ(Value::ite(Value::fromUint(1, 1), t, e), t);
    EXPECT_EQ(Value::ite(Value::fromUint(1, 0), t, e), e);
}

TEST(Value, MatchesTreatsExpectedXAsDontCare)
{
    Value got = Value::fromUint(4, 0b1010);
    EXPECT_TRUE(got.matches(Value::parseVerilog("4'b1xx0")));
    EXPECT_FALSE(got.matches(Value::parseVerilog("4'b0xx0")));
    // An X in the actual value against a checked bit is a mismatch.
    EXPECT_FALSE(Value::allX(4).matches(Value::fromUint(4, 0)));
    EXPECT_TRUE(Value::allX(4).matches(Value::allX(4)));
}

TEST(Value, XPolicies)
{
    Rng rng(7);
    Value v = Value::parseVerilog("8'b1x0x");
    EXPECT_FALSE(v.xToZero().hasX());
    EXPECT_FALSE(v.xToRandom(rng).hasX());
    EXPECT_EQ(v.xToZero().bit(2), 0);
}

// ---------------------------------------------------------------------
// Property sweep: Value arithmetic agrees with native uint64 semantics
// for random operands across several widths.
// ---------------------------------------------------------------------

class ValueArithProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ValueArithProperty, MatchesNativeArithmetic)
{
    uint32_t width = GetParam();
    uint64_t mask =
        width >= 64 ? ~0ull : ((1ull << width) - 1);
    Rng rng(width * 977 + 13);
    for (int iter = 0; iter < 500; ++iter) {
        uint64_t a = rng.next() & mask;
        uint64_t b = rng.next() & mask;
        Value va = Value::fromUint(width, a);
        Value vb = Value::fromUint(width, b);
        EXPECT_EQ((va + vb).toUint64(), (a + b) & mask);
        EXPECT_EQ((va - vb).toUint64(), (a - b) & mask);
        EXPECT_EQ((va * vb).toUint64(), (a * b) & mask);
        EXPECT_EQ((va & vb).toUint64(), a & b);
        EXPECT_EQ((va | vb).toUint64(), a | b);
        EXPECT_EQ((va ^ vb).toUint64(), a ^ b);
        EXPECT_EQ((~va).toUint64(), ~a & mask);
        EXPECT_EQ(va.ult(vb).isNonZero(), a < b);
        EXPECT_EQ(va.ule(vb).isNonZero(), a <= b);
        EXPECT_EQ(va.eq(vb).isNonZero(), a == b);
        if (b != 0) {
            EXPECT_EQ(va.udiv(vb).toUint64(), a / b);
            EXPECT_EQ(va.urem(vb).toUint64(), a % b);
        }
        uint64_t sh = rng.below(width + 4);
        Value amount = Value::fromUint(std::max(width, 8u), sh);
        EXPECT_EQ(va.shl(amount).toUint64(),
                  sh >= width ? 0 : (a << sh) & mask);
        EXPECT_EQ(va.lshr(amount).toUint64(),
                  sh >= width ? 0 : a >> sh);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ValueArithProperty,
                         ::testing::Values(1u, 4u, 8u, 13u, 16u, 31u,
                                           32u, 48u, 64u));

// Wide-width property: algebraic identities hold beyond 64 bits.
class ValueWideProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ValueWideProperty, AlgebraicIdentities)
{
    uint32_t width = GetParam();
    Rng rng(width);
    for (int iter = 0; iter < 100; ++iter) {
        Value a = Value::random(width, rng);
        Value b = Value::random(width, rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ(a ^ (a ^ b), b);
        EXPECT_EQ(a.negate() + a, Value::zeros(width));
        EXPECT_TRUE(a.eq(a).isNonZero());
        EXPECT_EQ((a & b) | (a & ~b), a);
        // Division identity: a = q*b + r with r < b.
        if (b.isNonZero()) {
            Value q = a.udiv(b);
            Value r = a.urem(b);
            EXPECT_EQ(q * b + r, a);
            EXPECT_TRUE(r.ult(b).isNonZero());
        }
        // slice-concat round trip
        if (width >= 2) {
            uint32_t cut = 1 + static_cast<uint32_t>(
                                   rng.below(width - 1));
            Value high = a.slice(width - 1, cut);
            Value low = a.slice(cut - 1, 0);
            EXPECT_EQ(high.concat(low), a);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WideWidths, ValueWideProperty,
                         ::testing::Values(65u, 100u, 128u, 200u));

// --- Storage layout: inline up to 64 bits, one heap block beyond ---

static_assert(sizeof(Value) == 24, "Value is width + two inline words");
static_assert(sizeof(PackedValue) == 24, "PackedValue shares the layout");

namespace {

/** A random value of @p width with about a quarter of its bits X. */
Value
mixedValue(uint32_t width, Rng &rng)
{
    Value v = Value::random(width, rng);
    for (uint32_t i = 0; i < width; ++i) {
        if (rng.below(4) == 0)
            v.setBit(i, -1);
    }
    return v;
}

const uint32_t kLayoutWidths[] = {1, 63, 64, 65, 128, 1000};

} // namespace

TEST(ValueLayout, CopyMoveSelfAssignAndSwap)
{
    Rng rng(41);
    for (uint32_t w : kLayoutWidths) {
        SCOPED_TRACE(w);
        Value a = mixedValue(w, rng);
        Value b = mixedValue(w, rng);
        const Value a0 = a, b0 = b;

        Value copy(a);
        EXPECT_EQ(copy, a0);
        copy.setBit(0, copy.bit(0) == 1 ? 0 : 1);
        EXPECT_EQ(a, a0) << "a copy owns its own planes";

        Value assigned = Value::zeros(w);
        assigned = a;
        EXPECT_EQ(assigned, a0);

        Value &alias = a;
        a = alias;
        EXPECT_EQ(a, a0) << "self copy-assignment";
        a = std::move(alias);
        EXPECT_EQ(a, a0) << "self move-assignment";

        using std::swap;
        swap(a, b);
        EXPECT_EQ(a, b0);
        EXPECT_EQ(b, a0);
        swap(a, b);

        Value moved(std::move(assigned));
        EXPECT_EQ(moved, a0);
        Value target = Value::ones(7);
        target = std::move(moved);
        EXPECT_EQ(target, a0);
    }
}

TEST(ValueLayout, AssignmentCrossesTheInlineHeapBoundary)
{
    Rng rng(43);
    for (uint32_t small : {1u, 63u, 64u}) {
        for (uint32_t wide : {65u, 128u, 1000u}) {
            SCOPED_TRACE(std::to_string(small) + "/" +
                         std::to_string(wide));
            const Value s = mixedValue(small, rng);
            const Value l = mixedValue(wide, rng);

            Value v = s;
            v = l;  // inline -> heap
            EXPECT_EQ(v, l);
            v = s;  // heap -> inline
            EXPECT_EQ(v, s);

            Value m = l;
            Value tmp = s;
            m = std::move(tmp);
            EXPECT_EQ(m, s);
            tmp = l;
            m = std::move(tmp);
            EXPECT_EQ(m, l);

            Value x = s, y = l;
            using std::swap;
            swap(x, y);
            EXPECT_EQ(x, l);
            EXPECT_EQ(y, s);
        }
    }
    // Same number of words, different widths: the block is reused and
    // the width must follow the source.
    for (auto [from, to] : {std::pair{1u, 64u}, {64u, 1u}, {65u, 128u},
                            {128u, 65u}}) {
        Value v = mixedValue(from, rng);
        const Value src = mixedValue(to, rng);
        v = src;
        EXPECT_EQ(v, src) << from << " <- " << to;
    }
}

TEST(ValueLayout, MovedFromIsAUsableOneBitZero)
{
    Rng rng(47);
    for (uint32_t w : kLayoutWidths) {
        SCOPED_TRACE(w);
        Value src = mixedValue(w, rng);
        Value dst(std::move(src));
        EXPECT_EQ(src, Value()); // NOLINT(bugprone-use-after-move)
        EXPECT_EQ(src.width(), 1u);
        EXPECT_TRUE(src.isZero());
        EXPECT_EQ((src | Value::ones(1)).toUint64(), 1u);

        Value other = Value::ones(w);
        other = std::move(dst);
        EXPECT_EQ(dst, Value()); // NOLINT(bugprone-use-after-move)
        dst = Value::allX(w);
        EXPECT_EQ(dst, Value::allX(w)) << "moved-from accepts a new value";
    }
}

TEST(ValueLayout, SmallValueOperationsDoNotAllocate)
{
    Rng rng(53);
    for (uint32_t w : {1u, 8u, 63u, 64u}) {
        SCOPED_TRACE(w);
        Value a = Value::random(w, rng);
        Value b = mixedValue(w, rng);
        Value cond = Value::fromUint(1, 1);
        Value xcond = Value::allX(1);

        size_t before = g_allocations.load();
        Value copy = a;
        Value moved = std::move(copy);
        copy = b;
        Value t = Value::ite(cond, a, b);
        Value m = Value::ite(xcond, a, b);
        Value sum = a + moved;
        Value part = a.slice(w - 1, w / 2);
        size_t after = g_allocations.load();

        EXPECT_EQ(after, before);
        EXPECT_EQ(t, a);
        EXPECT_EQ(m.width(), w);
        EXPECT_EQ(sum, a + a);
        EXPECT_EQ(part.width(), w - w / 2);
    }
}

TEST(ValueLayout, WideValuesHoldOneHeapBlock)
{
    Value a = Value::ones(65);
    size_t before = g_allocations.load();
    Value copy = a;
    size_t after = g_allocations.load();
    EXPECT_EQ(after - before, 1u) << "both planes share one block";
    Value moved = std::move(copy);
    EXPECT_EQ(g_allocations.load(), after) << "a move steals the block";
    EXPECT_EQ(moved, a);
}

TEST(PackedValueLayout, CopyAndMove)
{
    Rng rng(59);
    for (uint32_t w : {1u, 2u, 65u}) {
        SCOPED_TRACE(w);
        std::vector<Value> lanes;
        for (uint32_t l = 0; l < PackedValue::kLanes; ++l)
            lanes.push_back(mixedValue(w, rng));
        const PackedValue p = PackedValue::pack(lanes, w);

        PackedValue copy(p);
        EXPECT_EQ(copy.laneEq(p), ~0ull);
        copy.setLane(3, Value::zeros(w));
        EXPECT_EQ(p.lane(3), lanes[3]) << "a copy owns its own planes";

        PackedValue assigned = PackedValue::zeros(7);
        assigned = p;
        EXPECT_EQ(assigned.laneEq(p), ~0ull);

        PackedValue moved(std::move(assigned));
        EXPECT_EQ(moved.laneEq(p), ~0ull);
        EXPECT_EQ(assigned.width(), 1u); // NOLINT(bugprone-use-after-move)
        EXPECT_EQ(assigned.laneZero(), ~0ull);

        PackedValue target = PackedValue::allX(3);
        target = std::move(moved);
        for (uint32_t l = 0; l < PackedValue::kLanes; ++l)
            EXPECT_EQ(target.lane(l), lanes[l]);
    }
}

TEST(PackedValueLayout, OneBitOperationsDoNotAllocate)
{
    std::vector<Value> lanes;
    for (uint32_t l = 0; l < PackedValue::kLanes; ++l)
        lanes.push_back(Value::fromUint(1, l % 3 == 0));
    PackedValue c = PackedValue::pack(lanes, 1);
    PackedValue ones = PackedValue::broadcast(Value::ones(1));

    size_t before = g_allocations.load();
    PackedValue copy = c;
    PackedValue r = PackedValue::ite(copy, ones, ~ones);
    PackedValue e = (c & ones).eq(c);
    Value lane = r.lane(3);
    size_t after = g_allocations.load();

    EXPECT_EQ(after, before);
    EXPECT_EQ(lane.toUint64(), 1u);
    EXPECT_EQ(e.laneTrue(), ~0ull);
}
