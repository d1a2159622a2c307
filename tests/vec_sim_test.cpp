// Equivalence suite for the bit-parallel vectorized simulation
// backend (src/bv/packed_value.*, src/sim/vec_sim.*).
//
// The contract under test: lane L of any vectorized run is bit-exact
// with an independent scalar run of lane L's stimulus.  Three layers:
//
//  1. PackedValue ops against bv::Value, lane for lane, on random
//     X-bearing operands across word-boundary widths;
//  2. 64-lane vecEventRecordBatch / vecEventReplayBatch against 64
//     independent event-simulator runs over random generated modules;
//  3. the full benchmark registry: the vec backend must reproduce the
//     event simulator's golden trace digest for every recording
//     (Registry/* cases, run as their own ctest shards).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/const_eval.hpp"
#include "benchmarks/registry.hpp"
#include "bv/packed_value.hpp"
#include "fuzz/generator.hpp"
#include "sim/event_sim.hpp"
#include "sim/vec_sim.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "verilog/parser.hpp"
#include "registry_recordings.hpp"

using namespace rtlrepair;
using bv::PackedValue;
using bv::Value;
using testsupport::Recording;
using testsupport::recordingName;
using testsupport::registryRecordings;

namespace {

Value
randomValue(Rng &rng, uint32_t width, bool allow_x)
{
    Value v = Value::zeros(width);
    for (uint32_t i = 0; i < width; ++i) {
        uint64_t r = rng.below(allow_x ? 3u : 2u);
        v.setBit(i, r == 2 ? -1 : static_cast<int>(r));
    }
    return v;
}

std::vector<Value>
randomLanes(Rng &rng, uint32_t lanes, uint32_t width, bool allow_x)
{
    std::vector<Value> out;
    out.reserve(lanes);
    for (uint32_t l = 0; l < lanes; ++l)
        out.push_back(randomValue(rng, width, allow_x));
    return out;
}

/** Expect packed.lane(l) == expected for every lane. */
void
expectLanes(const PackedValue &packed, const std::vector<Value> &want,
            const char *op)
{
    ASSERT_EQ(packed.width(), want[0].width()) << op;
    for (uint32_t l = 0; l < want.size(); ++l) {
        EXPECT_TRUE(packed.lane(l) == want[l])
            << op << " lane " << l << ": packed="
            << packed.lane(l).toBinaryString()
            << " scalar=" << want[l].toBinaryString();
    }
}

/** FNV-1a 64 over the CSV form of the trace (golden_trace_test). */
uint64_t
digest(const trace::IoTrace &tb)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : tb.toCsv()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
maskHidden(trace::IoTrace &tb, const std::vector<std::string> &hidden)
{
    for (const auto &name : hidden) {
        int idx = tb.outputIndex(name);
        if (idx < 0)
            continue;
        for (auto &row : tb.output_rows)
            row[idx] = Value::allX(row[idx].width());
    }
}

} // namespace

TEST(PackedValue, PackLaneRoundTrip)
{
    Rng rng(0x9a21);
    for (uint32_t width : {1u, 7u, 32u, 64u, 65u, 128u}) {
        std::vector<Value> vals = randomLanes(rng, 64, width, true);
        PackedValue p = PackedValue::pack(vals, width);
        expectLanes(p, vals, "pack/lane");
        // Missing lanes pack as all-X.
        PackedValue partial = PackedValue::pack(
            std::vector<Value>(vals.begin(), vals.begin() + 3), width);
        EXPECT_TRUE(partial.lane(7) == Value::allX(width));
        // setLane overwrites exactly one lane.
        Value nv = randomValue(rng, width, true);
        p.setLane(11, nv);
        EXPECT_TRUE(p.lane(11) == nv);
        EXPECT_TRUE(p.lane(12) == vals[12]);
    }
}

TEST(PackedValue, BroadcastMatchesEveryLane)
{
    Rng rng(0x5b11);
    Value v = randomValue(rng, 77, true);
    PackedValue p = PackedValue::broadcast(v);
    for (uint32_t l = 0; l < PackedValue::kLanes; l += 13)
        EXPECT_TRUE(p.lane(l) == v);
}

TEST(PackedValue, OpsMatchScalarLaneForLane)
{
    Rng rng(0xbadc0de5);
    const uint32_t kWidths[] = {1,  2,  3,  7,  8,  16, 31, 32,
                                33, 63, 64, 65, 100, 128};
    for (int trial = 0; trial < 160; ++trial) {
        uint32_t w = kWidths[rng.below(std::size(kWidths))];
        uint32_t lanes =
            trial % 4 == 0 ? 1 + static_cast<uint32_t>(rng.below(64))
                           : 64;
        // A quarter of the trials are fully-known operands so the
        // known-value datapath is not drowned in X-propagation.
        bool allow_x = trial % 4 != 1;
        std::vector<Value> a = randomLanes(rng, lanes, w, allow_x);
        std::vector<Value> b = randomLanes(rng, lanes, w, allow_x);
        PackedValue pa = PackedValue::pack(a, w);
        PackedValue pb = PackedValue::pack(b, w);

        auto lanewise = [&](auto &&fn) {
            std::vector<Value> out;
            out.reserve(lanes);
            for (uint32_t l = 0; l < lanes; ++l)
                out.push_back(fn(a[l], b[l]));
            return out;
        };
        auto probe = [&](const PackedValue &got, auto &&fn,
                         const char *op) {
            expectLanes(got, lanewise(fn), op);
        };

        probe(~pa, [](const Value &x, const Value &) { return ~x; },
              "~");
        probe(pa & pb,
              [](const Value &x, const Value &y) { return x & y; },
              "&");
        probe(pa | pb,
              [](const Value &x, const Value &y) { return x | y; },
              "|");
        probe(pa ^ pb,
              [](const Value &x, const Value &y) { return x ^ y; },
              "^");
        probe(pa + pb,
              [](const Value &x, const Value &y) { return x + y; },
              "+");
        probe(pa - pb,
              [](const Value &x, const Value &y) { return x - y; },
              "-");
        probe(pa * pb,
              [](const Value &x, const Value &y) { return x * y; },
              "*");
        probe(pa.udiv(pb),
              [](const Value &x, const Value &y) { return x.udiv(y); },
              "udiv");
        probe(pa.urem(pb),
              [](const Value &x, const Value &y) { return x.urem(y); },
              "urem");
        probe(pa.negate(),
              [](const Value &x, const Value &) { return x.negate(); },
              "negate");
        probe(pa.shl(pb),
              [](const Value &x, const Value &y) { return x.shl(y); },
              "shl");
        probe(pa.lshr(pb),
              [](const Value &x, const Value &y) { return x.lshr(y); },
              "lshr");
        probe(pa.ashr(pb),
              [](const Value &x, const Value &y) { return x.ashr(y); },
              "ashr");
        probe(pa.eq(pb),
              [](const Value &x, const Value &y) { return x.eq(y); },
              "eq");
        probe(pa.ne(pb),
              [](const Value &x, const Value &y) { return x.ne(y); },
              "ne");
        probe(pa.ult(pb),
              [](const Value &x, const Value &y) { return x.ult(y); },
              "ult");
        probe(pa.ule(pb),
              [](const Value &x, const Value &y) { return x.ule(y); },
              "ule");
        probe(pa.slt(pb),
              [](const Value &x, const Value &y) { return x.slt(y); },
              "slt");
        probe(pa.sle(pb),
              [](const Value &x, const Value &y) { return x.sle(y); },
              "sle");
        probe(pa.caseEq(pb),
              [](const Value &x, const Value &y) {
                  return x.caseEq(y);
              },
              "caseEq");
        probe(pa.redAnd(),
              [](const Value &x, const Value &) { return x.redAnd(); },
              "redAnd");
        probe(pa.redOr(),
              [](const Value &x, const Value &) { return x.redOr(); },
              "redOr");
        probe(pa.redXor(),
              [](const Value &x, const Value &) { return x.redXor(); },
              "redXor");
        probe(pa.zext(w + 5),
              [&](const Value &x, const Value &) {
                  return x.zext(w + 5);
              },
              "zext");
        probe(pa.sext(w + 5),
              [&](const Value &x, const Value &) {
                  return x.sext(w + 5);
              },
              "sext");
        uint32_t lo = static_cast<uint32_t>(rng.below(w));
        uint32_t hi =
            lo + static_cast<uint32_t>(rng.below(w - lo));
        probe(pa.slice(hi, lo),
              [&](const Value &x, const Value &) {
                  return x.slice(hi, lo);
              },
              "slice");
        probe(pa.concat(pb),
              [](const Value &x, const Value &y) {
                  return x.concat(y);
              },
              "concat");
        uint32_t reps = 1 + static_cast<uint32_t>(rng.below(3));
        if (w * reps <= 256) {
            probe(pa.replicate(reps),
                  [&](const Value &x, const Value &) {
                      return x.replicate(reps);
                  },
                  "replicate");
        }

        std::vector<Value> conds = randomLanes(rng, lanes, 1, allow_x);
        PackedValue pc = PackedValue::pack(conds, 1);
        {
            std::vector<Value> want;
            for (uint32_t l = 0; l < lanes; ++l)
                want.push_back(Value::ite(conds[l], a[l], b[l]));
            expectLanes(PackedValue::ite(pc, pa, pb), want, "ite");
        }

        // Predicates against their scalar definitions.
        uint64_t matches = pa.laneMatches(pb);
        uint64_t eq_mask = pa.laneEq(pb);
        for (uint32_t l = 0; l < lanes; ++l) {
            EXPECT_EQ((matches >> l) & 1, a[l].matches(b[l]) ? 1u : 0u)
                << "laneMatches lane " << l;
            EXPECT_EQ((eq_mask >> l) & 1, a[l] == b[l] ? 1u : 0u)
                << "laneEq lane " << l;
            if (w <= 64 && !a[l].hasX()) {
                EXPECT_EQ((pa.laneEqUint(a[l].toUint64()) >> l) & 1,
                          1u)
                    << "laneEqUint lane " << l;
            }
        }
    }
}

TEST(VecEventSim, GenModules64LanesMatchScalarRecord)
{
    for (uint64_t design_seed : {3u, 17u, 4242u}) {
        SCOPED_TRACE("gen:" + std::to_string(design_seed));
        fuzz::GeneratedDesign gen = fuzz::generateDesign(design_seed);
        verilog::SourceFile file = verilog::parse(gen.source);
        const verilog::Module &mod = file.top();

        std::vector<trace::InputSequence> stims;
        for (uint64_t l = 0; l < 64; ++l) {
            stims.push_back(
                fuzz::generateStimulus(gen, 24, 1000 + l));
        }
        std::vector<const trace::InputSequence *> ptrs;
        for (const auto &s : stims)
            ptrs.push_back(&s);

        std::vector<trace::IoTrace> vec =
            sim::vecEventRecordBatch(mod, {}, gen.clock, ptrs);
        ASSERT_EQ(vec.size(), 64u);
        for (size_t l = 0; l < 64; ++l) {
            trace::IoTrace scalar =
                sim::eventRecord(mod, {}, gen.clock, stims[l]);
            EXPECT_EQ(vec[l].toCsv(), scalar.toCsv())
                << "lane " << l << " diverges from its scalar run";
        }
    }
}

TEST(VecEventSim, ReplayVerdictsMatchScalarPerLane)
{
    fuzz::GeneratedDesign gen = fuzz::generateDesign(99);
    verilog::SourceFile file = verilog::parse(gen.source);
    const verilog::Module &mod = file.top();

    // Record 64 scalar traces, then corrupt a bit in most lanes at a
    // lane-dependent cycle so the batch has passes, early failures,
    // and late failures side by side.
    std::vector<trace::IoTrace> traces;
    for (uint64_t l = 0; l < 64; ++l) {
        trace::IoTrace tb = sim::eventRecord(
            mod, {}, gen.clock,
            fuzz::generateStimulus(gen, 20, 7000 + l));
        if (l % 3 != 0 && tb.length() > 0 &&
            !tb.output_rows[0].empty()) {
            size_t cycle = l % tb.length();
            Value &cell = tb.output_rows[cycle][l % tb.outputs.size()];
            cell.setBit(0, cell.bit(0) == 1 ? 0 : 1);
        }
        traces.push_back(std::move(tb));
    }
    std::vector<const trace::IoTrace *> ptrs;
    for (const auto &t : traces)
        ptrs.push_back(&t);
    std::vector<sim::ReplayResult> vec =
        sim::vecEventReplayBatch(mod, {}, gen.clock, ptrs);
    ASSERT_EQ(vec.size(), 64u);
    for (size_t l = 0; l < 64; ++l) {
        sim::ReplayResult scalar =
            sim::eventReplay(mod, {}, gen.clock, traces[l]);
        EXPECT_EQ(vec[l].passed, scalar.passed) << "lane " << l;
        EXPECT_EQ(vec[l].first_failure, scalar.first_failure)
            << "lane " << l;
        EXPECT_EQ(vec[l].failed_output, scalar.failed_output)
            << "lane " << l;
    }
}

// One case per golden recording (tests/registry_recordings.hpp); the
// cases run as their own ctest shards.
class RegistryRecording : public testing::TestWithParam<Recording>
{
};

TEST_P(RegistryRecording, VecGoldenTraceMatchesEventSim)
{
    const benchmarks::BenchmarkDef &def = *GetParam().bugs.front();
    const benchmarks::LoadedBenchmark &lb = benchmarks::load(def);
    trace::InputSequence stim = benchmarks::makeStimulus(def.stimulus_id);

    trace::IoTrace ev = sim::eventRecord(*lb.golden, lb.golden_lib,
                                         def.clock, stim);
    trace::IoTrace vc = sim::recordTrace(sim::SimBackend::Vec, *lb.golden,
                                         lb.golden_lib, def.clock, stim);
    maskHidden(ev, def.hidden_outputs);
    maskHidden(vc, def.hidden_outputs);
    EXPECT_EQ(digest(vc), digest(ev))
        << def.name << ": vec-backend golden trace diverges from event sim";

    // And the vec replay must accept the event-sim recording.
    sim::ReplayResult rr = sim::replayTrace(
        sim::SimBackend::Vec, *lb.golden, lb.golden_lib, def.clock, ev);
    EXPECT_TRUE(rr.passed)
        << def.name << ": vec replay rejects the golden trace at "
        << rr.first_failure << " (" << rr.failed_output << ")";
}

INSTANTIATE_TEST_SUITE_P(Registry, RegistryRecording,
                         testing::ValuesIn(registryRecordings()),
                         recordingName);

TEST(VecEventSim, RegistryRecordingsCoverEveryBug)
{
    // Every bug is covered by a recording that is compared.
    size_t bugs = 0;
    for (const Recording &rec : registryRecordings())
        bugs += rec.bugs.size();
    EXPECT_EQ(bugs, benchmarks::all().size());
    EXPECT_GE(bugs, 45u);
}

// Lane-for-lane equivalence on the extended synthesizable subset:
// memories (uninitialized words propagate X until each lane's own
// writes land — write masks are per lane), unrolled generate blocks,
// and inlined functions.  Every lane of the vectorized batch must be
// bit-exact with an independent scalar event-simulator run.
TEST(VecEventSim, ExtendedSubsetDesignsMatchScalarLaneForLane)
{
    struct SubsetCase
    {
        const char *name;
        const char *clock;
        const char *src;
    };
    const SubsetCase cases[] = {
        {"memq", "clock", R"(
module memq (input clock, input we, input [1:0] waddr,
             input [1:0] raddr, input [7:0] d,
             output reg [7:0] q);
    reg [7:0] mem [0:3];
    always @(posedge clock) begin
        if (we)
            mem[waddr] <= d;
        q <= mem[raddr];
    end
endmodule
)"},
        {"gendec", "", R"(
module gendec (input [1:0] sel, input en, output [3:0] y);
    genvar i;
    generate
        for (i = 0; i < 4; i = i + 1) begin : g
            wire hit;
            assign hit = (sel == i);
            assign y[i] = en & hit;
        end
    endgenerate
endmodule
)"},
        {"funcacc", "clock", R"(
module funcacc (input clock, input rst, input [7:0] a,
                input [7:0] b, output reg [7:0] acc);
    function [7:0] maxv;
        input [7:0] x;
        input [7:0] y;
        maxv = (x > y) ? x : y;
    endfunction
    always @(posedge clock) begin
        if (rst)
            acc <= 8'd0;
        else
            acc <= acc + maxv(a, b);
    end
endmodule
)"},
    };

    for (const SubsetCase &c : cases) {
        SCOPED_TRACE(c.name);
        verilog::SourceFile file = verilog::parse(c.src);
        const verilog::Module &mod = file.top();

        // Random stimulus per lane over the non-clock inputs; data
        // columns occasionally carry X.
        std::vector<trace::Column> cols;
        for (const auto &port : mod.ports) {
            if (port.dir != verilog::PortDir::Input ||
                port.name == std::string(c.clock))
                continue;
            trace::Column col;
            col.name = port.name;
            col.width = mod.findNet(port.name)->msb
                            ? static_cast<uint32_t>(std::llabs(
                                  analysis::constEvalInt(
                                      *mod.findNet(port.name)->msb,
                                      {}) -
                                  analysis::constEvalInt(
                                      *mod.findNet(port.name)->lsb,
                                      {}))) +
                                  1u
                            : 1u;
            cols.push_back(col);
        }

        Rng rng(0xfeed0 + cols.size());
        std::vector<trace::InputSequence> stims;
        for (uint64_t l = 0; l < 64; ++l) {
            trace::InputSequence stim;
            stim.inputs = cols;
            for (int cycle = 0; cycle < 24; ++cycle) {
                std::vector<Value> row;
                for (const auto &col : cols) {
                    bool allow_x =
                        col.width > 1 && rng.below(8) == 0;
                    row.push_back(
                        randomValue(rng, col.width, allow_x));
                }
                stim.rows.push_back(std::move(row));
            }
            stims.push_back(std::move(stim));
        }
        std::vector<const trace::InputSequence *> ptrs;
        for (const auto &s : stims)
            ptrs.push_back(&s);

        std::vector<trace::IoTrace> vec =
            sim::vecEventRecordBatch(mod, {}, c.clock, ptrs);
        ASSERT_EQ(vec.size(), 64u);
        for (size_t l = 0; l < 64; ++l) {
            trace::IoTrace scalar =
                sim::eventRecord(mod, {}, c.clock, stims[l]);
            EXPECT_EQ(vec[l].toCsv(), scalar.toCsv())
                << "lane " << l << " diverges from its scalar run";
        }

        // Replay must agree on the verdict per lane, too.
        std::vector<const trace::IoTrace *> replay_ptrs;
        for (const auto &t : vec)
            replay_ptrs.push_back(&t);
        std::vector<sim::ReplayResult> verdicts =
            sim::vecEventReplayBatch(mod, {}, c.clock, replay_ptrs);
        for (size_t l = 0; l < 64; ++l) {
            EXPECT_TRUE(verdicts[l].passed)
                << "lane " << l << ": " << verdicts[l].failed_output;
        }
    }
}

TEST(SimBackend, ParseResolveRoundTrip)
{
    using sim::SimBackend;
    EXPECT_EQ(sim::parseSimBackend("auto"), SimBackend::Auto);
    EXPECT_EQ(sim::parseSimBackend("event"), SimBackend::Event);
    EXPECT_EQ(sim::parseSimBackend("vec"), SimBackend::Vec);
    for (SimBackend b :
         {SimBackend::Auto, SimBackend::Event, SimBackend::Vec})
        EXPECT_EQ(sim::parseSimBackend(sim::simBackendName(b)), b);

    // Explicit requests win over the environment.
    ::setenv("RTLREPAIR_SIM", "event", 1);
    EXPECT_EQ(sim::resolveSimBackend(SimBackend::Vec),
              SimBackend::Vec);
    EXPECT_EQ(sim::resolveSimBackend(SimBackend::Auto),
              SimBackend::Event);
    ::setenv("RTLREPAIR_SIM", "vec", 1);
    EXPECT_EQ(sim::resolveSimBackend(SimBackend::Auto),
              SimBackend::Vec);
    ::unsetenv("RTLREPAIR_SIM");
    EXPECT_EQ(sim::resolveSimBackend(SimBackend::Auto),
              SimBackend::Auto);
}
