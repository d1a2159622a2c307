// Tests for gate-level lowering and simulation.
#include <gtest/gtest.h>

#include "elaborate/elaborate.hpp"
#include "gates/gate_sim.hpp"
#include "sim/interpreter.hpp"
#include "util/rng.hpp"
#include "verilog/parser.hpp"

using namespace rtlrepair;
using bv::Value;

TEST(Gates, CombinationalAgreesWithInterpreter)
{
    auto file = verilog::parse(R"(
        module m (input [7:0] a, input [7:0] b, output [7:0] y,
                  output gt);
            assign y = (a ^ b) + (a & b);
            assign gt = a > b;
        endmodule
    )");
    ir::TransitionSystem sys = elaborate::elaborate(file);
    gates::GateNetlist net = gates::lower(sys);
    EXPECT_GT(net.numGates(), 10u);

    gates::GateSimulator gsim(net);
    sim::Interpreter interp(sys, {sim::XPolicy::Zero,
                                  sim::XPolicy::Zero, 1});
    Rng rng(11);
    for (int iter = 0; iter < 50; ++iter) {
        Value a = Value::random(8, rng);
        Value b = Value::random(8, rng);
        gsim.setInput(0, a);
        gsim.setInput(1, b);
        gsim.evalCycle();
        interp.setInput(0, a);
        interp.setInput(1, b);
        interp.evalCycle();
        EXPECT_EQ(gsim.output(0), interp.output(0));
        EXPECT_EQ(gsim.output(1), interp.output(1));
    }
}

TEST(Gates, SequentialReplayMatchesGoldenTrace)
{
    auto file = verilog::parse(R"(
        module m (input clk, input rst, input [3:0] d,
                  output reg [7:0] acc);
            always @(posedge clk) begin
                if (rst) acc <= 8'd0;
                else acc <= acc + d;
            end
        endmodule
    )");
    ir::TransitionSystem sys = elaborate::elaborate(file);

    trace::StimulusBuilder sb({{"rst", 1}, {"d", 4}});
    sb.set("rst", 1).set("d", 0).step(2);
    sb.set("rst", 0).set("d", 5).step(6);
    trace::IoTrace io = sim::record(
        sys, sb.finish(),
        {sim::XPolicy::Keep, sim::XPolicy::Keep, 1});

    gates::GateNetlist net = gates::lower(sys);
    sim::ReplayResult r = gates::gateReplay(net, io);
    EXPECT_TRUE(r.passed) << "failed at " << r.first_failure;
}

TEST(Gates, GateLevelCatchesWrongNetlist)
{
    auto golden = verilog::parse(R"(
        module m (input clk, input rst, output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= q + 1;
            end
        endmodule
    )");
    auto buggy = verilog::parse(R"(
        module m (input clk, input rst, output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= q + 2;
            end
        endmodule
    )");
    ir::TransitionSystem gsys = elaborate::elaborate(golden);
    ir::TransitionSystem bsys = elaborate::elaborate(buggy);

    trace::StimulusBuilder sb({{"rst", 1}});
    sb.set("rst", 1).step(2);
    sb.set("rst", 0).step(5);
    trace::IoTrace io = sim::record(
        gsys, sb.finish(),
        {sim::XPolicy::Keep, sim::XPolicy::Keep, 1});

    EXPECT_TRUE(gates::gateReplay(gates::lower(gsys), io).passed);
    sim::ReplayResult r = gates::gateReplay(gates::lower(bsys), io);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.first_failure, 3u)
        << "first divergence one cycle after the first increment";
}

TEST(Gates, LoweringRejectsSynthVars)
{
    // Only finished designs are lowered: an instrumented system's
    // synthesis variables have no gate-level meaning.
    auto file = verilog::parse(R"(
        module m (input [3:0] a, output [3:0] y);
            assign y = __synth_phi_0 ? __synth_alpha_1 : a;
        endmodule
    )");
    elaborate::ElaborateOptions opts;
    opts.synth_vars.push_back({"__synth_phi_0", 1, true});
    opts.synth_vars.push_back({"__synth_alpha_1", 4, false});
    ir::TransitionSystem sys = elaborate::elaborate(file.top(), opts);
    EXPECT_THROW(gates::lower(sys), PanicError);
}
