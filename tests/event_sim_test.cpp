// Tests for the event-driven simulator: specifically the simulation
// semantics that differ from synthesis semantics.
#include <gtest/gtest.h>

#include "sim/event_sim.hpp"
#include "verilog/parser.hpp"

using namespace rtlrepair;
using bv::Value;
using sim::EventSimulator;
using verilog::parse;

TEST(EventSim, CombinationalSettling)
{
    auto file = parse(R"(
        module m (input a, input b, output y, output z);
            wire mid;
            assign mid = a & b;
            assign y = mid | a;
            assign z = ~y;
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "");
    sim.setInput("a", Value::fromUint(1, 1));
    sim.setInput("b", Value::fromUint(1, 0));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 1u);
    EXPECT_EQ(sim.get("z").toUint64(), 0u);
}

TEST(EventSim, RegistersClockAndReset)
{
    auto file = parse(R"(
        module m (input clk, input rst, output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= q + 1;
            end
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "clk");
    EXPECT_TRUE(sim.get("q").hasX()) << "registers power on as X";
    sim.setInput("rst", Value::fromUint(1, 1));
    sim.step();
    sim.setInput("rst", Value::fromUint(1, 0));
    sim.step();
    sim.step();
    EXPECT_EQ(sim.get("q").toUint64(), 2u);
}

TEST(EventSim, NonBlockingReadsStaleValues)
{
    // The classic two-register swap only works with <=.
    auto file = parse(R"(
        module m (input clk, input load, output reg [3:0] a,
                  output reg [3:0] b);
            always @(posedge clk) begin
                if (load) begin
                    a <= 4'd1;
                    b <= 4'd2;
                end else begin
                    a <= b;
                    b <= a;
                end
            end
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "clk");
    sim.setInput("load", Value::fromUint(1, 1));
    sim.step();
    sim.setInput("load", Value::fromUint(1, 0));
    sim.step();
    EXPECT_EQ(sim.get("a").toUint64(), 2u);
    EXPECT_EQ(sim.get("b").toUint64(), 1u);
}

TEST(EventSim, IncompleteSensitivityKeepsStaleValue)
{
    // Synthesis would treat this as full combinational logic; event
    // simulation must hold the stale value when b changes alone.
    auto file = parse(R"(
        module m (input a, input b, output reg y);
            always @(a) y = a & b;
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "");
    sim.setInput("a", Value::fromUint(1, 1));
    sim.setInput("b", Value::fromUint(1, 1));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 1u);
    // b drops, but the process is not sensitive to b.
    sim.setInput("b", Value::fromUint(1, 0));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 1u) << "stale value held";
    // A change of a re-evaluates.
    sim.setInput("a", Value::fromUint(1, 0));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 0u);
}

TEST(EventSim, DoubleEdgeSensitivityShiftsTwice)
{
    // The shift_k1 shape: posedge or negedge triggers twice per cycle
    // in simulation but synthesizes like a normal rising-edge FF.
    auto file = parse(R"(
        module m (input clk, input rst, output reg [7:0] q);
            always @(posedge clk or negedge clk) begin
                if (rst) q <= 8'd1;
                else q <= {q[6:0], q[7]};
            end
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "clk");
    sim.setInput("rst", Value::fromUint(1, 1));
    sim.step();
    sim.setInput("rst", Value::fromUint(1, 0));
    sim.step();  // falling + rising edge: rotates twice
    EXPECT_EQ(sim.get("q").toUint64(), 4u);
}

TEST(EventSim, IfWithXConditionTakesElse)
{
    auto file = parse(R"(
        module m (input go, output reg [1:0] y);
            reg flag;  // never assigned: stays X
            always @(*) begin
                if (flag) y = 2'd1;
                else y = 2'd2;
            end
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "");
    sim.setInput("go", Value::fromUint(1, 1));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 2u);
}

TEST(EventSim, CaseZWildcards)
{
    auto file = parse(R"(
        module m (input [3:0] s, output reg [1:0] y);
            always @(*) begin
                casez (s)
                    4'b1???: y = 2'd3;
                    4'b01??: y = 2'd2;
                    default: y = 2'd0;
                endcase
            end
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "");
    sim.setInput("s", Value::fromUint(4, 0b1010));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 3u);
    sim.setInput("s", Value::fromUint(4, 0b0110));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 2u);
    sim.setInput("s", Value::fromUint(4, 0b0010));
    sim.step();
    EXPECT_EQ(sim.get("y").toUint64(), 0u);
}

TEST(EventSim, OscillationIsDetected)
{
    // A 4-state fixpoint at X is *stable*; a concrete oscillation
    // needs a known seed first.
    auto file = parse(R"(
        module m (input en, output y);
            wire p;
            assign p = en ? ~p : 1'b0;
            assign y = p;
        endmodule
    )");
    EventSimulator sim(file.top(), {}, "");
    sim.setInput("en", Value::fromUint(1, 0));
    sim.step();
    EXPECT_FALSE(sim.unstable());
    EXPECT_EQ(sim.get("p").toUint64(), 0u);
    sim.setInput("en", Value::fromUint(1, 1));
    sim.step();
    EXPECT_TRUE(sim.unstable());
}

TEST(EventSim, RecordAndReplayAgree)
{
    auto file = parse(R"(
        module m (input clk, input rst, input [3:0] d,
                  output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= d;
            end
        endmodule
    )");
    trace::StimulusBuilder sb({{"rst", 1}, {"d", 4}});
    sb.set("rst", 1).set("d", 0).step(2);
    sb.set("rst", 0).set("d", 9).step(3);
    trace::IoTrace io =
        sim::eventRecord(file.top(), {}, "clk", sb.finish());
    EXPECT_EQ(io.length(), 5u);
    EXPECT_EQ(io.output_rows.back()[0].toUint64(), 9u);
    EXPECT_TRUE(sim::eventReplay(file.top(), {}, "clk", io).passed);
}
