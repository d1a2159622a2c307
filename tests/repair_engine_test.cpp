// Tests for the repair engine: query, minimality, windowing, driver.
#include <gtest/gtest.h>

#include <functional>

#include "repair/driver.hpp"
#include "verilog/ast_util.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

using namespace rtlrepair;
using repair::RepairConfig;
using repair::RepairOutcome;
using verilog::parse;

namespace {

trace::IoTrace
goldenTrace(const char *golden_src,
            const std::function<void(trace::StimulusBuilder &)> &drive,
            const std::vector<trace::Column> &inputs)
{
    auto file = parse(golden_src);
    ir::TransitionSystem sys = elaborate::elaborate(file);
    trace::StimulusBuilder sb(inputs);
    drive(sb);
    return sim::record(sys, sb.finish(),
                       {sim::XPolicy::Keep, sim::XPolicy::Keep, 1});
}

const char *kGoldenCounter = R"(
module first_counter (input clock, input reset, input enable,
                      output reg [3:0] count, output reg overflow);
    always @(posedge clock) begin
        if (reset == 1'b1) begin
            count <= 4'b0;
            overflow <= 1'b0;
        end else if (enable == 1'b1) begin
            count <= count + 1;
        end
        if (count == 4'b1111) overflow <= 1'b1;
    end
endmodule
)";

trace::IoTrace
counterTrace()
{
    return goldenTrace(
        kGoldenCounter,
        [](trace::StimulusBuilder &sb) {
            sb.set("reset", 1).set("enable", 0).step(2);
            sb.set("reset", 0).set("enable", 1).step(20);
        },
        {{"reset", 1}, {"enable", 1}});
}

} // namespace

TEST(RepairDriver, MissingResetIsRepairedWithOneChange)
{
    // The paper's running example (counter_k1 shape).
    auto buggy = parse(R"(
module first_counter (input clock, input reset, input enable,
                      output reg [3:0] count, output reg overflow);
    always @(posedge clock) begin
        if (reset == 1'b1) begin
            overflow <= 1'b0;
        end else if (enable == 1'b1) begin
            count <= count + 1;
        end
        if (count == 4'b1111) overflow <= 1'b1;
    end
endmodule
)");
    RepairConfig config;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, counterTrace(), config);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_EQ(outcome.changes, 1);
    EXPECT_EQ(outcome.template_name, "conditional-overwrite");
    ASSERT_NE(outcome.repaired, nullptr);
    std::string diff = verilog::formatDiff(verilog::diffLines(
        print(buggy.top()), print(*outcome.repaired)));
    EXPECT_NE(diff.find("count <="), std::string::npos) << diff;
}

TEST(RepairDriver, WrongIncrementIsRepaired)
{
    auto buggy = parse(R"(
module first_counter (input clock, input reset, input enable,
                      output reg [3:0] count, output reg overflow);
    always @(posedge clock) begin
        if (reset == 1'b1) begin
            count <= 4'b0;
            overflow <= 1'b0;
        end else if (enable == 1'b1) begin
            count <= count + 2;
        end
        if (count == 4'b1111) overflow <= 1'b1;
    end
endmodule
)");
    RepairConfig config;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, counterTrace(), config);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_LE(outcome.changes, 2);
    // The repaired design must match the golden trace exactly.
    ir::TransitionSystem sys =
        elaborate::elaborate(*outcome.repaired);
    sim::Interpreter interp(sys, {sim::XPolicy::Random,
                                  sim::XPolicy::Random, 3});
    EXPECT_TRUE(sim::replay(interp, counterTrace()).passed);
}

TEST(RepairDriver, InvertedConditionFixedByAddGuard)
{
    const char *golden = R"(
module tff (input clk, input rstn, input t, output reg q);
    always @(posedge clk) begin
        if (!rstn) q <= 1'b0;
        else if (t) q <= ~q;
    end
endmodule
)";
    auto buggy = parse(R"(
module tff (input clk, input rstn, input t, output reg q);
    always @(posedge clk) begin
        if (rstn) q <= 1'b0;
        else if (t) q <= ~q;
    end
endmodule
)");
    trace::IoTrace io = goldenTrace(
        golden,
        [](trace::StimulusBuilder &sb) {
            sb.set("rstn", 0).set("t", 0).step(2);
            sb.set("rstn", 1).set("t", 1).step(3);
            sb.set("t", 0).step(2);
            sb.set("t", 1).step(4);
        },
        {{"rstn", 1}, {"t", 1}});
    RepairConfig config;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, io, config);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_GE(outcome.changes, 1);
}

TEST(RepairDriver, PreprocessingAloneCanRepair)
{
    const char *golden = R"(
module m (input clk, input rst, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else q <= d;
    end
endmodule
)";
    auto buggy = parse(R"(
module m (input clk, input rst, input [3:0] d, output reg [3:0] q);
    reg [3:0] tmp;
    always @(posedge clk) begin
        if (rst) q = 4'd0;
        else q = d;
    end
endmodule
)");
    trace::IoTrace io = goldenTrace(
        golden,
        [](trace::StimulusBuilder &sb) {
            sb.set("rst", 1).set("d", 0).step(2);
            sb.set("rst", 0).set("d", 7).step(3);
            sb.set("d", 2).step(3);
        },
        {{"rst", 1}, {"d", 4}});
    RepairConfig config;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, io, config);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_TRUE(outcome.by_preprocessing);
    EXPECT_EQ(outcome.preprocess_changes, 2);
}

TEST(RepairDriver, NoRepairNeededWhenCircuitLooksCorrect)
{
    // The shift_k1 shape: the buggy sensitivity list synthesizes to
    // the same circuit, so the symbolic tool sees nothing to repair.
    const char *golden = R"(
module m (input clk, input rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd1;
        else q <= {q[2:0], q[3]};
    end
endmodule
)";
    auto buggy = parse(R"(
module m (input clk, input rst, output reg [3:0] q);
    always @(posedge clk or negedge clk) begin
        if (rst) q <= 4'd1;
        else q <= {q[2:0], q[3]};
    end
endmodule
)");
    trace::IoTrace io = goldenTrace(
        golden,
        [](trace::StimulusBuilder &sb) {
            sb.set("rst", 1).step(2);
            sb.set("rst", 0).step(6);
        },
        {{"rst", 1}});
    RepairConfig config;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, io, config);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_TRUE(outcome.no_repair_needed);
    EXPECT_EQ(outcome.changes, 0);
}

TEST(RepairDriver, UnsynthesizableDesignCannotBeRepaired)
{
    // counter_w1 shape: always @(clk) makes the counter a comb loop.
    // Preprocessing inserts latch defaults that make the process
    // elaborate as (wrong) combinational logic, so the tool ends in
    // "no repair" — the paper's ○ verdict for this benchmark.
    auto buggy = parse(R"(
module first_counter (input clock, input reset, input enable,
                      output reg [3:0] count, output reg overflow);
    always @(clock) begin
        if (reset == 1'b1) begin
            count = 4'b0;
            overflow = 1'b0;
        end else if (enable == 1'b1) begin
            count = count + 1;
        end
        if (count == 4'b1111) overflow = 1'b1;
    end
endmodule
)");
    RepairConfig config;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, counterTrace(), config);
    EXPECT_TRUE(outcome.status == RepairOutcome::Status::NoRepair ||
                outcome.status ==
                    RepairOutcome::Status::CannotSynthesize);
}

TEST(RepairDriver, BasicSynthesizerAlsoRepairs)
{
    auto buggy = parse(R"(
module first_counter (input clock, input reset, input enable,
                      output reg [3:0] count, output reg overflow);
    always @(posedge clock) begin
        if (reset == 1'b1) begin
            overflow <= 1'b0;
        end else if (enable == 1'b1) begin
            count <= count + 1;
        end
        if (count == 4'b1111) overflow <= 1'b1;
    end
endmodule
)");
    RepairConfig config;
    config.engine.adaptive = false;  // full unrolling
    trace::IoTrace io = counterTrace();
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, io, config);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_GE(outcome.changes, 1);
    EXPECT_EQ(static_cast<size_t>(outcome.window_past +
                                  outcome.window_future),
              io.length());
    // The winning template solved one window: the whole trace.
    int full_trace_windows = 0;
    for (const auto &c : outcome.candidates) {
        if (c.template_name != outcome.template_name)
            continue;
        ++full_trace_windows;
        EXPECT_EQ(static_cast<size_t>(c.window.k_past + c.window.k_future),
                  io.length());
    }
    EXPECT_EQ(full_trace_windows, 1);
    bool solve_reported = false;
    for (const auto &r : outcome.stages) {
        if (r.stage == "solve:" + outcome.template_name &&
            r.status == repair::StageStatus::Ok)
            solve_reported = true;
    }
    EXPECT_TRUE(solve_reported);
}

TEST(RepairDriver, TimeoutIsReported)
{
    auto buggy = parse(R"(
module first_counter (input clock, input reset, input enable,
                      output reg [3:0] count, output reg overflow);
    always @(posedge clock) begin
        if (reset == 1'b1) begin
            overflow <= 1'b0;
        end else if (enable == 1'b1) begin
            count <= count + 1;
        end
        if (count == 4'b1111) overflow <= 1'b1;
    end
endmodule
)");
    RepairConfig config;
    config.timeout_seconds = 1e-6;
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, counterTrace(), config);
    EXPECT_EQ(outcome.status, RepairOutcome::Status::Timeout);
}
