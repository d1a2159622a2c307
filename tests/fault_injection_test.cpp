// Deterministic fault-injection sweep over every guarded stage of the
// repair pipeline: for each instrumented site and each fault kind the
// run must complete without crashing, report structured per-stage
// records, and produce identical outcomes at jobs=1 and jobs=4.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "repair/driver.hpp"
#include "util/fault.hpp"
#include "verilog/ast_util.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

using namespace rtlrepair;
using repair::RepairConfig;
using repair::RepairOutcome;
using repair::StageReport;
using repair::StageStatus;
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

const char *kBuggyCounter = R"(
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

/** Run the buggy counter with the given fault spec armed. */
RepairOutcome
runWithFault(const std::string &spec, unsigned jobs, bool adaptive)
{
    auto buggy = parse(kBuggyCounter);
    RepairConfig config;
    config.jobs = jobs;
    config.engine.adaptive = adaptive;
    FaultInjector::instance().configure(spec);
    RepairOutcome outcome =
        repair::repairDesign(buggy.top(), {}, counterTrace(), config);
    FaultInjector::instance().reset();
    return outcome;
}

/** The containment layer must never let an injection escape. */
RepairOutcome
runContained(const std::string &spec, unsigned jobs,
             bool adaptive = true)
{
    RepairOutcome outcome;
    EXPECT_NO_THROW(outcome = runWithFault(spec, jobs, adaptive))
        << "fault escaped containment: " << spec << " jobs=" << jobs;
    return outcome;
}

class FaultInjectionTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().reset(); }
};

} // namespace

TEST_F(FaultInjectionTest, SpecParsing)
{
    FaultInjector &inj = FaultInjector::instance();
    EXPECT_FALSE(inj.armed());
    inj.configure("solve:replace-literals:alloc:2");
    EXPECT_TRUE(inj.armed());
    EXPECT_EQ(inj.description(), "solve:replace-literals:alloc:2");
    inj.configure("preprocess:panic");
    EXPECT_EQ(inj.description(), "preprocess:panic:1");
    inj.configure("");
    EXPECT_FALSE(inj.armed());
    EXPECT_THROW(inj.configure("no-colon-spec"), FatalError);
    EXPECT_THROW(inj.configure("stage:badkind"), FatalError);
    EXPECT_THROW(inj.configure("stage:throw:0"), FatalError);
}

TEST_F(FaultInjectionTest, FiresExactlyOnceOnTheNthVisit)
{
    FaultInjector &inj = FaultInjector::instance();
    inj.configure("s:panic:2");
    EXPECT_NO_THROW(faultPoint("s"));      // first visit: below nth
    EXPECT_NO_THROW(faultPoint("other"));  // different stage
    EXPECT_THROW(faultPoint("s"), PanicError);  // second visit fires
    EXPECT_NO_THROW(faultPoint("s"));      // never fires again
}

TEST_F(FaultInjectionTest, HoldBlocksTheFirstVisitUntilReset)
{
    FaultInjector &inj = FaultInjector::instance();
    inj.holdAt("s");
    EXPECT_EQ(inj.description(), "s:hold:1");
    // A spec string cannot arm a hold: a user run must not hang.
    EXPECT_THROW(inj.configure("s:hold"), FatalError);
    inj.holdAt("s");
    std::atomic<bool> passed{false};
    std::thread held([&] {
        faultPoint("s");
        passed = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(passed);
    inj.reset();
    held.join();
    EXPECT_TRUE(passed);
    EXPECT_NO_THROW(faultPoint("s"));  // released and disarmed
}

TEST_F(FaultInjectionTest, SweepAllSitesAndKindsAtBothJobCounts)
{
    const char *stages[] = {
        "preprocess",
        "elaborate",
        "baseline",
        // Outside every stage guard: the fault reaches reap().
        "task:replace-literals",
        "task:add-guard",
        "task:conditional-overwrite",
        "template:replace-literals",
        "elaborate:replace-literals",
        "engine:replace-literals",
        "solve:replace-literals",
        "template:add-guard",
        "elaborate:add-guard",
        "engine:add-guard",
        "solve:add-guard",
        "template:conditional-overwrite",
        "elaborate:conditional-overwrite",
        "engine:conditional-overwrite",
        "solve:conditional-overwrite",
    };
    const char *kinds[] = {"throw", "panic", "alloc", "timeout"};
    for (const char *stage : stages) {
        for (const char *kind : kinds) {
            std::string spec =
                std::string(stage) + ":" + kind + ":1";
            SCOPED_TRACE(spec);
            RepairOutcome serial = runContained(spec, 1);
            // No crash and no hang: the run ended with a defined
            // status and a structured stage record.
            EXPECT_FALSE(serial.stages.empty());
            // An injected fault anywhere but the shared entry stages
            // must leave the run repairable (the counter's repair
            // needs only one healthy template) or cleanly degraded.
            if (serial.status != RepairOutcome::Status::Repaired) {
                EXPECT_TRUE(
                    serial.status ==
                        RepairOutcome::Status::Degraded ||
                    serial.status ==
                        RepairOutcome::Status::CannotSynthesize ||
                    serial.status == RepairOutcome::Status::NoRepair)
                    << "unexpected status for " << spec;
            }

            RepairOutcome par = runContained(spec, 4);
            EXPECT_EQ(serial.status, par.status);
            EXPECT_EQ(serial.changes, par.changes);
            EXPECT_EQ(serial.template_name, par.template_name);
            ASSERT_EQ(!serial.repaired, !par.repaired);
            if (serial.repaired) {
                EXPECT_EQ(verilog::print(*serial.repaired),
                          verilog::print(*par.repaired));
            }
        }
    }
}

TEST_F(FaultInjectionTest, SolveFaultIsRetriedAndRecovered)
{
    // One bad_alloc on the winning template's first window solve: the
    // degradation ladder retries with a reseeded solver and the run
    // still repairs.
    RepairOutcome outcome =
        runContained("solve:conditional-overwrite:alloc:1", 1);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_EQ(outcome.template_name, "conditional-overwrite");
    bool saw_failed = false, saw_retry = false;
    for (const StageReport &r : outcome.stages) {
        if (r.stage != "solve:conditional-overwrite")
            continue;
        if (r.status == StageStatus::Failed)
            saw_failed = true;
        if (r.status == StageStatus::Ok && r.retries > 0)
            saw_retry = true;
    }
    EXPECT_TRUE(saw_failed);
    EXPECT_TRUE(saw_retry);
}

TEST_F(FaultInjectionTest, BasicModeSolveFaultIsRetriedAndRecovered)
{
    // The basic synthesizer's one full-trace window runs under the
    // same solve stage guard: one bad_alloc in it is retried with a
    // reseeded solver and the run still repairs.
    RepairOutcome outcome = runContained(
        "solve:conditional-overwrite:alloc:1", 1, /*adaptive=*/false);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_EQ(outcome.template_name, "conditional-overwrite");
    int failed = 0, retried = 0;
    for (const StageReport &r : outcome.stages) {
        if (r.stage != "solve:conditional-overwrite")
            continue;
        if (r.status == StageStatus::Failed)
            ++failed;
        if (r.status == StageStatus::Ok && r.retries > 0)
            ++retried;
    }
    EXPECT_EQ(failed, 1);
    EXPECT_EQ(retried, 1);
}

TEST_F(FaultInjectionTest, EngineFaultDropsOnlyTheFaultedTemplate)
{
    // Force-fail the only template able to repair the counter: the
    // cascade finishes degraded instead of crashing, and the report
    // says exactly what was dropped.
    RepairOutcome outcome =
        runContained("engine:conditional-overwrite:panic:1", 1);
    EXPECT_NE(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_TRUE(outcome.degraded);
    EXPECT_NE(outcome.detail.find("conditional-overwrite"),
              std::string::npos);
    bool reported = false;
    for (const StageReport &r : outcome.stages) {
        if (r.stage == "engine:conditional-overwrite" &&
            r.status == StageStatus::Failed) {
            reported = true;
        }
    }
    EXPECT_TRUE(reported);
}

TEST_F(FaultInjectionTest, SiblingTemplateStillRepairsAfterDrop)
{
    // tff inverted condition: add-guard repairs it.  Force-failing
    // replace-literals must not stop the cascade.
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
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        FaultInjector::instance().configure(
            "engine:replace-literals:throw:1");
        RepairConfig config;
        config.jobs = jobs;
        RepairOutcome outcome;
        EXPECT_NO_THROW(outcome = repair::repairDesign(buggy.top(), {},
                                                       io, config));
        FaultInjector::instance().reset();
        ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
        EXPECT_TRUE(outcome.degraded);
    }
}

TEST_F(FaultInjectionTest, InjectedStageTimeoutIsNotAGlobalTimeout)
{
    // A stage-budget overrun on one solve drops that template; it
    // must not masquerade as the run hitting its global deadline.
    RepairOutcome outcome =
        runContained("solve:conditional-overwrite:timeout:1", 1);
    EXPECT_NE(outcome.status, RepairOutcome::Status::Timeout);
    bool timed_out_stage = false;
    for (const StageReport &r : outcome.stages) {
        if (r.stage == "solve:conditional-overwrite" &&
            r.status == StageStatus::TimedOut) {
            timed_out_stage = true;
        }
    }
    EXPECT_TRUE(timed_out_stage);
}

TEST_F(FaultInjectionTest, CleanRunRecordsHealthyStageReports)
{
    RepairOutcome outcome = runContained("", 1);
    ASSERT_EQ(outcome.status, RepairOutcome::Status::Repaired);
    EXPECT_FALSE(outcome.degraded);
    // The fixed pipeline stages always report.
    const char *expected[] = {"preprocess", "elaborate", "baseline"};
    for (const char *stage : expected) {
        bool found = false;
        for (const StageReport &r : outcome.stages) {
            if (r.stage == stage && r.status == StageStatus::Ok)
                found = true;
        }
        EXPECT_TRUE(found) << "missing stage report: " << stage;
    }
    // And the formatter renders them all.
    std::string text = repair::formatStageReports(outcome.stages);
    EXPECT_NE(text.find("preprocess"), std::string::npos);
    EXPECT_NE(text.find("ok"), std::string::npos);
}
