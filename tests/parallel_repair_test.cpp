// Determinism contract of the repair portfolio: for any benchmark,
// jobs=1 (no worker thread, templates run in order on the caller) and
// jobs=N must produce an identical RepairOutcome — same status,
// winning template, change count, repair window, patched source, and
// per-candidate stats — regardless of thread timing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "benchmarks/registry.hpp"
#include "repair/driver.hpp"
#include "verilog/printer.hpp"

using namespace rtlrepair;
using namespace rtlrepair::benchmarks;
using repair::RepairConfig;
using repair::RepairOutcome;

namespace {

RepairOutcome
runTool(const LoadedBenchmark &lb, unsigned jobs)
{
    RepairConfig config;
    config.timeout_seconds = 60.0;
    config.x_policy = lb.def->x_policy;
    config.jobs = jobs;
    return repair::repairDesign(*lb.buggy, lb.buggy_lib, lb.tb,
                                config);
}

/** Everything about an outcome that the determinism contract covers
 *  (timings excluded), flattened to a comparable string. */
std::string
fingerprint(const RepairOutcome &outcome)
{
    std::ostringstream os;
    os << "status=" << static_cast<int>(outcome.status)
       << " template=" << outcome.template_name
       << " changes=" << outcome.changes
       << " window=-" << outcome.window_past << "/+"
       << outcome.window_future
       << " preprocess=" << outcome.preprocess_changes
       << " first_failure=" << outcome.first_failure << "\n";
    for (const auto &c : outcome.candidates) {
        os << c.template_name << " -" << c.window.k_past << "/+"
           << c.window.k_future << " " << c.window.status
           << " changes=" << c.window.changes << "\n";
    }
    if (outcome.repaired)
        os << verilog::print(*outcome.repaired);
    return os.str();
}

void
expectDeterministic(const std::string &name)
{
    const LoadedBenchmark &lb = load(name);
    RepairOutcome serial = runTool(lb, 1);
    RepairOutcome parallel = runTool(lb, 4);
    if (serial.status == RepairOutcome::Status::Timeout ||
        parallel.status == RepairOutcome::Status::Timeout) {
        GTEST_SKIP() << name << ": hit the wall-clock budget, "
                     << "outcome depends on machine speed";
    }
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel))
        << name << ": jobs=1 and jobs=4 disagree";
}

} // namespace

// One test per benchmark class exercised by the portfolio: repairs
// found by different templates, different window ladders, repairs
// above the change threshold (cascade continues), and no-repair runs
// (every template must be visited and folded identically).

TEST(ParallelDeterminism, CounterK1) { expectDeterministic("counter_k1"); }

TEST(ParallelDeterminism, CounterW2) { expectDeterministic("counter_w2"); }

TEST(ParallelDeterminism, DecoderW1) { expectDeterministic("decoder_w1"); }

TEST(ParallelDeterminism, FlopW1) { expectDeterministic("flop_w1"); }

TEST(ParallelDeterminism, ShiftW2) { expectDeterministic("shift_w2"); }

TEST(ParallelDeterminism, MuxW1) { expectDeterministic("mux_w1"); }

TEST(ParallelDeterminism, MuxW2) { expectDeterministic("mux_w2"); }

TEST(ParallelDeterminism, FsmW1) { expectDeterministic("fsm_w1"); }

TEST(ParallelDeterminism, FsmS2) { expectDeterministic("fsm_s2"); }

TEST(ParallelDeterminism, CounterW1NoRepair)
{
    expectDeterministic("counter_w1");
}

TEST(ParallelDeterminism, Sha3S1) { expectDeterministic("sha3_s1"); }

// A run the caller cancels (Ctrl-C, client disconnect) reports
// Timeout, as RepairConfig::cancel documents, at every job count.
TEST(ParallelDeterminism, CallerCancelIsTimeoutAtEveryJobCount)
{
    const LoadedBenchmark &lb = load("counter_k1");
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        CancelToken cancel;
        cancel.cancel();
        RepairConfig config;
        config.x_policy = lb.def->x_policy;
        config.jobs = jobs;
        config.cancel = &cancel;
        RepairOutcome outcome = repair::repairDesign(
            *lb.buggy, lb.buggy_lib, lb.tb, config);
        EXPECT_EQ(outcome.status, RepairOutcome::Status::Timeout);
        EXPECT_TRUE(outcome.cancelled);
        EXPECT_FALSE(outcome.repaired);
        EXPECT_TRUE(outcome.candidates.empty());
    }
}

// Sweep the whole CirFix registry so a determinism regression on any
// benchmark class is caught, not just the hand-picked ones above.
// Takes several minutes of solver time, so it only runs when asked
// for (CI does; `ctest` stays fast by default).
TEST(ParallelDeterminism, RegistrySweep)
{
    if (!std::getenv("RTLREPAIR_FULL_SWEEP"))
        GTEST_SKIP() << "set RTLREPAIR_FULL_SWEEP=1 to run";
    for (const BenchmarkDef &def : all()) {
        if (def.oss)
            continue;  // multi-minute designs; covered per-bug above
        if (def.timeout_seconds > 60.0)
            continue;
        const LoadedBenchmark &lb = load(def);
        RepairOutcome serial = runTool(lb, 1);
        RepairOutcome parallel = runTool(lb, 4);
        if (serial.status == RepairOutcome::Status::Timeout ||
            parallel.status == RepairOutcome::Status::Timeout) {
            continue;
        }
        EXPECT_EQ(fingerprint(serial), fingerprint(parallel))
            << def.name << ": jobs=1 and jobs=4 disagree";
    }
}
