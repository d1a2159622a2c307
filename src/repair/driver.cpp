#include "repair/driver.hpp"

#include <optional>

#include "repair/parallel.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace rtlrepair::repair {

using bv::Value;
using sim::XPolicy;

namespace {

bool
hasXInputs(const trace::IoTrace &io)
{
    for (const auto &row : io.input_rows) {
        for (const auto &v : row) {
            if (v.hasX())
                return true;
        }
    }
    return false;
}

} // namespace

trace::IoTrace
resolveTraceInputs(const trace::IoTrace &io, XPolicy policy,
                   uint64_t seed)
{
    Rng rng(seed);
    trace::IoTrace out = io;
    for (auto &row : out.input_rows) {
        for (auto &v : row) {
            if (!v.hasX())
                continue;
            v = policy == XPolicy::Random ? v.xToRandom(rng)
                                          : v.xToZero();
        }
    }
    return out;
}

std::vector<Value>
resolveInitState(const ir::TransitionSystem &sys, XPolicy policy,
                 uint64_t seed)
{
    Rng rng(seed ^ 0x5eedf00dull);
    std::vector<Value> out;
    out.reserve(sys.states.size());
    for (const auto &st : sys.states) {
        Value v = st.init ? *st.init : Value::allX(st.width);
        if (v.hasX()) {
            v = policy == XPolicy::Random ? v.xToRandom(rng)
                                          : v.xToZero();
        }
        out.push_back(v);
    }
    return out;
}

RepairOutcome
repairDesign(const verilog::Module &buggy,
             const std::vector<const verilog::Module *> &library,
             const trace::IoTrace &io, const RepairConfig &config)
{
    Stopwatch watch;
    // The root deadline chains the caller's CancelToken (Ctrl-C,
    // client disconnect, daemon shutdown): every conflict-loop poll
    // below observes it through the ordinary Deadline plumbing.
    Deadline deadline(nullptr, config.cancel, config.timeout_seconds);
    RepairOutcome outcome;
    telemetry::Span repair_span("repair");

    auto finish = [&](RepairOutcome::Status status) {
        outcome.status = status;
        outcome.cancelled = deadline.cancelled();
        outcome.seconds = watch.seconds();
        // Telemetry folds happen over the *final* outcome, not at
        // consume time inside the engines: at jobs>1 a template the
        // portfolio cancels mid-run consumes windows the fold never
        // visits, while the folded candidate/stage lists are identical
        // for jobs=1 and jobs=N.
        foldStageCounters(outcome.stages);
        for (const auto &c : outcome.candidates)
            recordWindowStat(c.window);
        return std::move(outcome);
    };

    // 1. Static-analysis preprocessing (paper §4.1).  A fault here is
    // survivable: the cascade simply runs on the original design.
    templates::PreprocessResult pre;
    {
        StageGuard guard("preprocess", outcome.stages);
        if (!guard.run([&] { pre = templates::preprocess(buggy); })) {
            outcome.degraded = true;
            pre = templates::PreprocessResult{};
            pre.module = buggy.clone();
            outcome.detail += format(
                "preprocessing dropped (%s); continuing with the "
                "original design\n",
                guard.report().diagnostic.c_str());
        }
    }

    // 2. Elaborate the preprocessed design.  Without an IR nothing
    // downstream can run: a FatalError means the user's design is not
    // synthesizable, anything else degrades the run as a whole.
    ir::TransitionSystem base_sys;
    elaborate::ElaborateOptions elab_opts;
    elab_opts.library = library;
    {
        StageGuard guard("elaborate", outcome.stages);
        if (!guard.run([&] {
                base_sys = elaborate::elaborate(*pre.module, elab_opts);
            })) {
            const StageReport &r = guard.report();
            if (r.user_error) {
                outcome.detail += format("not synthesizable: %s\n",
                                         r.diagnostic.c_str());
                return finish(RepairOutcome::Status::CannotSynthesize);
            }
            outcome.degraded = true;
            outcome.detail += format("elaboration dropped (%s)\n",
                                     r.diagnostic.c_str());
            return finish(RepairOutcome::Status::Degraded);
        }
    }
    outcome.preprocess_changes = pre.changes;
    if (telemetry::enabled()) {
        telemetry::counter("preprocess.changes")
            .add(static_cast<uint64_t>(pre.changes));
    }
    for (const auto &note : pre.notes)
        outcome.detail += note + "\n";

    // 3. Resolve unknowns once, shared by every query and replay.
    // Only X input cells change, so a trace without any is used as is
    // rather than copied.
    std::optional<trace::IoTrace> resolved_copy;
    if (hasXInputs(io))
        resolved_copy = resolveTraceInputs(io, config.x_policy,
                                           config.seed);
    const trace::IoTrace &resolved = resolved_copy ? *resolved_copy : io;
    std::vector<Value> init =
        resolveInitState(base_sys, config.x_policy, config.seed);

    // 4. Does the preprocessed design already pass?  A fault in the
    // baseline replay forfeits the early exit but not the cascade.
    {
        StageGuard guard("baseline", outcome.stages);
        bool passed = false;
        bool ok = guard.run([&] {
            ConcreteRunner runner(base_sys, resolved, init);
            sim::ReplayResult r =
                runner.run(templates::SynthAssignment{});
            passed = r.passed;
            outcome.first_failure = r.first_failure;
        });
        if (!ok) {
            const StageReport &r = guard.report();
            // The baseline replay is where a trace that does not match
            // the design surfaces; that is the user's mistake, not a
            // stage to degrade past.
            if (r.user_error) {
                outcome.detail += format("invalid trace: %s\n",
                                         r.diagnostic.c_str());
                return finish(RepairOutcome::Status::CannotSynthesize);
            }
            outcome.degraded = true;
            outcome.detail += format(
                "baseline replay dropped (%s)\n", r.diagnostic.c_str());
        } else if (passed) {
            outcome.repaired = pre.module->clone();
            outcome.changes = 0;
            outcome.by_preprocessing = pre.changes > 0;
            outcome.no_repair_needed = pre.changes == 0;
            outcome.template_name =
                pre.changes > 0 ? "preprocessing" : "none-needed";
            return finish(RepairOutcome::Status::Repaired);
        }
    }

    if (config.preprocess_only) {
        return finish(outcome.degraded ? RepairOutcome::Status::Degraded
                                       : RepairOutcome::Status::NoRepair);
    }

    // 5. Template cascade (paper Fig. 3) on resolveJobs(config.jobs)
    // threads; jobs=1 runs the templates in order on this thread.
    return finish(runPortfolio(*pre.module, library, resolved, init,
                               config, deadline,
                               resolveJobs(config.jobs), outcome));
}

} // namespace rtlrepair::repair
