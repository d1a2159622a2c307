#include "repair/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "repair/patcher.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace rtlrepair::repair {

using bv::Value;

namespace {

// All portfolio metrics are scheduling-dependent by nature.
telemetry::Counter s_cancelled("portfolio.cancelled",
                               telemetry::MetricKind::Unstable);
telemetry::Gauge s_cancel_latency("portfolio.cancel_latency_us",
                                  telemetry::MetricKind::Unstable);

} // namespace

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("RTLREPAIR_JOBS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/** Shared-state slot for one template task. */
struct TemplateSlot
{
    enum class Outcome {
        Skipped,      ///< no change sites
        NotSynth,     ///< instrumented design failed to elaborate
        Timeout,
        Cancelled,    ///< stopped by first-success cancellation
        NoRepair,
        Repaired,
        Failed,       ///< dropped by the containment layer (degrades)
    };

    std::string name;
    /** Templates from this one to the end of the cascade: the share
     *  of the remaining budget the task's time slice is carved for. */
    size_t stages_left = 0;
    /** First-success cancellation, tripped by a winning template. */
    CancelToken cancel;
    std::future<void> done;
    /** Scheduler thread only: the future has been collected. */
    bool reaped = false;
    /** Telemetry: when a winning template first cancelled this slot
     *  (written by the winner's thread). */
    std::atomic<uint64_t> cancel_us{0};
    /** Telemetry: when the task body returned. */
    uint64_t finish_us = 0;

    // Written by the task thread before `done` is ready, read after.
    Outcome outcome = Outcome::Skipped;
    std::unique_ptr<verilog::Module> repaired;
    int changes = 0;
    int window_past = 0;
    int window_future = 0;
    std::vector<RepairCandidateStat> candidates;
    std::vector<StageReport> stages;
    std::string note;
};

/** Template-task body; Outcome/note/etc. are written into @p s. */
void
runTemplateTask(TemplateSlot &s, templates::RepairTemplate &tmpl,
                const Deadline &global,
                const verilog::Module &preprocessed,
                const std::vector<const verilog::Module *> &library,
                const trace::IoTrace &resolved,
                const std::vector<Value> &init,
                const RepairConfig &config)
{
    using Outcome = TemplateSlot::Outcome;
    if (s.cancel.cancelled()) {
        s.outcome = Outcome::Cancelled;
        return;
    }
    // Out of global time, or cancelled by the caller, which counts as
    // the same (RepairConfig::cancel): do not even instrument.
    if (global.expired()) {
        s.outcome = Outcome::Timeout;
        return;
    }
    if (memoryWatermarkExceeded(config.guard)) {
        StageGuard guard("template:" + s.name, s.stages);
        guard.skip("RSS watermark exceeded");
        s.outcome = Outcome::Failed;
        s.note = format(
            "template %s: skipped, RSS watermark exceeded\n",
            s.name.c_str());
        return;
    }
    // Each template gets a slice of the budget left when it starts,
    // so one pathological template cannot starve the ones after it.
    Deadline deadline(&global, &s.cancel,
                      stageSlice(global.remaining(), s.stages_left));
    templates::TemplateResult inst;
    {
        StageGuard guard("template:" + s.name, s.stages);
        if (!guard.run(
                [&] { inst = tmpl.apply(preprocessed, library); })) {
            s.outcome = Outcome::Failed;
            s.note = format(
                "template %s: instrumentation dropped (%s)\n",
                s.name.c_str(), guard.report().diagnostic.c_str());
            return;
        }
    }
    if (inst.vars.empty()) {
        s.outcome = Outcome::Skipped;  // template found no change sites
        return;
    }
    elaborate::ElaborateOptions opts;
    opts.library = library;
    opts.synth_vars = inst.vars.specs();
    ir::TransitionSystem sys;
    {
        StageGuard guard("elaborate:" + s.name, s.stages);
        if (!guard.run([&] {
                sys = elaborate::elaborate(*inst.instrumented, opts);
            })) {
            const StageReport &r = guard.report();
            if (r.user_error) {
                // The instrumented design can legitimately fail to
                // elaborate; skipping it is the normal cascade
                // behaviour, not a degradation.
                s.outcome = Outcome::NotSynth;
                s.note = format(
                    "template %s: instrumented design not "
                    "synthesizable (%s)\n",
                    s.name.c_str(), r.diagnostic.c_str());
            } else {
                s.outcome = Outcome::Failed;
                s.note = format(
                    "template %s: elaboration dropped (%s)\n",
                    s.name.c_str(), r.diagnostic.c_str());
            }
            return;
        }
    }
    EngineConfig engine_cfg = config.engine;
    engine_cfg.stage_label = s.name;

    EngineResult engine;
    // The engine guards each window solve itself; the wrapper only
    // reports when a fault escapes those inner guards (e.g. out of
    // memory while replaying candidates).
    StageGuard guard("engine:" + s.name, s.stages,
                     StageGuard::Recording::OnFault);
    bool ran = guard.run([&] {
        engine = runEngine(sys, inst.vars, resolved, init, engine_cfg,
                           config.guard, &deadline);
    });
    s.stages.insert(s.stages.end(), engine.stages.begin(),
                    engine.stages.end());
    for (const auto &w : engine.windows)
        s.candidates.push_back({s.name, w});
    if (!ran) {
        s.outcome = Outcome::Failed;
        s.note = format("template %s: engine dropped (%s)\n",
                        s.name.c_str(),
                        guard.report().diagnostic.c_str());
        return;
    }
    switch (engine.status) {
      case EngineResult::Status::Timeout:
        if (s.cancel.cancelled()) {
            s.outcome = Outcome::Cancelled;
        } else if (global.expired()) {
            s.outcome = Outcome::Timeout;
            s.note = format("template %s: timeout\n", s.name.c_str());
        } else {
            // The slice ran out but the global budget did not: drop
            // this template, the ones after it reclaim the time.
            s.outcome = Outcome::Failed;
            s.note = format(
                "template %s: stage budget exhausted, dropped\n",
                s.name.c_str());
        }
        return;
      case EngineResult::Status::Failed:
        s.outcome = Outcome::Failed;
        s.note = format(
            "template %s: dropped after contained fault (%s)\n",
            s.name.c_str(), engine.error.c_str());
        return;
      case EngineResult::Status::NoRepair:
        s.outcome = Outcome::NoRepair;
        s.note = format("template %s: no repair found\n",
                        s.name.c_str());
        return;
      case EngineResult::Status::Repaired:
        s.repaired =
            patch(*inst.instrumented, inst.vars, engine.assignment);
        s.changes = engine.changes;
        s.window_past = engine.window_past;
        s.window_future = engine.window_future;
        s.outcome = Outcome::Repaired;
        return;
    }
}

/**
 * Collect a finished task's future.  A task whose exception escaped
 * its internal stage guards (captured by the pool's packaged_task)
 * becomes a Failed slot: it degrades the run but can never poison
 * its siblings, whose futures are collected independently.
 */
void
reap(TemplateSlot &s)
{
    auto fault = [&](const std::string &what) {
        StageReport report;
        report.stage = "task:" + s.name;
        report.status = StageStatus::Failed;
        report.diagnostic = what;
        std::optional<size_t> rss = peakRssKb();
        report.rss_known = rss.has_value();
        report.peak_rss_kb = rss.value_or(0);
        s.stages.push_back(report);
        s.outcome = TemplateSlot::Outcome::Failed;
        s.note = format("template %s: task faulted (%s)\n",
                        s.name.c_str(), what.c_str());
    };
    s.reaped = true;
    try {
        s.done.get();
    } catch (const FatalError &e) {
        fault(format("fatal: %s", e.what()));
    } catch (const PanicError &e) {
        fault(format("panic: %s", e.what()));
    } catch (const std::bad_alloc &) {
        fault("out of memory");
    } catch (const std::exception &e) {
        fault(e.what());
    }
    // Cancel latency: from the first cancel() to the task body's
    // return (a slot already finished when cancelled contributes
    // nothing).
    uint64_t cancel_us = s.cancel_us.load();
    if (cancel_us && s.finish_us > cancel_us) {
        s_cancelled.add(1);
        s_cancel_latency.record(s.finish_us - cancel_us);
    }
}

} // namespace

RepairOutcome::Status
runPortfolio(const verilog::Module &preprocessed,
             const std::vector<const verilog::Module *> &library,
             const trace::IoTrace &resolved,
             const std::vector<Value> &init,
             const RepairConfig &config, const Deadline &deadline,
             unsigned jobs, RepairOutcome &outcome)
{
    std::vector<std::shared_ptr<templates::RepairTemplate>> cascade;
    for (auto &tmpl : templates::standardTemplates()) {
        if (config.only_template.empty() ||
            tmpl->name() == config.only_template) {
            cascade.push_back(std::move(tmpl));
        }
    }

    // Slots are declared before the pool: the pool's destructor joins
    // the workers while every slot (and its cancel token) is alive.
    std::vector<TemplateSlot> slots(cascade.size());
    // The calling thread helps run the tasks, so it is the last of
    // the `jobs` threads.  At jobs=1 no worker starts and the caller
    // runs the templates one after another, in cascade order.
    ThreadPool pool(jobs > 1 ? jobs - 1 : 0);
    for (size_t i = 0; i < cascade.size(); ++i) {
        TemplateSlot *s = &slots[i];
        s->name = cascade[i]->name();
        s->stages_left = cascade.size() - i;
        uint64_t span_parent = telemetry::Span::currentId();
        s->done = pool.submit([s, i, &slots, tmpl = cascade[i],
                               &deadline, &preprocessed, &library,
                               &resolved, &init, &config,
                               span_parent]() {
            // Stamped on every exit, a faulted task's included.
            struct Finish
            {
                TemplateSlot *slot;
                ~Finish()
                {
                    if (telemetry::enabled())
                        slot->finish_us = telemetry::nowUs();
                }
            } finish{s};
            const std::string stage = "task:" + s->name;
            telemetry::SpanParent adopt(span_parent);
            telemetry::Span span(stage);
            // Outside every stage guard: a fault here reaches reap().
            faultPoint(stage);
            runTemplateTask(*s, *tmpl, deadline, preprocessed, library,
                            resolved, init, config);
            // First-success cancellation.  A repair at or under the
            // threshold means no later template can change the
            // outcome (an earlier template either stops the cascade
            // itself or loses to this smaller repair), so every later
            // template is cancelled at once, from this thread: the
            // scheduler may be busy running a template itself.  The
            // fold still picks the winner, so a template finishing
            // first never wins on timing.
            if (s->outcome != TemplateSlot::Outcome::Repaired ||
                s->changes > kChangeThreshold) {
                return;
            }
            for (size_t j = i + 1; j < slots.size(); ++j) {
                slots[j].cancel.cancel();
                if (telemetry::enabled()) {
                    uint64_t unset = 0;  // keep the first cancel's time
                    slots[j].cancel_us.compare_exchange_strong(
                        unset, telemetry::nowUs());
                }
            }
        });
    }

    // Fold one finished slot into the outcome, exactly as the paper's
    // cascade does: templates in order, the fewest changes wins, and
    // a repair within the change threshold stops the cascade (the
    // return value).
    bool timed_out = false;
    auto fold = [&](TemplateSlot &s) {
        outcome.stages.insert(outcome.stages.end(),
                              std::make_move_iterator(s.stages.begin()),
                              std::make_move_iterator(s.stages.end()));
        outcome.candidates.insert(
            outcome.candidates.end(),
            std::make_move_iterator(s.candidates.begin()),
            std::make_move_iterator(s.candidates.end()));
        switch (s.outcome) {
          case TemplateSlot::Outcome::Skipped:
          case TemplateSlot::Outcome::Cancelled:
            return false;
          case TemplateSlot::Outcome::NotSynth:
          case TemplateSlot::Outcome::NoRepair:
            outcome.detail += s.note;
            return false;
          case TemplateSlot::Outcome::Failed:
            outcome.degraded = true;
            outcome.detail += s.note;
            return false;
          case TemplateSlot::Outcome::Timeout:
            timed_out = true;
            outcome.detail += s.note;
            return false;
          case TemplateSlot::Outcome::Repaired:
            break;
        }
        if (!outcome.repaired || s.changes < outcome.changes) {
            outcome.repaired = std::move(s.repaired);
            outcome.changes = s.changes;
            outcome.template_name = s.name;
            outcome.window_past = s.window_past;
            outcome.window_future = s.window_future;
        }
        if (s.changes <= kChangeThreshold)
            return true;  // small enough: stop the cascade (Fig. 3)
        outcome.detail += format(
            "template %s: repair with %d changes exceeds threshold, "
            "trying further templates\n",
            s.name.c_str(), s.changes);
        return false;
    };

    // Scheduler loop.  Each slot is folded as soon as it and every
    // slot before it have finished, and its results are released
    // right away; slots after the cascade's stopping point are reaped
    // but never folded.
    size_t folded = 0;
    bool stopped = false;
    while (folded < slots.size()) {
        for (auto &slot : slots) {
            if (!slot.reaped &&
                slot.done.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                reap(slot);
            }
        }
        for (; folded < slots.size() && slots[folded].reaped;
             ++folded) {
            TemplateSlot &s = slots[folded];
            if (!stopped)
                stopped = fold(s);
            s.repaired.reset();
            s.stages = {};
            s.candidates = {};
        }
        if (folded < slots.size() && !pool.help()) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    }

    if (outcome.repaired)
        return RepairOutcome::Status::Repaired;
    if (timed_out)
        return RepairOutcome::Status::Timeout;
    return outcome.degraded ? RepairOutcome::Status::Degraded
                            : RepairOutcome::Status::NoRepair;
}

} // namespace rtlrepair::repair
