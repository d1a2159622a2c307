#include "repair/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "repair/patcher.hpp"
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
    CancelToken cancel;
    const Deadline *global;  ///< the run's global deadline
    Deadline deadline;  ///< derived: global + cancel token + slice
    std::future<void> done;
    std::atomic<bool> finished{false};
    /** Telemetry: when the scheduler first cancelled this slot
     *  (scheduler thread only). */
    uint64_t cancel_us = 0;
    /** Telemetry: when the task body returned; written by the task
     *  thread before the `finished` release store. */
    uint64_t finish_us = 0;

    // Written by the task thread before `finished`, read after.
    Outcome outcome = Outcome::Skipped;
    std::unique_ptr<verilog::Module> repaired;
    int changes = 0;
    int window_past = 0;
    int window_future = 0;
    std::vector<WindowStat> windows;
    std::vector<StageReport> stages;
    std::string note;

    TemplateSlot(std::string n, const Deadline &global_deadline,
                 double slice)
        : name(std::move(n)), global(&global_deadline),
          deadline(&global_deadline, &cancel, slice)
    {
    }
};

/** Template-task body; Outcome/note/etc. are written into @p s. */
void
runTemplateTask(TemplateSlot &s, templates::RepairTemplate &tmpl,
                const verilog::Module &preprocessed,
                const std::vector<const verilog::Module *> &library,
                const trace::IoTrace &resolved,
                const std::vector<Value> &init,
                const RepairConfig &config)
{
    using Outcome = TemplateSlot::Outcome;
    if (s.deadline.cancelled()) {
        s.outcome = Outcome::Cancelled;
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
    engine_cfg.solve_retries = config.guard.solve_retries;
    engine_cfg.max_rss_kb = config.guard.max_rss_mb * 1024;

    EngineResult engine;
    StageGuard guard("engine:" + s.name, s.stages,
                     StageGuard::Recording::OnFault);
    bool ran = guard.run([&] {
        engine = runEngine(sys, inst.vars, resolved, init, engine_cfg,
                           &s.deadline);
    });
    s.stages.insert(s.stages.end(), engine.stages.begin(),
                    engine.stages.end());
    s.windows = std::move(engine.windows);
    if (!ran) {
        s.outcome = Outcome::Failed;
        s.note = format("template %s: engine dropped (%s)\n",
                        s.name.c_str(),
                        guard.report().diagnostic.c_str());
        return;
    }
    switch (engine.status) {
      case EngineResult::Status::Timeout:
        if (s.deadline.cancelled()) {
            s.outcome = Outcome::Cancelled;
        } else if (s.global && s.global->expired()) {
            s.outcome = Outcome::Timeout;
            s.note = format("template %s: timeout\n", s.name.c_str());
        } else {
            // The slice ran out but the global budget did not: drop
            // this template, siblings reclaim the time.
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
        s.outcome = Outcome::Repaired;
        s.repaired =
            patch(*inst.instrumented, inst.vars, engine.assignment);
        s.changes = engine.changes;
        s.window_past = engine.window_past;
        s.window_future = engine.window_future;
        return;
    }
}

} // namespace

PortfolioOutcome
runPortfolio(const verilog::Module &preprocessed,
             const std::vector<const verilog::Module *> &library,
             const trace::IoTrace &resolved,
             const std::vector<Value> &init,
             const RepairConfig &config, const Deadline &deadline,
             unsigned jobs)
{
    PortfolioOutcome out;

    // Slots are declared before the pool: the pool's destructor joins
    // the workers while every slot (and its cancel token) is alive.
    std::vector<std::unique_ptr<TemplateSlot>> slots;
    ThreadPool pool(jobs);

    auto cascade = templates::standardTemplates();
    size_t selected = 0;
    for (const auto &tmpl : cascade) {
        if (config.only_template.empty() ||
            tmpl->name() == config.only_template) {
            ++selected;
        }
    }
    // The templates run concurrently, so every slot is sliced off the
    // same remaining budget (the serial cascade recomputes per stage).
    const double slice =
        stageSlice(deadline.remaining(), selected, config.guard);

    for (auto &tmpl : cascade) {
        if (!config.only_template.empty() &&
            tmpl->name() != config.only_template) {
            continue;
        }
        auto slot = std::make_unique<TemplateSlot>(tmpl->name(),
                                                   deadline, slice);
        TemplateSlot *s = slot.get();
        auto shared_tmpl =
            std::shared_ptr<templates::RepairTemplate>(
                std::move(tmpl));
        uint64_t span_parent = telemetry::Span::currentId();
        slot->done = pool.submit([s, shared_tmpl, &preprocessed,
                                  &library, &resolved, &init, &config,
                                  span_parent]() {
            // `finished` is flagged even when the task throws, so the
            // scheduler loop can never spin forever; the exception
            // stays in the future and is rethrown by waitCollect.
            struct Finish
            {
                TemplateSlot *slot;
                ~Finish()
                {
                    if (telemetry::enabled())
                        slot->finish_us = telemetry::nowUs();
                    slot->finished.store(true,
                                         std::memory_order_release);
                }
            } finish{s};
            telemetry::SpanParent adopt(span_parent);
            telemetry::Span span("task:" + s->name);
            runTemplateTask(*s, *shared_tmpl, preprocessed, library,
                            resolved, init, config);
        });
        slots.push_back(std::move(slot));
    }

    // Scheduler loop.  Determinism rule: the winner is whatever the
    // serial fold (templates in order, fewest changes, stop at the
    // change threshold) picks — so a template finishing first never
    // wins on timing.  But once any template i has a repair at or
    // under the threshold, templates after i can never influence the
    // outcome (an earlier template either stops the cascade itself or
    // loses to i's smaller repair), so everything past i is cancelled
    // immediately — first-success-wins without a determinism leak.
    auto cancelHorizon = [&]() -> size_t {
        for (size_t i = 0; i < slots.size(); ++i) {
            if (slots[i]->finished.load(std::memory_order_acquire) &&
                slots[i]->outcome == TemplateSlot::Outcome::Repaired &&
                slots[i]->changes <= config.change_threshold) {
                return i;
            }
        }
        return slots.size();
    };
    while (true) {
        size_t horizon = cancelHorizon();
        for (size_t j = horizon + 1; j < slots.size(); ++j) {
            if (!slots[j]->cancel.cancelled()) {
                slots[j]->cancel.cancel();
                if (telemetry::enabled())
                    slots[j]->cancel_us = telemetry::nowUs();
            }
        }
        bool all_done = true;
        for (const auto &slot : slots) {
            if (!slot->finished.load(std::memory_order_acquire)) {
                all_done = false;
                break;
            }
        }
        if (all_done)
            break;
        if (!pool.help()) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    }
    // Reap every task.  A task whose exception escaped its internal
    // stage guards (captured by the pool's packaged_task) is converted
    // into a Failed slot here — it degrades the run but can never
    // poison its siblings, whose futures are collected independently.
    for (auto &slot : slots) {
        auto reap = [&](const char *what) {
            StageReport report;
            report.stage = "task:" + slot->name;
            report.status = StageStatus::Failed;
            report.diagnostic = what;
            std::optional<size_t> rss = peakRssKb();
            report.rss_known = rss.has_value();
            report.peak_rss_kb = rss.value_or(0);
            slot->stages.push_back(report);
            slot->outcome = TemplateSlot::Outcome::Failed;
            slot->note = format("template %s: task faulted (%s)\n",
                                slot->name.c_str(), what);
        };
        try {
            pool.waitCollect(slot->done);
        } catch (const FatalError &e) {
            reap(format("fatal: %s", e.what()).c_str());
        } catch (const PanicError &e) {
            reap(format("panic: %s", e.what()).c_str());
        } catch (const std::bad_alloc &) {
            reap("out of memory");
        } catch (const std::exception &e) {
            reap(e.what());
        }
        // Cancel latency: from the scheduler's first cancel() to the
        // task body's return (a slot already finished when cancelled
        // contributes nothing).
        if (slot->cancel_us && slot->finish_us > slot->cancel_us) {
            s_cancelled.add(1);
            s_cancel_latency.record(slot->finish_us -
                                    slot->cancel_us);
        }
    }

    // Final fold, identical to the serial cascade's accumulation.
    // Cancelled slots sit strictly after the fold's stopping point,
    // so they are never visited — stats and notes match a serial run.
    for (auto &slot_ptr : slots) {
        TemplateSlot &s = *slot_ptr;
        out.stages.insert(out.stages.end(), s.stages.begin(),
                          s.stages.end());
        for (const auto &w : s.windows)
            out.candidates.push_back({s.name, w});
        switch (s.outcome) {
          case TemplateSlot::Outcome::Skipped:
          case TemplateSlot::Outcome::Cancelled:
            continue;
          case TemplateSlot::Outcome::NotSynth:
          case TemplateSlot::Outcome::NoRepair:
            out.detail += s.note;
            continue;
          case TemplateSlot::Outcome::Failed:
            out.degraded = true;
            out.detail += s.note;
            continue;
          case TemplateSlot::Outcome::Timeout:
            out.timed_out = true;
            out.detail += s.note;
            continue;
          case TemplateSlot::Outcome::Repaired:
            break;
        }
        if (!out.best || s.changes < out.best->changes) {
            out.best = PortfolioBest{std::move(s.repaired), s.changes,
                                     s.name, s.window_past,
                                     s.window_future};
        }
        if (s.changes <= config.change_threshold)
            break;  // small enough: stop the cascade (paper Fig. 3)
        out.detail += format(
            "template %s: repair with %d changes exceeds threshold, "
            "trying further templates\n",
            s.name.c_str(), s.changes);
    }
    return out;
}

} // namespace rtlrepair::repair
