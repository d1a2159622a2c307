#include "repair/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "repair/patcher.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace rtlrepair::repair {

using bv::Value;
using templates::SynthAssignment;

namespace {

// All portfolio metrics are scheduling-dependent by nature.
telemetry::Counter s_spec_launched("portfolio.speculative_launched",
                                   telemetry::MetricKind::Unstable);
telemetry::Counter s_spec_hits("portfolio.speculative_hits",
                               telemetry::MetricKind::Unstable);
telemetry::Counter s_spec_ready("portfolio.speculative_ready",
                                telemetry::MetricKind::Unstable);
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

/** Result of one window-candidate solve on a pool worker. */
struct WindowSolve
{
    SynthesisResult synth;
    WindowStat stat;
};

/** One in-flight window candidate (frontier or speculative). */
struct WindowJob
{
    WindowLadder state;
    bool speculative = false;  ///< launched ahead of the frontier
    uint64_t cancel_us = 0;    ///< telemetry: cancel() timestamp
    std::shared_ptr<CancelToken> token;
    std::shared_ptr<Deadline> deadline;
    std::future<WindowSolve> fut;
};

/** Cancel + await every in-flight job (ignores their results). */
void
drainJobs(std::vector<WindowJob> &jobs, ThreadPool &pool)
{
    const bool tel = telemetry::enabled();
    for (auto &job : jobs) {
        job.token->cancel();
        if (tel)
            job.cancel_us = telemetry::nowUs();
    }
    for (auto &job : jobs) {
        try {
            pool.waitCollect(job.fut);
        } catch (...) {
            // A cancelled speculative solve that failed is irrelevant:
            // the serial cascade would never have reached it.
        }
        if (tel && job.cancel_us) {
            s_cancelled.add(1);
            s_cancel_latency.record(telemetry::nowUs() -
                                    job.cancel_us);
        }
    }
    jobs.clear();
}

/** Drains in-flight jobs on every exit path: the job closures hold
 *  references to engine-local state (system, runner snapshots). */
struct DrainGuard
{
    std::vector<WindowJob> *jobs;
    ThreadPool *pool;
    ~DrainGuard() { drainJobs(*jobs, *pool); }
};

} // namespace

EngineResult
runEngineParallel(const ir::TransitionSystem &sys,
                  const templates::SynthVarTable &vars,
                  const trace::IoTrace &resolved,
                  const std::vector<Value> &init,
                  const EngineConfig &config,
                  const Deadline *deadline, ThreadPool &pool)
{
    EngineResult result;
    ConcreteRunner runner(sys, resolved, init);

    // Baseline run: the unmodified circuit (all φ off).
    sim::ReplayResult base = runner.run(SynthAssignment{});
    if (base.passed) {
        result.status = EngineResult::Status::Repaired;
        result.assignment = SynthAssignment::allOff(vars);
        result.changes = 0;
        result.failure_free = true;
        return result;
    }
    size_t f = base.first_failure;
    result.first_failure = f;

    check(config.adaptive,
          "runEngineParallel requires the adaptive engine");
    check(!config.incremental,
          "speculative window solves require fresh-per-window "
          "queries; incremental mode runs the serial engine");

    // Local copy: the degradation ladder may halve the window growth
    // step after a faulted solve.
    EngineConfig cfg = config;
    const std::string solve_stage = solveStageName(cfg.stage_label);
    int retries_used = 0;
    uint64_t solver_seed = 0;

    std::vector<WindowJob> inflight;
    DrainGuard drain_guard{&inflight, &pool};

    // Launch the solve for ladder state @p st unless already queued.
    // Captures the current solver seed; after a retry reseeds, the
    // in-flight set has been drained, so stale-seed results can never
    // be consumed.
    auto ensure = [&](const WindowLadder &st, bool speculative) {
        for (const auto &job : inflight) {
            if (job.state == st)
                return;
        }
        WindowLadder::Window w = st.window();
        // Window-start states come from the (cached) concrete prefix
        // simulation on this thread; only the symbolic solve is
        // shipped to the pool.
        std::vector<Value> start_state = runner.statesAt(w.start);
        WindowJob job;
        job.state = st;
        job.speculative = speculative;
        if (speculative)
            s_spec_launched.add(1);
        job.token = std::make_shared<CancelToken>();
        job.deadline =
            std::make_shared<Deadline>(deadline, job.token.get());
        auto job_deadline = job.deadline;
        size_t max_candidates = cfg.max_candidates;
        uint64_t seed = solver_seed;
        // Window-solve spans nest under whatever span is open on the
        // submitting thread, across the pool boundary.
        uint64_t span_parent = telemetry::Span::currentId();
        job.fut = pool.submit([&sys, &vars, &resolved, st, w,
                               start_state = std::move(start_state),
                               job_deadline, max_candidates, seed,
                               span_parent]() -> WindowSolve {
            telemetry::SpanParent adopt(span_parent);
            telemetry::Span span("window.solve");
            Stopwatch watch;
            RepairQuery query(sys, vars, resolved, w.start, w.count,
                              start_state, job_deadline.get(), seed);
            WindowSolve out;
            out.synth = synthesizeMinimalRepairs(
                query, vars, max_candidates, job_deadline.get());
            out.stat.k_past = static_cast<int>(st.k_past);
            out.stat.k_future = static_cast<int>(st.k_future);
            out.stat.solve_seconds = watch.seconds();
            captureQueryStats(out.stat, query, job_deadline.get());
            switch (out.synth.status) {
              case SynthesisResult::Status::Timeout:
                out.stat.status = "timeout";
                break;
              case SynthesisResult::Status::NoRepair:
                out.stat.status = "unsat";
                break;
              case SynthesisResult::Status::Found:
                out.stat.status = "sat";
                out.stat.changes = out.synth.changes;
                break;
            }
            return out;
        });
        inflight.push_back(std::move(job));
    };
    // Removes the job before awaiting it, so a throwing solve leaves
    // the in-flight set consistent for the next drain.
    auto take = [&](const WindowLadder &st) -> WindowSolve {
        for (size_t i = 0; i < inflight.size(); ++i) {
            if (!(inflight[i].state == st))
                continue;
            WindowJob job = std::move(inflight[i]);
            inflight.erase(inflight.begin() +
                           static_cast<ptrdiff_t>(i));
            if (job.speculative && telemetry::enabled()) {
                s_spec_hits.add(1);
                if (job.fut.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    s_spec_ready.add(1);
                }
            }
            return pool.waitCollect(job.fut);
        }
        panic("window job missing from the in-flight set");
    };

    WindowLadder ladder;
    ladder.failure = f;
    ladder.trace_len = resolved.length();
    while (true) {
        if (deadline && deadline->expired()) {
            result.status = EngineResult::Status::Timeout;
            return result;
        }
        if (ladder.exhausted(cfg)) {
            result.status = EngineResult::Status::NoRepair;
            return result;
        }
        size_t rss_kb = cfg.max_rss_kb > 0
                            ? currentRssKb().value_or(0) : 0;
        if (rss_kb > cfg.max_rss_kb) {
            result.status = EngineResult::Status::Failed;
            result.error =
                format("RSS watermark exceeded (%zu KiB)", rss_kb);
            return result;
        }

        // Keep the frontier plus the predicted next windows in
        // flight; past growth is the common ladder transition, so the
        // speculative solves are usually the ones needed next.
        ensure(ladder, /*speculative=*/false);
        WindowLadder spec = ladder;
        for (size_t d = 0; d < cfg.speculation; ++d) {
            spec = spec.predictedNext(cfg);
            if (spec.exhausted(cfg))
                break;
            ensure(spec, /*speculative=*/true);
        }

        // The guard sits on the deterministic ladder-consume path (not
        // inside the pool jobs), so the fault-site sequence is the
        // same for jobs=1 and jobs=N: one hit per window attempt, in
        // ladder order.  waitCollect rethrows a faulted pool solve
        // right here, where the guard can contain it.
        WindowSolve solve;
        StageGuard guard(solve_stage, result.stages);
        guard.setRetries(retries_used);
        bool solved = guard.run([&] { solve = take(ladder); });
        if (!solved) {
            if (guard.report().status == StageStatus::TimedOut) {
                result.status = EngineResult::Status::Timeout;
                return result;
            }
            // Degradation ladder, rung 1: drain every in-flight solve
            // (their results used the old seed) and retry this window
            // with a reseeded solver and halved window growth.  Rung
            // 2: give up on this template only.
            if (retries_used < cfg.solve_retries) {
                ++retries_used;
                solver_seed = retrySolverSeed(retries_used);
                cfg.past_step = cfg.past_step > 1 ? cfg.past_step / 2
                                                  : cfg.past_step;
                drainJobs(inflight, pool);
                continue;
            }
            result.status = EngineResult::Status::Failed;
            result.error = guard.report().diagnostic;
            return result;
        }
        result.windows.push_back(solve.stat);
        if (solve.synth.status == SynthesisResult::Status::Timeout) {
            result.status = EngineResult::Status::Timeout;
            return result;
        }
        if (solve.synth.status == SynthesisResult::Status::NoRepair) {
            // No repair exists in this window: more past context.
            ladder.growPast(cfg);
            continue;
        }

        bool any_later = false;
        size_t latest_failure = f;
        for (const auto &candidate : solve.synth.repairs) {
            sim::ReplayResult r = runner.run(candidate);
            result.windows.back().replay_cycles += replayCycles(r);
            if (r.passed) {
                result.status = EngineResult::Status::Repaired;
                result.assignment = candidate;
                result.changes = solve.synth.changes;
                result.window_past = static_cast<int>(ladder.k_past);
                result.window_future =
                    static_cast<int>(ladder.k_future);
                return result;
            }
            if (r.first_failure > f) {
                any_later = true;
                latest_failure =
                    std::max(latest_failure, r.first_failure);
            }
        }
        if (any_later) {
            // Missing future context: include the new failure cycle.
            // Every in-flight speculation predicted past growth and
            // is now mispredicted — stop it burning cores.
            ladder.growFuture(latest_failure);
            drainJobs(inflight, pool);
        } else {
            ladder.growPast(cfg);
        }
    }
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
                const RepairConfig &config, ThreadPool &pool)
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
        // The incremental engine keeps one solver alive across the
        // ladder, which is incompatible with speculative per-window
        // pool solves; template-level parallelism (one slot per
        // template, first-success cancellation) still applies, and
        // the ladder state machine is shared, so jobs=1 ≡ jobs=N
        // stays bit-exact in both modes.
        engine = engine_cfg.adaptive && !engine_cfg.incremental
                     ? runEngineParallel(sys, inst.vars, resolved,
                                         init, engine_cfg, &s.deadline,
                                         pool)
                     : runEngine(sys, inst.vars, resolved, init,
                                 engine_cfg, &s.deadline);
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
                                  &pool, span_parent]() {
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
                            resolved, init, config, pool);
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
