#include "repair/windowing.hpp"

#include <cstring>

#include "ir/specialize.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace rtlrepair::repair {

using bv::Value;
using templates::SynthAssignment;

namespace {

using telemetry::MetricKind;

// Deterministic: bumped only via recordWindowStat when the driver
// folds the final outcome's candidate list.
telemetry::Counter s_solves("window.solves");
telemetry::Counter s_sat("window.sat");
telemetry::Counter s_unsat("window.unsat");
telemetry::Counter s_timeout("window.timeout");
telemetry::Counter s_conflicts("sat.conflicts");
telemetry::Counter s_propagations("sat.propagations");
telemetry::Counter s_restarts("sat.restarts");
telemetry::Counter s_aig_nodes("window.aig_nodes");
telemetry::Counter s_reused_nodes("window.reused_aig_nodes");
telemetry::Counter s_sat_calls("window.sat_calls");
telemetry::Gauge s_learnt_peak("sat.learnt_db_peak",
                               MetricKind::Deterministic);
// Wall-clock totals of the consumed solves.
telemetry::Counter s_solve_us("window.solve_us",
                              MetricKind::Unstable);
telemetry::Counter s_encode_us("window.encode_us",
                               MetricKind::Unstable);
telemetry::Counter s_slack_us("window.deadline_slack_us",
                              MetricKind::Unstable);
// Windows the incremental engine resolved from an UNSAT core alone
// (no solve, no encode): a core free of the window anchor proves
// every larger window UNSAT.
telemetry::Counter s_fastforward("window.core_fastforward");
// Trace cycles replayed validating candidates.  Baseline and prefix
// replays show only as spans: at jobs>1 the portfolio runs them for
// templates past the cascade's stopping point.
telemetry::Counter s_sim_cycles("sim.cycles");

const sim::SimOptions kReplayOptions{sim::XPolicy::Keep,
                                     sim::XPolicy::Keep, 1};

/** Every synthesis variable of @p sys as @p assignment sets it (zero
 *  where the assignment does not name it). */
std::vector<Value>
fixedUnder(const ir::TransitionSystem &sys,
           const SynthAssignment &assignment)
{
    std::vector<Value> fixed;
    fixed.reserve(sys.synth_vars.size());
    for (const ir::SynthVarInfo &info : sys.synth_vars) {
        auto it = assignment.values.find(info.name);
        fixed.push_back(it != assignment.values.end()
                            ? it->second
                            : Value::zeros(info.width));
    }
    return fixed;
}

} // namespace

void
captureQueryStats(WindowStat &stat, const RepairQuery &query,
                  const Deadline *deadline)
{
    stat.aig_nodes = query.aigNodes();
    stat.reused_aig_nodes = query.reusedAigNodes();
    stat.encode_seconds = query.encodeSeconds();
    stat.sat_calls = query.satCalls();
    stat.conflicts = query.conflicts();
    stat.propagations = query.propagations();
    stat.restarts = query.restarts();
    stat.learnt_peak = query.learntPeak();
    if (deadline) {
        double left = deadline->remaining();
        stat.deadline_slack = left < 1e17 ? left : -1.0;
    }
}

void
recordWindowStat(const WindowStat &stat)
{
    s_solves.add(1);
    if (std::strcmp(stat.status, "sat") == 0)
        s_sat.add(1);
    else if (std::strcmp(stat.status, "unsat") == 0)
        s_unsat.add(1);
    else if (std::strcmp(stat.status, "timeout") == 0)
        s_timeout.add(1);
    s_conflicts.add(stat.conflicts);
    s_propagations.add(stat.propagations);
    s_restarts.add(stat.restarts);
    s_aig_nodes.add(stat.aig_nodes);
    s_reused_nodes.add(stat.reused_aig_nodes);
    s_sat_calls.add(stat.sat_calls);
    s_sim_cycles.add(stat.replay_cycles);
    s_learnt_peak.record(stat.learnt_peak);
    if (stat.sat_calls == 0 && stat.aig_nodes == 0)
        s_fastforward.add(1);
    s_solve_us.add(
        static_cast<uint64_t>(stat.solve_seconds * 1e6));
    s_encode_us.add(
        static_cast<uint64_t>(stat.encode_seconds * 1e6));
    if (stat.deadline_slack >= 0.0) {
        s_slack_us.add(
            static_cast<uint64_t>(stat.deadline_slack * 1e6));
    }
}

WindowLadder::Window
WindowLadder::window() const
{
    Window w;
    w.start = failure >= k_past ? failure - k_past : 0;
    size_t end = std::min(trace_len, failure + k_future + 1);
    w.count = end - w.start;
    return w;
}

void
WindowLadder::growFuture(size_t latest_failure)
{
    size_t needed = latest_failure - failure;
    k_future = std::max(k_future + 1, needed);
}

ConcreteRunner::ConcreteRunner(const ir::TransitionSystem &sys,
                               const trace::IoTrace &resolved,
                               std::vector<Value> init)
    : _sys(sys), _io(resolved), _init(std::move(init)),
      _bind(sys, resolved.inputs, resolved.outputs),
      _off(ir::specialize(sys, fixedUnder(sys, SynthAssignment{}))),
      _off_interp(_off, kReplayOptions)
{
    check(_init.size() == sys.states.size(), "init size mismatch");
}

sim::ReplayResult
ConcreteRunner::replay(sim::Interpreter &interp)
{
    for (size_t i = 0; i < _init.size(); ++i)
        interp.setState(i, _init[i]);
    return sim::replayCycles(interp, _bind, _io);
}

sim::ReplayResult
ConcreteRunner::run(const SynthAssignment &assignment)
{
    if (assignment.values.empty()) {
        telemetry::Span span("replay:baseline");
        return replay(_off_interp);
    }
    telemetry::Span span("replay:candidates");
    ir::TransitionSystem spec =
        ir::specialize(_sys, fixedUnder(_sys, assignment));
    sim::Interpreter interp(spec, kReplayOptions);
    return replay(interp);
}

std::vector<sim::ReplayResult>
ConcreteRunner::runBatch(const std::vector<SynthAssignment> &assignments)
{
    std::vector<sim::ReplayResult> out;
    for (const auto &a : assignments) {
        out.push_back(run(a));
        if (out.back().passed)
            break;
    }
    return out;
}

std::vector<Value>
ConcreteRunner::statesAt(size_t cycle)
{
    if (cycle == 0)
        return _init;
    telemetry::Span span("replay:prefix");
    auto it = _snapshots.upper_bound(cycle);
    if (it != _snapshots.begin()) {
        --it;
        if (it->first == cycle)
            return it->second;
        return statesFrom(it->first, it->second, cycle);
    }
    return statesFrom(0, _init, cycle);
}

std::vector<Value>
ConcreteRunner::statesFrom(size_t snapshot_cycle,
                           const std::vector<Value> &snapshot,
                           size_t cycle)
{
    check(snapshot_cycle <= cycle, "snapshot is after target cycle");
    // The ladder asks for successively *earlier* window starts, so
    // snapshots taken shortly before the current target are the ones
    // the next call resumes from.
    constexpr size_t kStride = 16;
    constexpr size_t kTail = 64;
    auto currentStates = [&] {
        std::vector<Value> states;
        states.reserve(_off.states.size());
        for (size_t i = 0; i < _off.states.size(); ++i)
            states.push_back(_off_interp.stateValue(i));
        return states;
    };
    for (size_t i = 0; i < snapshot.size(); ++i)
        _off_interp.setState(i, snapshot[i]);
    for (size_t c = snapshot_cycle; c < cycle; ++c) {
        if (c > snapshot_cycle && c % kStride == 0 &&
            cycle - c <= kTail) {
            _snapshots.emplace(c, currentStates());
        }
        _bind.applyInputs(_off_interp, _io.input_rows[c]);
        _off_interp.step();
    }
    std::vector<Value> out = currentStates();
    _snapshots.emplace(cycle, out);
    return out;
}

namespace {

uint64_t
totalReplayCycles(const std::vector<sim::ReplayResult> &replays)
{
    uint64_t total = 0;
    for (const auto &r : replays)
        total += replayCycles(r);
    return total;
}

EngineResult
runBasic(const ir::TransitionSystem &sys,
         const templates::SynthVarTable &vars,
         const trace::IoTrace &resolved, const std::vector<Value> &init,
         ConcreteRunner &runner, const Deadline *deadline,
         size_t first_failure)
{
    EngineResult result;
    result.first_failure = first_failure;

    Stopwatch watch;
    RepairQuery query(sys, vars, resolved, 0, resolved.length(),
                      init, deadline);
    SynthesisResult synth = synthesizeMinimalRepairs(
        query, vars, kBasicMaxCandidates, deadline);
    WindowStat stat;
    stat.k_past = static_cast<int>(first_failure);
    stat.k_future =
        static_cast<int>(resolved.length() - first_failure);
    stat.solve_seconds = watch.seconds();
    captureQueryStats(stat, query, deadline);
    switch (synth.status) {
      case SynthesisResult::Status::Timeout:
        stat.status = "timeout";
        result.windows.push_back(stat);
        result.status = EngineResult::Status::Timeout;
        return result;
      case SynthesisResult::Status::NoRepair:
        stat.status = "unsat";
        result.windows.push_back(stat);
        result.status = EngineResult::Status::NoRepair;
        return result;
      case SynthesisResult::Status::Found:
        stat.status = "sat";
        stat.changes = synth.changes;
        result.windows.push_back(stat);
        break;
    }
    std::vector<sim::ReplayResult> replays =
        runner.runBatch(synth.repairs);
    result.windows.back().replay_cycles = totalReplayCycles(replays);
    for (size_t i = 0; i < replays.size(); ++i) {
        if (replays[i].passed) {
            result.status = EngineResult::Status::Repaired;
            result.assignment = synth.repairs[i];
            result.changes = synth.changes;
            return result;
        }
    }
    // All sampled solutions satisfy the symbolic query but fail the
    // 4-state replay (an X-semantics corner); report no repair.
    result.status = EngineResult::Status::NoRepair;
    return result;
}

} // namespace

EngineResult
runEngine(const ir::TransitionSystem &sys,
          const templates::SynthVarTable &vars,
          const trace::IoTrace &resolved,
          const std::vector<Value> &init, const EngineConfig &config,
          const GuardConfig &guard_cfg, const Deadline *deadline)
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

    if (!config.adaptive) {
        return runBasic(sys, vars, resolved, init, runner, deadline,
                        f);
    }

    // The degradation ladder may halve the window growth step after a
    // faulted solve.
    size_t past_step = kPastStep;
    const std::string solve_stage = solveStageName(config.stage_label);
    int retries_used = 0;
    uint64_t solver_seed = 0;

    // One persistent query lives across the whole ladder; each window
    // retargets it in place.  Reset (and rebuilt with the retry seed)
    // when a window solve faults.
    std::optional<RepairQuery> inc_query;

    WindowLadder ladder;
    ladder.failure = f;
    ladder.trace_len = resolved.length();
    while (true) {
        if (deadline && deadline->expired()) {
            result.status = EngineResult::Status::Timeout;
            return result;
        }
        if (ladder.exhausted()) {
            result.status = EngineResult::Status::NoRepair;
            return result;
        }
        if (memoryWatermarkExceeded(guard_cfg)) {
            result.status = EngineResult::Status::Failed;
            result.error = "RSS watermark exceeded";
            return result;
        }
        WindowLadder::Window w = ladder.window();
        logMessage(LogLevel::Info,
                   format("repair window [%zd .. %zd] (failure at %zu)",
                          static_cast<ssize_t>(w.start),
                          static_cast<ssize_t>(w.start + w.count) - 1,
                          f));

        Stopwatch watch;
        SynthesisResult synth;
        WindowStat stat;
        StageGuard guard(solve_stage, result.stages);
        guard.setRetries(retries_used);

        // UNSAT-core fast-forward: a previous window's core proved
        // the window-independent constraints inconsistent, so this
        // window (and every larger one) is UNSAT without a solve.
        // The stage guard still runs (empty) so every window visited
        // leaves one fault site and one stage report.
        bool fast_forward =
            inc_query && inc_query->windowIndependentUnsat();
        std::vector<Value> start_state;
        if (!fast_forward)
            start_state = runner.statesAt(w.start);
        bool solved = guard.run([&] {
            if (fast_forward)
                return;
            if (!inc_query) {
                inc_query.emplace(sys, vars, resolved,
                                  RepairQuery::Incremental{}, deadline,
                                  solver_seed);
            }
            inc_query->retarget(w.start, w.count, start_state,
                                deadline);
            synth = synthesizeMinimalRepairs(*inc_query, vars,
                                             config.max_candidates,
                                             deadline);
            captureQueryStats(stat, *inc_query, deadline);
        });
        if (!solved) {
            // A faulted solve may have left the persistent query in
            // an inconsistent state; rebuild it on the next attempt.
            inc_query.reset();
            // A stage-budget overrun is a timeout, not a fault to
            // retry (retrying would double the budget); the caller
            // decides whether the global run is out of time.
            if (guard.report().status == StageStatus::TimedOut) {
                result.status = EngineResult::Status::Timeout;
                return result;
            }
            // Degradation ladder, rung 1: retry the same window with a
            // reseeded solver and halved window growth.  Rung 2: give
            // up on this template only — the caller drops it from the
            // cascade and the siblings keep running.
            if (retries_used < kSolveRetries) {
                ++retries_used;
                solver_seed = retrySolverSeed(retries_used);
                past_step = past_step > 1 ? past_step / 2 : past_step;
                continue;
            }
            result.status = EngineResult::Status::Failed;
            result.error = guard.report().diagnostic;
            return result;
        }
        stat.k_past = static_cast<int>(ladder.k_past);
        stat.k_future = static_cast<int>(ladder.k_future);
        if (fast_forward) {
            stat.status = "unsat";
            result.windows.push_back(stat);
            ladder.growPast(past_step);
            continue;
        }
        stat.solve_seconds = watch.seconds();
        if (synth.status == SynthesisResult::Status::Timeout) {
            stat.status = "timeout";
            result.windows.push_back(stat);
            result.status = EngineResult::Status::Timeout;
            return result;
        }
        if (synth.status == SynthesisResult::Status::NoRepair) {
            // No repair exists in this window: more past context.
            stat.status = "unsat";
            result.windows.push_back(stat);
            ladder.growPast(past_step);
            continue;
        }
        stat.status = "sat";
        stat.changes = synth.changes;
        result.windows.push_back(stat);

        bool any_later = false;
        size_t latest_failure = f;
        std::vector<sim::ReplayResult> replays =
            runner.runBatch(synth.repairs);
        result.windows.back().replay_cycles = totalReplayCycles(replays);
        for (size_t i = 0; i < replays.size(); ++i) {
            const sim::ReplayResult &r = replays[i];
            if (r.passed) {
                result.status = EngineResult::Status::Repaired;
                result.assignment = synth.repairs[i];
                result.changes = synth.changes;
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
            ladder.growFuture(latest_failure);
        } else {
            ladder.growPast(past_step);
        }
    }
}

} // namespace rtlrepair::repair
