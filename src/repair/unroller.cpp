#include "repair/unroller.hpp"

#include <algorithm>
#include <map>

#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace rtlrepair::repair {

namespace {

// Unstable: template tasks that the portfolio cancels encode windows
// too, so the totals depend on scheduling; the deterministic
// per-window numbers are folded from WindowStat over the final
// outcome's candidate list.
telemetry::Counter s_queries("unroll.queries_encoded",
                             telemetry::MetricKind::Unstable);
telemetry::Counter s_cycles("unroll.cycles_encoded",
                            telemetry::MetricKind::Unstable);
telemetry::Counter s_nodes("unroll.aig_nodes_encoded",
                           telemetry::MetricKind::Unstable);
telemetry::Gauge s_max_window("unroll.max_window_cycles",
                              telemetry::MetricKind::Unstable);
telemetry::Counter s_dead_bounds("unroll.dead_bound_skips",
                                 telemetry::MetricKind::Unstable);

// Unrolling hundreds of thousands of cycles would exhaust memory
// long before the SAT solver gets a chance; cap the formula size
// (the paper's basic synthesizer simply times out there).
constexpr size_t kMaxAigNodes = 20u * 1000 * 1000;

} // namespace

using bv::Value;
using sat::Lit;
using smt::AigLit;
using smt::CycleBindings;
using smt::CycleWords;
using smt::Result;
using smt::Word;

void
RepairQuery::allocateSynthWords()
{
    smt::Aig &aig = _solver.aig();
    // Allocate the synthesis variables once; they are shared by every
    // unrolled cycle (design-time constants).
    _synth_words.resize(_sys.synth_vars.size());
    for (size_t i = 0; i < _sys.synth_vars.size(); ++i) {
        _synth_words[i] =
            smt::freshWord(aig, _sys.synth_vars[i].width);
        if (_sys.synth_vars[i].is_phi)
            _phi_lits.push_back(_synth_words[i][0]);
    }
}

void
RepairQuery::beginEpoch()
{
    const sat::Solver &s = _solver.satSolver();
    _base_conflicts = s.conflicts;
    _base_propagations = s.propagations;
    _base_restarts = s.restarts;
    _base_solve_calls = s.solve_calls;
    _reused_aig_nodes = _solver.aig().numNodes();
    _encode_seconds = 0.0;
}

std::vector<Word>
RepairQuery::encodeRange(size_t from, size_t to,
                         std::vector<Word> states,
                         const Deadline *deadline)
{
    smt::Aig &aig = _solver.aig();
    s_cycles.add(to - from);

    CycleBindings bindings;
    bindings.synth = _synth_words;
    bindings.states = std::move(states);

    for (size_t cycle = from; cycle < to; ++cycle) {
        if (aig.numNodes() > kMaxAigNodes ||
            (deadline && deadline->expired())) {
            _aborted = true;
            _last = smt::Result::Timeout;
            break;
        }
        // Inputs: constants from the resolved trace.
        bindings.inputs.assign(_sys.inputs.size(), Word{});
        for (size_t i = 0; i < _sys.inputs.size(); ++i) {
            bindings.inputs[i] =
                smt::freshWord(aig, _sys.inputs[i].width);
        }
        for (size_t col = 0; col < _bind.inputs.size(); ++col) {
            const Value &v = _io.input_rows[cycle][col];
            check(!v.hasX(),
                  "trace inputs must be X-resolved before encoding");
            size_t port = _bind.inputs[col];
            bindings.inputs[port] =
                smt::wordOfValue(v.resize(_sys.inputs[port].width));
        }

        CycleWords words = smt::blastCycle(aig, _sys, bindings);

        // Output assertions (X bits unchecked), gated behind a
        // per-cycle activation literal.  The ladder's windows only
        // grow, so an encoded cycle is committed immediately with a
        // unit clause; the gate keeps the mechanism retargetable and
        // gives retired constraints a single retraction point.
        Lit act = _solver.newActivationLit();
        _solver.satCore().addClause(act);
        for (size_t col = 0; col < _bind.outputs.size(); ++col) {
            _solver.assertWordEqualsIf(act,
                                       words.outputs[_bind.outputs[col]],
                                       _io.output_rows[cycle][col]);
        }

        bindings.states = std::move(words.next_states);
    }

    size_t before = _solver_aig_nodes;
    _solver_aig_nodes = aig.numNodes();
    s_nodes.add(_solver_aig_nodes - before);
    return std::move(bindings.states);
}

RepairQuery::RepairQuery(const ir::TransitionSystem &sys,
                         const templates::SynthVarTable &vars,
                         const trace::IoTrace &io, uint64_t solver_seed)
    : _sys(sys), _vars(vars), _io(io),
      _bind(sys, io.inputs, io.outputs)
{
    if (solver_seed != 0)
        _solver.satCore().setPhaseSeed(solver_seed);
    allocateSynthWords();
    _card.emplace(_solver, _phi_lits);
}

void
RepairQuery::retarget(size_t first, size_t count,
                      const std::vector<Value> &start_state,
                      const Deadline *deadline)
{
    if (_aborted)
        return;  // sticky: every solve reports Timeout
    telemetry::Span span("encode");
    s_queries.add(1);
    s_max_window.record(count);
    check(first + count <= _io.length(), "window exceeds trace");
    check(start_state.size() == _sys.states.size(),
          "start state size mismatch");

    beginEpoch();
    Stopwatch watch;
    smt::Aig &aig = _solver.aig();
    sat::Solver &sat = _solver.satCore();

    // Retire the previous window's anchor and block session: a unit
    // clause turns every gated constraint vacuous for good.
    if (_anchor != sat::kUndefLit) {
        sat.addClause(~_anchor);
        _anchor = sat::kUndefLit;
    }
    if (_session != sat::kUndefLit) {
        sat.addClause(~_session);
        _session = sat::kUndefLit;
    }

    if (!_encoded) {
        _entry_words.resize(_sys.states.size());
        for (size_t i = 0; i < _sys.states.size(); ++i) {
            _entry_words[i] =
                smt::freshWord(aig, _sys.states[i].width);
        }
        _lo = first;
        _frontier = encodeRange(first, first + count, _entry_words,
                                deadline);
        _hi = first + count;
        _encoded = true;
    } else {
        check(first <= _lo && first + count >= _hi,
              "incremental window must grow monotonically");
        if (first < _lo) {
            // Prepend: fresh entry variables, encode the new prefix,
            // then weld its next-state words onto the old entry with
            // permanent seam equalities.
            std::vector<Word> new_entry(_sys.states.size());
            for (size_t i = 0; i < _sys.states.size(); ++i) {
                new_entry[i] =
                    smt::freshWord(aig, _sys.states[i].width);
            }
            std::vector<Word> seam =
                encodeRange(first, _lo, new_entry, deadline);
            if (_aborted)
                return;
            for (size_t i = 0; i < _sys.states.size(); ++i)
                _solver.assertWordsEqual(seam[i], _entry_words[i]);
            _entry_words = std::move(new_entry);
            _lo = first;
        }
        if (first + count > _hi) {
            _frontier = encodeRange(_hi, first + count,
                                    std::move(_frontier), deadline);
            _hi = first + count;
        }
    }
    if (_aborted)
        return;

    // Anchor the (symbolic) entry state to the concrete prefix
    // simulation values of this window's start.
    _anchor = _solver.newActivationLit();
    for (size_t i = 0; i < _sys.states.size(); ++i) {
        _solver.assertWordEqualsIf(_anchor, _entry_words[i],
                                   start_state[i].xToZero());
    }
    _encode_seconds = watch.seconds();
}

std::vector<Lit>
RepairQuery::baseAssumptions() const
{
    std::vector<Lit> out;
    if (_anchor != sat::kUndefLit)
        out.push_back(_anchor);
    if (_session != sat::kUndefLit)
        out.push_back(_session);
    return out;
}

void
RepairQuery::noteUnsatCore(Lit bound, size_t max_changes)
{
    const std::vector<Lit> &core =
        _solver.satSolver().conflictCore();
    auto contains = [&](Lit l) {
        return l != sat::kUndefLit &&
               std::find(core.begin(), core.end(), l) != core.end();
    };
    // A core through the anchor blames the concrete window-start
    // state; a core through the session blames window-local blocking
    // clauses.  Either way the verdict does not outlive the window.
    if (contains(_anchor) || contains(_session))
        return;
    if (bound != sat::kUndefLit && contains(bound)) {
        // Window-independent constraints refute Σφ ≤ max_changes:
        // that bound (and every smaller one) stays UNSAT in every
        // future window.
        _dead_bound =
            std::max(_dead_bound, static_cast<long>(max_changes));
        return;
    }
    // Neither anchor, session, nor bound: the permanent clauses are
    // inconsistent on their own — all larger windows are UNSAT.
    _window_free_unsat = true;
}

Result
RepairQuery::checkFeasible(const Deadline *deadline)
{
    if (_aborted)
        return Result::Timeout;
    if (_window_free_unsat) {
        _last = Result::Unsat;
        return _last;
    }
    sat::LBool res =
        _solver.satCore().solve(baseAssumptions(), deadline);
    _last = res == sat::LBool::True    ? Result::Sat
            : res == sat::LBool::False ? Result::Unsat
                                       : Result::Timeout;
    if (_last == Result::Sat)
        _last_model = extractModel();
    else if (_last == Result::Unsat)
        noteUnsatCore(sat::kUndefLit, 0);
    return _last;
}

std::optional<templates::SynthAssignment>
RepairQuery::solveWithBound(size_t max_changes,
                            const Deadline *deadline)
{
    if (_aborted) {
        _last = Result::Timeout;
        return std::nullopt;
    }
    if (_window_free_unsat ||
        static_cast<long>(max_changes) <= _dead_bound) {
        // An earlier core proved this bound UNSAT from
        // window-independent constraints, which hold in every later
        // window too.
        if (static_cast<long>(max_changes) <= _dead_bound)
            s_dead_bounds.add(1);
        _last = Result::Unsat;
        return std::nullopt;
    }
    // Assumption-based: learnt clauses persist across bounds.
    Lit bound = _card->atMost(max_changes);
    std::vector<Lit> assumps = baseAssumptions();
    assumps.push_back(bound);
    sat::LBool res = _solver.satCore().solve(assumps, deadline);
    _last = res == sat::LBool::True    ? Result::Sat
            : res == sat::LBool::False ? Result::Unsat
                                       : Result::Timeout;
    if (_last == Result::Unsat)
        noteUnsatCore(bound, max_changes);
    if (_last != Result::Sat)
        return std::nullopt;
    _last_model = extractModel();
    return _last_model;
}

bool
RepairQuery::canonicalizeLast(size_t max_changes,
                              const Deadline *deadline)
{
    if (_aborted || !_last_model)
        return false;
    // Model-guided canonical descent: walk the synthesis bits in
    // creation order and greedily fix each to its *preferred* value
    // when a model allows it.  φ indicators prefer 1 — templates
    // mint change sites in plausibility order (invert-condition
    // before add-guard, earlier AST sites first), so the canonical
    // repair uses the sites the template ranked highest, mirroring
    // the cascade's simplest-first spirit.  α constants prefer 0.
    // A bit the current model already has at its preferred value is
    // fixed for free; otherwise one assumption solve tests whether
    // the preferred value is still satisfiable.  Once Σφ preferred
    // ones reach @p max_changes, every later φ is forced 0 by the
    // cardinality bound and fixed for free too.  The fixpoint is the
    // unique greedy-canonical model of the semantic constraint set,
    // so it does not depend on CNF layout, variable numbering, or
    // solver heuristics — the persistent solver's window history and
    // a reseeded retry leave the reported repair unchanged.  Cores
    // from these solves mention the fixed-bit assumptions and are
    // deliberately not fed to noteUnsatCore.
    std::vector<Lit> assumps = baseAssumptions();
    assumps.push_back(_card->atMost(max_changes));
    templates::SynthAssignment current = *_last_model;
    size_t ones_fixed = 0;
    for (size_t i = 0; i < _sys.synth_vars.size(); ++i) {
        const auto &sv = _sys.synth_vars[i];
        for (uint32_t b = 0; b < sv.width; ++b) {
            Lit bit = _solver.satLitOf(_synth_words[i][b]);
            bool prefer_one = sv.is_phi && ones_fixed < max_changes;
            Lit want = prefer_one ? bit : ~bit;
            bool have =
                current.values[sv.name].bit(b) == (prefer_one ? 1 : 0);
            if (!have) {
                assumps.push_back(want);
                sat::LBool res =
                    _solver.satCore().solve(assumps, deadline);
                if (res == sat::LBool::Undef) {
                    _last = Result::Timeout;
                    return false;
                }
                if (res == sat::LBool::True)
                    current = extractModel();
                else
                    assumps.back() = ~want;
            } else {
                assumps.push_back(want);
            }
            if (sv.is_phi &&
                current.values[sv.name].bit(b) == 1)
                ++ones_fixed;
        }
    }
    _last_model = std::move(current);
    return true;
}

templates::SynthAssignment
RepairQuery::extractModel()
{
    templates::SynthAssignment out;
    for (size_t i = 0; i < _sys.synth_vars.size(); ++i) {
        out.values[_sys.synth_vars[i].name] =
            _solver.modelWord(_synth_words[i]);
    }
    return out;
}

void
RepairQuery::blockAssignment(
    const templates::SynthAssignment &assignment)
{
    // Group synthesis variables by AST site; a blocked repair is the
    // combination of the φ pattern plus the α values of *active*
    // sites (inactive-α differences do not make a repair distinct).
    std::map<verilog::NodeId, bool> site_active;
    for (const auto &v : _vars.vars()) {
        if (!v.is_phi)
            continue;
        auto it = assignment.values.find(v.name);
        bool active = it != assignment.values.end() &&
                      it->second.isNonZero();
        auto [slot, inserted] = site_active.emplace(v.site, active);
        if (!inserted)
            slot->second = slot->second || active;
    }

    // Gate the exclusion behind the window's block session so it
    // evaporates (one unit clause) on retarget — a sample excluded in
    // one window stays a candidate in the next.
    if (_session == sat::kUndefLit)
        _session = _solver.newActivationLit();
    std::vector<sat::Lit> clause{~_session};
    for (size_t i = 0; i < _sys.synth_vars.size(); ++i) {
        const auto &sv = _sys.synth_vars[i];
        auto it = assignment.values.find(sv.name);
        if (it == assignment.values.end())
            continue;
        // Find the template var entry for the site lookup.
        const templates::SynthVar *tv = nullptr;
        for (const auto &cand : _vars.vars()) {
            if (cand.name == sv.name) {
                tv = &cand;
                break;
            }
        }
        bool include = sv.is_phi;
        if (!include && tv) {
            auto site = site_active.find(tv->site);
            include = site != site_active.end() && site->second;
        }
        if (!include)
            continue;
        const Value &v = it->second;
        for (uint32_t b = 0; b < sv.width; ++b) {
            AigLit bit_lit = _synth_words[i][b];
            bool bit = v.bit(b) == 1;
            // Clause: at least one bit differs.
            clause.push_back(bit ? ~_solver.satLitOf(bit_lit)
                                 : _solver.satLitOf(bit_lit));
        }
    }
    if (clause.size() > 1)
        _solver.satCore().addClause(std::move(clause));
}

} // namespace rtlrepair::repair
