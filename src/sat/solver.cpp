#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace rtlrepair::sat {

Solver::Solver() = default;

namespace {

inline uint64_t
xorshift(uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

} // namespace

void
Solver::setPhaseSeed(uint64_t seed)
{
    _phase_seed = seed;
    if (seed == 0) {
        for (size_t i = 0; i < _polarity.size(); ++i)
            _polarity[i] = true;  // default phase: false (sign=true)
        return;
    }
    uint64_t state = seed;
    for (size_t i = 0; i < _polarity.size(); ++i)
        _polarity[i] = (xorshift(state) & 1) != 0;
    _phase_seed = state ? state : seed;
}

Var
Solver::newVar()
{
    Var v = static_cast<Var>(_assigns.size());
    _assigns.push_back(LBool::Undef);
    bool phase = true;  // default phase: false (sign=true)
    if (_phase_seed != 0)
        phase = (xorshift(_phase_seed) & 1) != 0;
    _polarity.push_back(phase);
    _activity.push_back(0.0);
    _level.push_back(0);
    _reason.push_back(kNoReason);
    _seen.push_back(false);
    _watches.emplace_back();
    _watches.emplace_back();
    _heap_index.push_back(-1);
    _model.push_back(false);
    insertVarOrder(v);
    return v;
}

LBool
Solver::value(Lit l) const
{
    LBool v = _assigns[var(l)];
    if (v == LBool::Undef)
        return LBool::Undef;
    bool b = v == LBool::True;
    return fromBool(sign(l) ? !b : b);
}

bool
Solver::addClause(std::vector<Lit> lits)
{
    if (!_ok)
        return false;
    check(_trail_lim.empty(), "addClause above decision level 0");

    // Normalize in place: sort, dedup, drop false lits, detect
    // tautology.
    std::sort(lits.begin(), lits.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    size_t out = 0;
    Lit prev = kUndefLit;
    for (Lit l : lits) {
        check(var(l) >= 0 && var(l) < numVars(),
              "literal references unknown variable");
        if (value(l) == LBool::True || l == ~prev)
            return true;  // satisfied or tautological
        if (value(l) == LBool::False || l == prev)
            continue;
        lits[out++] = l;
        prev = l;
    }

    if (out == 0) {
        _ok = false;
        return false;
    }
    if (out == 1) {
        uncheckedEnqueue(lits[0], kNoReason);
        _ok = propagate() == kNoReason;
        return _ok;
    }
    attachClause(newClause(lits.data(), out, false));
    return true;
}

Solver::ClauseRef
Solver::newClause(const Lit *first, size_t size, bool learnt)
{
    check(_lits.size() + size <= UINT32_MAX, "clause pool overflow");
    Clause c;
    c.learnt = learnt;
    c.start = static_cast<uint32_t>(_lits.size());
    c.size = static_cast<uint32_t>(size);
    _lits.insert(_lits.end(), first, first + size);
    _clauses.push_back(c);
    return static_cast<ClauseRef>(_clauses.size() - 1);
}

void
Solver::attachClause(ClauseRef cref)
{
    const Lit *c = lits(_clauses[cref]);
    _watches[(~c[0]).x].push_back(Watcher{cref, c[1]});
    _watches[(~c[1]).x].push_back(Watcher{cref, c[0]});
}

void
Solver::uncheckedEnqueue(Lit l, ClauseRef reason)
{
    Var v = var(l);
    _assigns[v] = fromBool(!sign(l));
    _level[v] = static_cast<int>(_trail_lim.size());
    _reason[v] = reason;
    _trail.push_back(l);
}

Solver::ClauseRef
Solver::propagate()
{
    while (_qhead < _trail.size()) {
        Lit p = _trail[_qhead++];
        ++propagations;
        auto &watchers = _watches[p.x];
        size_t keep = 0;
        for (size_t wi = 0; wi < watchers.size(); ++wi) {
            Watcher w = watchers[wi];
            if (value(w.blocker) == LBool::True) {
                watchers[keep++] = w;
                continue;
            }
            const Clause &clause = _clauses[w.clause];
            if (clause.removed)
                continue;  // lazily dropped
            Lit *c = lits(clause);
            // Ensure the false literal is c[1].
            Lit false_lit = ~p;
            if (c[0] == false_lit)
                std::swap(c[0], c[1]);
            // First watch true?
            if (value(c[0]) == LBool::True) {
                watchers[keep++] = Watcher{w.clause, c[0]};
                continue;
            }
            // Look for a new watch.
            bool found = false;
            for (size_t k = 2; k < clause.size; ++k) {
                if (value(c[k]) != LBool::False) {
                    std::swap(c[1], c[k]);
                    _watches[(~c[1]).x].push_back(
                        Watcher{w.clause, c[0]});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            // Unit or conflicting.
            watchers[keep++] = Watcher{w.clause, c[0]};
            if (value(c[0]) == LBool::False) {
                // Conflict: keep remaining watchers, then report.
                for (size_t rest = wi + 1; rest < watchers.size();
                     ++rest) {
                    watchers[keep++] = watchers[rest];
                }
                watchers.resize(keep);
                _qhead = _trail.size();
                return w.clause;
            }
            uncheckedEnqueue(c[0], w.clause);
        }
        watchers.resize(keep);
    }
    return kNoReason;
}

void
Solver::analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                int &out_btlevel)
{
    int path_count = 0;
    Lit p = kUndefLit;
    out_learnt.clear();
    out_learnt.push_back(kUndefLit);  // placeholder for the UIP
    size_t index = _trail.size();

    ClauseRef reason = confl;
    do {
        check(reason != kNoReason, "conflict analysis hit a decision");
        Clause &c = _clauses[reason];
        if (c.learnt)
            claBumpActivity(c);
        const Lit *cl = lits(c);
        size_t start = (p == kUndefLit) ? 0 : 1;
        for (size_t i = start; i < c.size; ++i) {
            Lit q = cl[i];
            Var v = var(q);
            if (_seen[v] || _level[v] == 0)
                continue;
            _seen[v] = true;
            varBumpActivity(v);
            if (_level[v] >= static_cast<int>(_trail_lim.size())) {
                ++path_count;
            } else {
                out_learnt.push_back(q);
            }
        }
        // Pick the next literal to expand.
        while (!_seen[var(_trail[--index])]) {}
        p = _trail[index];
        _seen[var(p)] = false;
        reason = _reason[var(p)];
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Clause minimization: drop literals implied by the rest.
    _analyze_toclear.assign(out_learnt.begin(), out_learnt.end());
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < out_learnt.size(); ++i) {
        abstract_levels |=
            1u << (_level[var(out_learnt[i])] & 31);
    }
    size_t keep = 1;
    for (size_t i = 1; i < out_learnt.size(); ++i) {
        Var v = var(out_learnt[i]);
        if (_reason[v] == kNoReason ||
            !litRedundant(out_learnt[i], abstract_levels)) {
            out_learnt[keep++] = out_learnt[i];
        }
    }
    out_learnt.resize(keep);
    for (Lit l : _analyze_toclear)
        _seen[var(l)] = false;

    // Compute the backtrack level (second-highest level).
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        size_t max_i = 1;
        for (size_t i = 2; i < out_learnt.size(); ++i) {
            if (_level[var(out_learnt[i])] >
                _level[var(out_learnt[max_i])]) {
                max_i = i;
            }
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = _level[var(out_learnt[1])];
    }
}

bool
Solver::litRedundant(Lit l, uint32_t abstract_levels)
{
    _analyze_stack.clear();
    _analyze_stack.push_back(l);
    size_t top = _analyze_toclear.size();
    while (!_analyze_stack.empty()) {
        Lit cur = _analyze_stack.back();
        _analyze_stack.pop_back();
        check(_reason[var(cur)] != kNoReason, "redundancy on decision");
        const Clause &c = _clauses[_reason[var(cur)]];
        const Lit *cl = lits(c);
        for (size_t i = 1; i < c.size; ++i) {
            Lit q = cl[i];
            Var v = var(q);
            if (_seen[v] || _level[v] == 0)
                continue;
            if (_reason[v] != kNoReason &&
                ((1u << (_level[v] & 31)) & abstract_levels) != 0) {
                _seen[v] = true;
                _analyze_stack.push_back(q);
                _analyze_toclear.push_back(q);
            } else {
                // Not redundant; undo marks made in this call.
                for (size_t j = top; j < _analyze_toclear.size(); ++j)
                    _seen[var(_analyze_toclear[j])] = false;
                _analyze_toclear.resize(top);
                return false;
            }
        }
    }
    return true;
}

void
Solver::analyzeFinal(Lit failing)
{
    // Final-conflict analysis: @p failing is an assumption literal
    // found False during assumption enqueueing.  Walk the implication
    // graph from ~failing back to the decisions that caused it; every
    // decision above level 0 is an earlier assumption, so the
    // collected set is an UNSAT core of the assumptions.
    _conflict.clear();
    _conflict.push_back(failing);
    if (_trail_lim.empty())
        return;  // implied at level 0: {failing} alone is a core
    _seen[var(failing)] = true;
    for (size_t i = _trail.size();
         i-- > static_cast<size_t>(_trail_lim[0]);) {
        Var v = var(_trail[i]);
        if (!_seen[v])
            continue;
        if (_reason[v] == kNoReason) {
            _conflict.push_back(_trail[i]);
        } else {
            const Clause &c = _clauses[_reason[v]];
            const Lit *cl = lits(c);
            for (size_t k = 0; k < c.size; ++k) {
                Lit q = cl[k];
                if (var(q) != v && _level[var(q)] > 0)
                    _seen[var(q)] = true;
            }
        }
        _seen[v] = false;
    }
    _seen[var(failing)] = false;
}

void
Solver::cancelUntil(int level)
{
    if (static_cast<int>(_trail_lim.size()) <= level)
        return;
    for (size_t i = _trail.size();
         i-- > static_cast<size_t>(_trail_lim[level]);) {
        Var v = var(_trail[i]);
        _assigns[v] = LBool::Undef;
        _polarity[v] = sign(_trail[i]);
        _reason[v] = kNoReason;
        if (_heap_index[v] < 0)
            insertVarOrder(v);
    }
    _trail.resize(_trail_lim[level]);
    _trail_lim.resize(level);
    _qhead = _trail.size();
}

void
Solver::insertVarOrder(Var v)
{
    if (_heap_index[v] >= 0)
        return;
    _heap_index[v] = static_cast<int>(_heap.size());
    _heap.push_back(v);
    heapPercolateUp(_heap_index[v]);
}

void
Solver::heapPercolateUp(int pos)
{
    Var v = _heap[pos];
    while (pos > 0) {
        int parent = (pos - 1) >> 1;
        if (_activity[_heap[parent]] >= _activity[v])
            break;
        _heap[pos] = _heap[parent];
        _heap_index[_heap[pos]] = pos;
        pos = parent;
    }
    _heap[pos] = v;
    _heap_index[v] = pos;
}

void
Solver::heapPercolateDown(int pos)
{
    Var v = _heap[pos];
    int size = static_cast<int>(_heap.size());
    while (true) {
        int child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            _activity[_heap[child + 1]] > _activity[_heap[child]]) {
            ++child;
        }
        if (_activity[_heap[child]] <= _activity[v])
            break;
        _heap[pos] = _heap[child];
        _heap_index[_heap[pos]] = pos;
        pos = child;
    }
    _heap[pos] = v;
    _heap_index[v] = pos;
}

Var
Solver::heapPop()
{
    Var top = _heap[0];
    _heap_index[top] = -1;
    _heap[0] = _heap.back();
    _heap.pop_back();
    if (!_heap.empty()) {
        _heap_index[_heap[0]] = 0;
        heapPercolateDown(0);
    }
    return top;
}

Lit
Solver::pickBranchLit()
{
    while (!heapEmpty()) {
        Var v = heapPop();
        if (_assigns[v] == LBool::Undef)
            return mkLit(v, _polarity[v]);
    }
    return kUndefLit;
}

void
Solver::varBumpActivity(Var v)
{
    _activity[v] += _var_inc;
    if (_activity[v] > 1e100) {
        for (auto &a : _activity)
            a *= 1e-100;
        _var_inc *= 1e-100;
    }
    if (_heap_index[v] >= 0)
        heapPercolateUp(_heap_index[v]);
}

void
Solver::varDecayActivity()
{
    _var_inc /= _var_decay;
}

void
Solver::claBumpActivity(Clause &c)
{
    c.activity += _cla_inc;
    if (c.activity > 1e20f) {
        for (auto &cl : _clauses) {
            if (cl.learnt)
                cl.activity *= 1e-20f;
        }
        _cla_inc *= 1e-20f;
    }
}

void
Solver::claDecayActivity()
{
    _cla_inc /= _cla_decay;
}

void
Solver::reduceDB()
{
    // Remove the less active half of the learnt clauses (keeping
    // binary clauses and current reasons).
    std::vector<float> acts;
    for (const auto &c : _clauses) {
        if (c.learnt && !c.removed && c.size > 2)
            acts.push_back(c.activity);
    }
    if (acts.size() < 2)
        return;
    std::nth_element(acts.begin(), acts.begin() + acts.size() / 2,
                     acts.end());
    float median = acts[acts.size() / 2];

    std::vector<bool> is_reason(_clauses.size(), false);
    for (Lit l : _trail) {
        if (_reason[var(l)] != kNoReason)
            is_reason[_reason[var(l)]] = true;
    }
    for (size_t i = 0; i < _clauses.size(); ++i) {
        Clause &c = _clauses[i];
        if (c.learnt && !c.removed && c.size > 2 &&
            !is_reason[i] && c.activity < median) {
            c.removed = true;
        }
    }

    // Physically compact the headers and the literal pool together:
    // long-lived incremental sessions would otherwise accumulate ghost
    // clauses that every rebuildWatches() and activity rescale still
    // iterates.  Survivors keep their order and their literal order,
    // so the search is unchanged.  Reason clauses are never marked
    // removed (see above), so remapping the surviving references
    // keeps the trail's implication graph valid.
    std::vector<ClauseRef> remap(_clauses.size(), kNoReason);
    size_t out = 0;
    size_t pool = 0;
    for (size_t i = 0; i < _clauses.size(); ++i) {
        Clause c = _clauses[i];
        if (c.removed)
            continue;
        remap[i] = static_cast<ClauseRef>(out);
        if (c.start != pool) {
            std::copy(_lits.begin() + c.start,
                      _lits.begin() + c.start + c.size,
                      _lits.begin() + pool);
        }
        c.start = static_cast<uint32_t>(pool);
        pool += c.size;
        _clauses[out++] = c;
    }
    _clauses.resize(out);
    _lits.resize(pool);
    for (auto &r : _reason) {
        if (r != kNoReason)
            r = remap[r];
    }

    _num_learnt = 0;
    for (const auto &c : _clauses) {
        if (c.learnt)
            ++_num_learnt;
    }
    rebuildWatches();
}

void
Solver::rebuildWatches()
{
    for (auto &w : _watches)
        w.clear();
    for (size_t i = 0; i < _clauses.size(); ++i) {
        if (!_clauses[i].removed)
            attachClause(static_cast<ClauseRef>(i));
    }
}

double
Solver::luby(double y, int i)
{
    int size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i = i % size;
    }
    return std::pow(y, seq);
}

LBool
Solver::solve(const std::vector<Lit> &assumptions,
              const Deadline *deadline)
{
    telemetry::Span span("sat.solve");
    ++solve_calls;
    _conflict.clear();
    if (!_ok)
        return LBool::False;  // empty core: UNSAT without assumptions
    check(_trail_lim.empty(), "solve() while not at level 0");

    int restart_count = 0;
    uint64_t conflict_budget =
        static_cast<uint64_t>(luby(2.0, restart_count) * 100.0);
    uint64_t conflicts_here = 0;
    std::vector<Lit> learnt;
    int btlevel = 0;

    while (true) {
        ClauseRef confl = propagate();
        if (confl != kNoReason) {
            ++conflicts;
            ++conflicts_here;
            if (_trail_lim.empty()) {
                _ok = false;
                return LBool::False;
            }
            analyze(confl, learnt, btlevel);
            cancelUntil(btlevel);
            if (learnt.size() == 1) {
                uncheckedEnqueue(learnt[0], kNoReason);
            } else {
                ClauseRef cref =
                    newClause(learnt.data(), learnt.size(), true);
                claBumpActivity(_clauses[cref]);
                attachClause(cref);
                uncheckedEnqueue(learnt[0], cref);
                ++_num_learnt;
                if (_num_learnt > learnt_peak)
                    learnt_peak = _num_learnt;
            }
            varDecayActivity();
            claDecayActivity();
            // The conflict path continues without reaching the check
            // below; poll every 128 conflicts so a cancelled or timed
            // out solve stops even when propagation conflicts
            // continuously (first-success portfolio cancellation).
            if ((conflicts_here & 127u) == 0 && deadline &&
                deadline->expired()) {
                cancelUntil(0);
                return LBool::Undef;
            }
            continue;
        }

        if (deadline && deadline->expired()) {
            cancelUntil(0);
            return LBool::Undef;
        }
        if (conflicts_here >= conflict_budget) {
            // Restart.
            ++restarts;
            ++restart_count;
            conflicts_here = 0;
            conflict_budget = static_cast<uint64_t>(
                luby(2.0, restart_count) * 100.0);
            cancelUntil(0);
            continue;
        }
        if (_num_learnt > _learnt_limit) {
            reduceDB();
            _learnt_limit = _learnt_limit * 11 / 10;
        }

        // Assumptions, then a decision.
        Lit next = kUndefLit;
        while (_trail_lim.size() < assumptions.size()) {
            Lit a = assumptions[_trail_lim.size()];
            if (value(a) == LBool::True) {
                // Already satisfied; open an empty decision level.
                _trail_lim.push_back(static_cast<int>(_trail.size()));
            } else if (value(a) == LBool::False) {
                // UNSAT under assumptions: extract the failed
                // assumption core before unwinding the trail.
                analyzeFinal(a);
                cancelUntil(0);
                return LBool::False;
            } else {
                next = a;
                break;
            }
        }
        if (next == kUndefLit) {
            ++decisions;
            next = pickBranchLit();
            if (next == kUndefLit) {
                // Model found.
                for (Var v = 0; v < numVars(); ++v)
                    _model[v] = _assigns[v] == LBool::True;
                cancelUntil(0);
                return LBool::True;
            }
        }
        _trail_lim.push_back(static_cast<int>(_trail.size()));
        uncheckedEnqueue(next, kNoReason);
    }
}

bool
Solver::modelValue(Var v) const
{
    return _model[v];
}

} // namespace rtlrepair::sat
