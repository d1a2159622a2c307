#include "smt/bv_solver.hpp"

#include <algorithm>
#include <map>

#include "util/logging.hpp"

namespace rtlrepair::smt {

using sat::LBool;
using sat::Lit;
using sat::mkLit;
using sat::Var;

Var
BvSolver::varOfNode(uint32_t node)
{
    if (_node_var.size() < _aig.numNodes())
        _node_var.resize(_aig.numNodes(), -1);
    if (_node_var[node] >= 0)
        return _node_var[node];

    // Iterative DFS to encode the AND cone below this node.
    std::vector<uint32_t> stack{node};
    while (!stack.empty()) {
        uint32_t cur = stack.back();
        if (_node_var[cur] >= 0) {
            stack.pop_back();
            continue;
        }
        if (cur == 0) {
            // Node 0 is the constant FALSE (kAigFalse is the plain
            // literal, kAigTrue its complement); force its SAT var
            // accordingly so satLitOf() maps constants faithfully.
            Var v = _sat.newVar();
            _sat.addClause(mkLit(v, true));
            _node_var[cur] = v;
            stack.pop_back();
            continue;
        }
        if (_aig.isVar(cur)) {
            _node_var[cur] = _sat.newVar();
            stack.pop_back();
            continue;
        }
        AigLit a = _aig.fanin0(cur);
        AigLit b = _aig.fanin1(cur);
        bool ready = true;
        if (_node_var[aigNode(a)] < 0) {
            stack.push_back(aigNode(a));
            ready = false;
        }
        if (_node_var[aigNode(b)] < 0) {
            stack.push_back(aigNode(b));
            ready = false;
        }
        if (!ready)
            continue;
        Var v = _sat.newVar();
        Lit la = mkLit(_node_var[aigNode(a)], aigCompl(a));
        Lit lb = mkLit(_node_var[aigNode(b)], aigCompl(b));
        Lit lv = mkLit(v);
        // v <-> a & b
        _sat.addClause(~lv, la);
        _sat.addClause(~lv, lb);
        _sat.addClause(lv, ~la, ~lb);
        _node_var[cur] = v;
        stack.pop_back();
    }
    return _node_var[node];
}

Lit
BvSolver::satLitOf(AigLit lit)
{
    // Constants work too: node 0's SAT var is forced false, so the
    // plain literal (kAigFalse) maps to False and the complemented
    // one (kAigTrue) to True.
    Var v = varOfNode(aigNode(lit));
    return mkLit(v, aigCompl(lit) != 0);
}

void
BvSolver::assertLit(AigLit lit)
{
    if (lit == kAigTrue)
        return;
    if (lit == kAigFalse) {
        // Assert false: make the instance UNSAT.
        Var v = _sat.newVar();
        _sat.addClause(mkLit(v));
        _sat.addClause(mkLit(v, true));
        return;
    }
    _sat.addClause(satLitOf(lit));
}

void
BvSolver::assertWordEquals(const Word &word, const bv::Value &value)
{
    // Width mismatches occur when a bug changes a port width (e.g.
    // the mux_k1 benchmark); compare zero-extended like a testbench
    // comparison against a wider vector would.
    bv::Value expected = value;
    if (expected.width() < word.size())
        expected = expected.zext(static_cast<uint32_t>(word.size()));
    for (uint32_t i = 0; i < expected.width(); ++i) {
        int bit = expected.bit(i);
        if (bit < 0)
            continue; // unknown bits are not constrained
        AigLit lit = i < word.size() ? word[i] : kAigFalse;
        assertLit(bit == 1 ? lit : aigNot(lit));
    }
}

sat::Lit
BvSolver::newActivationLit()
{
    return mkLit(_sat.newVar());
}

void
BvSolver::assertLitIf(Lit act, AigLit lit)
{
    if (lit == kAigTrue)
        return;
    if (lit == kAigFalse) {
        _sat.addClause(~act);
        return;
    }
    _sat.addClause(~act, satLitOf(lit));
}

void
BvSolver::assertWordEqualsIf(Lit act, const Word &word,
                             const bv::Value &value)
{
    bv::Value expected = value;
    if (expected.width() < word.size())
        expected = expected.zext(static_cast<uint32_t>(word.size()));
    for (uint32_t i = 0; i < expected.width(); ++i) {
        int bit = expected.bit(i);
        if (bit < 0)
            continue; // unknown bits are not constrained
        AigLit lit = i < word.size() ? word[i] : kAigFalse;
        assertLitIf(act, bit == 1 ? lit : aigNot(lit));
    }
}

void
BvSolver::assertWordsEqual(const Word &a, const Word &b)
{
    size_t width = std::max(a.size(), b.size());
    for (size_t i = 0; i < width; ++i) {
        AigLit la = i < a.size() ? a[i] : kAigFalse;
        AigLit lb = i < b.size() ? b[i] : kAigFalse;
        if (la == lb)
            continue;
        Lit sa = satLitOf(la);
        Lit sb = satLitOf(lb);
        _sat.addClause(~sa, sb);
        _sat.addClause(sa, ~sb);
    }
}

Result
BvSolver::solve(const std::vector<AigLit> &assumptions,
                const Deadline *deadline)
{
    std::vector<Lit> assumps;
    assumps.reserve(assumptions.size());
    for (AigLit l : assumptions) {
        if (l == kAigTrue)
            continue;
        if (l == kAigFalse)
            return Result::Unsat;
        assumps.push_back(satLitOf(l));
    }
    LBool result = _sat.solve(assumps, deadline);
    switch (result) {
      case LBool::True: return Result::Sat;
      case LBool::False: return Result::Unsat;
      case LBool::Undef: return Result::Timeout;
    }
    return Result::Timeout;
}

bool
BvSolver::modelValue(AigLit lit)
{
    // Nodes that were Tseitin-encoded take their value from the SAT
    // model; unencoded and-gates are *evaluated* through the AIG from
    // their fanins (they are fully determined by the model), and
    // unencoded variables are unconstrained — any value works, we
    // pick false.
    std::vector<uint32_t> stack{aigNode(lit)};
    std::map<uint32_t, bool> cache;
    auto known = [&](uint32_t node, bool &value) {
        if (node == 0) {
            value = false;
            return true;
        }
        if (node < _node_var.size() && _node_var[node] >= 0) {
            value = _sat.modelValue(_node_var[node]);
            return true;
        }
        auto it = cache.find(node);
        if (it != cache.end()) {
            value = it->second;
            return true;
        }
        if (_aig.isVar(node)) {
            value = false;  // unconstrained free variable
            return true;
        }
        return false;
    };
    auto litValue = [&](AigLit l, bool &value) {
        bool v;
        if (!known(aigNode(l), v))
            return false;
        value = aigCompl(l) ? !v : v;
        return true;
    };
    while (!stack.empty()) {
        uint32_t node = stack.back();
        bool ignored;
        if (known(node, ignored)) {
            stack.pop_back();
            continue;
        }
        AigLit a = _aig.fanin0(node);
        AigLit b = _aig.fanin1(node);
        bool va, vb;
        bool have_a = litValue(a, va);
        bool have_b = litValue(b, vb);
        if (have_a && have_b) {
            cache[node] = va && vb;
            stack.pop_back();
            continue;
        }
        if (!have_a)
            stack.push_back(aigNode(a));
        if (!have_b)
            stack.push_back(aigNode(b));
    }
    bool result;
    check(litValue(lit, result), "AIG model evaluation failed");
    return result;
}

bv::Value
BvSolver::modelWord(const Word &word)
{
    bv::Value out =
        bv::Value::zeros(static_cast<uint32_t>(word.size()));
    for (size_t i = 0; i < word.size(); ++i) {
        out.setBit(static_cast<uint32_t>(i),
                   modelValue(word[i]) ? 1 : 0);
    }
    return out;
}

// ---------------------------------------------------------------------
// Totalizer
// ---------------------------------------------------------------------

Totalizer::Totalizer(BvSolver &solver,
                     const std::vector<AigLit> &inputs)
    : _sat(&solver.satCore())
{
    // A SAT literal that is always true (for out-of-range queries).
    Var tv = _sat->newVar();
    _sat->addClause(mkLit(tv));
    _true_lit = mkLit(tv);

    // Leaves: one singleton list per input.
    std::vector<std::vector<Lit>> layer;
    for (AigLit in : inputs)
        layer.push_back({solver.satLitOf(in)});

    if (layer.empty())
        return;
    // Balanced merge tree.
    while (layer.size() > 1) {
        std::vector<std::vector<Lit>> next;
        for (size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(merge(layer[i], layer[i + 1]));
        if (layer.size() % 2 == 1)
            next.push_back(layer.back());
        layer = std::move(next);
    }
    _outputs = layer[0];
}

std::vector<Lit>
Totalizer::merge(const std::vector<Lit> &a, const std::vector<Lit> &b)
{
    size_t n = a.size() + b.size();
    std::vector<Lit> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(mkLit(_sat->newVar()));

    // One-sided clauses: (sum >= i+j) -> out_{i+j}.
    // a_i -> out_i
    for (size_t i = 0; i < a.size(); ++i)
        _sat->addClause(~a[i], out[i]);
    // b_j -> out_j
    for (size_t j = 0; j < b.size(); ++j)
        _sat->addClause(~b[j], out[j]);
    // a_i & b_j -> out_{i+j+1}
    for (size_t i = 0; i < a.size(); ++i) {
        for (size_t j = 0; j < b.size(); ++j)
            _sat->addClause(~a[i], ~b[j], out[i + j + 1]);
    }
    return out;
}

Lit
Totalizer::geq(size_t k) const
{
    check(k >= 1, "geq is 1-based");
    if (k > _outputs.size())
        return ~_true_lit;  // impossible
    return _outputs[k - 1];
}

Lit
Totalizer::atMost(size_t k) const
{
    if (k >= _outputs.size())
        return _true_lit;  // trivially satisfied
    return ~geq(k + 1);
}

} // namespace rtlrepair::smt
