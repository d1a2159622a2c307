#include "ir/specialize.hpp"

#include <deque>

#include "util/logging.hpp"

namespace rtlrepair::ir {

using bv::Value;

namespace {

bool
isAllOnes(const Value &v)
{
    return !v.hasX() && (~v).isZero();
}

} // namespace

TransitionSystem
specialize(const TransitionSystem &sys,
           const std::vector<Value> &fixed)
{
    check(fixed.size() == sys.synth_vars.size(),
          "specialize: one entry per synthesis variable");
    const size_t n = sys.nodes.size();

    // Forward: every node is a known constant (`known`), an alias of
    // an earlier node (`repr`, a folded ite), or itself.  Both are
    // resolved transitively, so an operand lookup is one step.
    std::vector<NodeRef> repr(n);
    std::vector<const Value *> known(n, nullptr);
    std::deque<Value> folded;  // stable addresses for `known`
    for (NodeRef ref = 0; ref < n; ++ref) {
        const Node &node = sys.nodes[ref];
        repr[ref] = ref;
        switch (node.kind) {
          case NodeKind::Const:
            known[ref] = &sys.consts[node.index];
            continue;
          case NodeKind::SynthVar:
            check(fixed[node.index].width() == node.width,
                  "specialize: synth var width mismatch");
            known[ref] = &fixed[node.index];
            continue;
          case NodeKind::Input:
          case NodeKind::State:
            continue;
          default:
            break;
        }
        const Value *args[3] = {nullptr, nullptr, nullptr};
        bool all_known = true;
        for (int i = 0; i < nodeArity(node.kind); ++i) {
            args[i] = known[node.args[i]];
            all_known = all_known && args[i];
        }
        if (all_known) {
            folded.push_back(evalOp(node, args[0], args[1], args[2]));
            known[ref] = &folded.back();
        } else if (node.kind == NodeKind::Ite && args[0] &&
                   !args[0]->hasX()) {
            NodeRef arm = node.args[args[0]->isNonZero() ? 1 : 2];
            repr[ref] = repr[arm];
            known[ref] = known[arm];
        } else if (node.kind == NodeKind::And &&
                   ((args[0] && args[0]->isZero()) ||
                    (args[1] && args[1]->isZero()))) {
            folded.push_back(Value::zeros(node.width));
            known[ref] = &folded.back();
        } else if (node.kind == NodeKind::Or &&
                   ((args[0] && isAllOnes(*args[0])) ||
                    (args[1] && isAllOnes(*args[1])))) {
            folded.push_back(Value::ones(node.width));
            known[ref] = &folded.back();
        }
    }

    // Backward: mark the unfolded nodes that outputs and next-state
    // functions reach.  Operands precede users, so one sweep suffices.
    std::vector<char> live(n, 0);
    auto mark = [&](NodeRef ref) {
        if (!known[ref])
            live[repr[ref]] = 1;
    };
    for (const auto &o : sys.outputs)
        mark(o.ref);
    for (const auto &s : sys.states) {
        mark(s.next);
        live[s.ref] = 1;
    }
    for (NodeRef ref = static_cast<NodeRef>(n); ref-- > 0;) {
        if (!live[ref])
            continue;
        const Node &node = sys.nodes[ref];
        for (int i = 0; i < nodeArity(node.kind); ++i)
            mark(node.args[i]);
    }

    // Forward: emit live nodes in their original order, materializing
    // each constant operand once, just before its first user.
    TransitionSystem out;
    out.states.resize(sys.states.size());
    for (size_t i = 0; i < sys.states.size(); ++i) {
        out.states[i].width = sys.states[i].width;
        out.states[i].init = sys.states[i].init;
    }
    out.inputs.resize(sys.inputs.size());
    for (size_t i = 0; i < sys.inputs.size(); ++i)
        out.inputs[i].width = sys.inputs[i].width;
    out.synth_vars.resize(sys.synth_vars.size());
    for (size_t i = 0; i < sys.synth_vars.size(); ++i) {
        out.synth_vars[i].width = sys.synth_vars[i].width;
        out.synth_vars[i].is_phi = sys.synth_vars[i].is_phi;
    }

    std::vector<NodeRef> remap(n, kNullRef);
    auto use = [&](NodeRef ref) -> NodeRef {
        NodeRef r = repr[ref];
        if (!known[ref])
            return remap[r];
        if (remap[r] == kNullRef) {
            Node c;
            c.kind = NodeKind::Const;
            c.width = known[ref]->width();
            c.index = static_cast<uint32_t>(out.consts.size());
            out.consts.push_back(*known[ref]);
            remap[r] = static_cast<NodeRef>(out.nodes.size());
            out.nodes.push_back(c);
        }
        return remap[r];
    };
    for (NodeRef ref = 0; ref < n; ++ref) {
        if (!live[ref])
            continue;
        Node node = sys.nodes[ref];
        for (int i = 0; i < nodeArity(node.kind); ++i)
            node.args[i] = use(node.args[i]);
        NodeRef nref = static_cast<NodeRef>(out.nodes.size());
        out.nodes.push_back(node);
        remap[ref] = nref;
        switch (node.kind) {
          case NodeKind::Input:
            out.inputs[node.index].ref = nref;
            break;
          case NodeKind::State:
            out.states[node.index].ref = nref;
            break;
          default:
            break;
        }
    }
    for (size_t i = 0; i < sys.states.size(); ++i)
        out.states[i].next = use(sys.states[i].next);
    out.outputs.resize(sys.outputs.size());
    for (size_t i = 0; i < sys.outputs.size(); ++i)
        out.outputs[i].ref = use(sys.outputs[i].ref);
    return out;
}

} // namespace rtlrepair::ir
