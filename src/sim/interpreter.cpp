#include "sim/interpreter.hpp"

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::sim {

using bv::Value;
using ir::Node;
using ir::NodeKind;
using ir::NodeRef;

Interpreter::Interpreter(const ir::TransitionSystem &sys,
                         SimOptions options)
    : _sys(sys), _options(options), _rng(options.seed)
{
    _node_vals.resize(_sys.nodes.size());
    _state_vals.resize(_sys.states.size());
    _input_vals.resize(_sys.inputs.size());
    _synth_vals.resize(_sys.synth_vars.size());
    for (size_t i = 0; i < _sys.inputs.size(); ++i)
        _input_vals[i] = Value::allX(_sys.inputs[i].width);
    for (size_t i = 0; i < _sys.synth_vars.size(); ++i)
        _synth_vals[i] = Value::zeros(_sys.synth_vars[i].width);
    reset();
}

void
Interpreter::reset()
{
    for (size_t i = 0; i < _sys.states.size(); ++i) {
        const auto &st = _sys.states[i];
        Value v = st.init ? *st.init : Value::allX(st.width);
        _state_vals[i] = applyPolicy(v, _options.init_policy);
    }
    _cycle_valid = false;
}

Value
Interpreter::applyPolicy(const Value &v, XPolicy policy)
{
    if (!v.hasX())
        return v;
    switch (policy) {
      case XPolicy::Keep: return v;
      case XPolicy::Zero: return v.xToZero();
      case XPolicy::Random: return v.xToRandom(_rng);
    }
    return v;
}

void
Interpreter::setInput(size_t index, const Value &value)
{
    check(index < _input_vals.size(), "input index out of range");
    // Tolerate width mismatches (bugs can change port widths):
    // zero-extend or truncate like a Verilog connection would.
    Value &slot = _input_vals[index];
    slot = value.resize(_sys.inputs[index].width);
    if (slot.hasX())
        slot = applyPolicy(slot, _options.input_policy);
    _cycle_valid = false;
}

void
Interpreter::setInputByName(const std::string &name, const Value &value)
{
    int idx = _sys.inputIndex(name);
    check(idx >= 0, "unknown input: " + name);
    setInput(static_cast<size_t>(idx), value);
}

void
Interpreter::setSynthVar(size_t index, const Value &value)
{
    check(index < _synth_vals.size(), "synth var index out of range");
    check(value.width() == _sys.synth_vars[index].width,
          "synth var width mismatch");
    _synth_vals[index] = value;
    _cycle_valid = false;
}

void
Interpreter::setSynthVarByName(const std::string &name,
                               const Value &value)
{
    int idx = _sys.synthVarIndex(name);
    check(idx >= 0, "unknown synth var: " + name);
    setSynthVar(static_cast<size_t>(idx), value);
}

void
Interpreter::setState(size_t index, const Value &value)
{
    check(index < _state_vals.size(), "state index out of range");
    check(value.width() == _sys.states[index].width,
          "state width mismatch");
    _state_vals[index] = value;
    _cycle_valid = false;
}

void
Interpreter::evalCycle()
{
    for (NodeRef ref = 0; ref < _sys.nodes.size(); ++ref) {
        const Node &n = _sys.nodes[ref];
        switch (n.kind) {
          case NodeKind::Const:
            _node_vals[ref] = _sys.consts[n.index];
            break;
          case NodeKind::Input:
            _node_vals[ref] = _input_vals[n.index];
            break;
          case NodeKind::SynthVar:
            _node_vals[ref] = _synth_vals[n.index];
            break;
          case NodeKind::State:
            _node_vals[ref] = _state_vals[n.index];
            break;
          default: {
            const Value *a0 = &_node_vals[n.args[0]];
            const Value *a1 =
                n.args[1] != ir::kNullRef ? &_node_vals[n.args[1]]
                                          : nullptr;
            const Value *a2 =
                n.args[2] != ir::kNullRef ? &_node_vals[n.args[2]]
                                          : nullptr;
            _node_vals[ref] = ir::evalOp(n, a0, a1, a2);
            break;
          }
        }
    }
    _cycle_valid = true;
}

void
Interpreter::step()
{
    if (!_cycle_valid)
        evalCycle();
    for (size_t i = 0; i < _sys.states.size(); ++i)
        _state_vals[i] = _node_vals[_sys.states[i].next];
    _cycle_valid = false;
}

const Value &
Interpreter::valueOf(NodeRef ref) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    return _node_vals[ref];
}

const Value &
Interpreter::output(size_t index) const
{
    check(index < _sys.outputs.size(), "output index out of range");
    return valueOf(_sys.outputs[index].ref);
}

const Value &
Interpreter::stateValue(size_t index) const
{
    check(index < _state_vals.size(), "state index out of range");
    return _state_vals[index];
}

ReplayResult
replay(Interpreter &interp, const trace::IoTrace &io)
{
    TraceBinding bind(interp.system(), io.inputs, io.outputs);
    interp.reset();
    return replayCycles(interp, bind, io);
}

trace::IoTrace
record(const ir::TransitionSystem &golden,
       const trace::InputSequence &stim, SimOptions options)
{
    std::vector<trace::Column> outputs;
    for (const auto &out : golden.outputs)
        outputs.push_back(trace::Column{out.name, golden.width(out.ref)});
    TraceBinding bind(golden, stim.inputs, outputs);
    Interpreter interp(golden, options);
    // Reset again, as replay() does on a fresh interpreter, so a
    // Random init policy draws the start state a replay would.
    interp.reset();
    return recordCycles(interp, bind, stim, std::move(outputs));
}

} // namespace rtlrepair::sim
