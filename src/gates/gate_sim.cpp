#include "gates/gate_sim.hpp"

#include "util/logging.hpp"

namespace rtlrepair::gates {

using bv::Value;
using smt::AigLit;

GateSimulator::GateSimulator(const GateNetlist &net) : _net(net)
{
    _node_vals.resize(net.aig.numNodes(), 0);
    _state_vals.resize(net.sys->states.size());
    _input_vals.resize(net.sys->inputs.size());
    _synth_vals.resize(net.sys->synth_vars.size());
    for (size_t i = 0; i < _input_vals.size(); ++i)
        _input_vals[i] = Value::zeros(net.sys->inputs[i].width);
    for (size_t i = 0; i < _synth_vals.size(); ++i)
        _synth_vals[i] = Value::zeros(net.sys->synth_vars[i].width);
    reset();
}

void
GateSimulator::reset()
{
    for (size_t i = 0; i < _state_vals.size(); ++i) {
        const auto &st = _net.sys->states[i];
        Value v = st.init ? st.init->xToZero() : Value::zeros(st.width);
        _state_vals[i] = v;
    }
    _valid = false;
}

void
GateSimulator::setInput(size_t index, const Value &value)
{
    check(index < _input_vals.size(), "input index out of range");
    _input_vals[index] = value.xToZero();
    _valid = false;
}

void
GateSimulator::setSynthVar(size_t index, const Value &value)
{
    check(index < _synth_vals.size(), "synth index out of range");
    _synth_vals[index] = value.xToZero();
    _valid = false;
}

void
GateSimulator::evalCycle()
{
    // Seed leaf variables.
    _node_vals.assign(_net.aig.numNodes(), 0);
    for (size_t i = 0; i < _state_vals.size(); ++i)
        assignWord(_net.state_words[i], _state_vals[i]);
    for (size_t i = 0; i < _input_vals.size(); ++i)
        assignWord(_net.input_words[i], _input_vals[i]);
    for (size_t i = 0; i < _synth_vals.size(); ++i)
        assignWord(_net.synth_words[i], _synth_vals[i]);

    // Nodes are in topological (creation) order.
    for (uint32_t n = 1; n < _net.aig.numNodes(); ++n) {
        if (!_net.aig.isAnd(n))
            continue;
        AigLit a = _net.aig.fanin0(n);
        AigLit b = _net.aig.fanin1(n);
        uint8_t av = _node_vals[smt::aigNode(a)] ^ smt::aigCompl(a);
        uint8_t bv_ = _node_vals[smt::aigNode(b)] ^ smt::aigCompl(b);
        _node_vals[n] = av & bv_;
    }
    _valid = true;
}

void
GateSimulator::step()
{
    if (!_valid)
        evalCycle();
    for (size_t i = 0; i < _state_vals.size(); ++i)
        _state_vals[i] = wordValue(_net.next_words[i]);
    _valid = false;
}

Value
GateSimulator::output(size_t index) const
{
    check(_valid, "evalCycle() must run before reading outputs");
    check(index < _net.output_words.size(),
          "output index out of range");
    return wordValue(_net.output_words[index]);
}

Value
GateSimulator::wordValue(const smt::Word &word) const
{
    Value out = Value::zeros(static_cast<uint32_t>(word.size()));
    for (size_t i = 0; i < word.size(); ++i) {
        uint8_t bit =
            _node_vals[smt::aigNode(word[i])] ^ smt::aigCompl(word[i]);
        // The constant node evaluates to false; lit 1 is true.
        if (word[i] == smt::kAigTrue)
            bit = 1;
        else if (word[i] == smt::kAigFalse)
            bit = 0;
        out.setBit(static_cast<uint32_t>(i), bit ? 1 : 0);
    }
    return out;
}

void
GateSimulator::assignWord(const smt::Word &word, const Value &value)
{
    for (size_t i = 0; i < word.size(); ++i) {
        uint32_t node = smt::aigNode(word[i]);
        uint8_t bit = value.bit(static_cast<uint32_t>(i)) == 1 ? 1 : 0;
        _node_vals[node] = smt::aigCompl(word[i]) ? !bit : bit;
    }
}

sim::ReplayResult
gateReplay(const GateNetlist &net, const trace::IoTrace &io)
{
    sim::TraceBinding bind(*net.sys, io.inputs, io.outputs);
    GateSimulator sim(net);
    return sim::replayCycles(sim, bind, io);
}

} // namespace rtlrepair::gates
