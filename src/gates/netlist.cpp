#include "gates/netlist.hpp"

#include "smt/bitblast.hpp"
#include "util/logging.hpp"

namespace rtlrepair::gates {

size_t
GateNetlist::numGates() const
{
    size_t count = 0;
    for (uint32_t n = 0; n < aig.numNodes(); ++n) {
        if (aig.isAnd(n))
            ++count;
    }
    return count;
}

GateNetlist
lower(const ir::TransitionSystem &sys)
{
    check(sys.synth_vars.empty(),
          "gate lowering needs a design without synthesis variables");
    GateNetlist net;
    net.sys = &sys;

    smt::CycleBindings bindings;
    for (const auto &st : sys.states) {
        net.state_words.push_back(
            smt::freshWord(net.aig, st.width));
    }
    for (const auto &in : sys.inputs) {
        net.input_words.push_back(
            smt::freshWord(net.aig, in.width));
    }
    bindings.states = net.state_words;
    bindings.inputs = net.input_words;

    smt::CycleWords words = smt::blastCycle(net.aig, sys, bindings);
    net.next_words = std::move(words.next_states);
    net.output_words = std::move(words.outputs);
    return net;
}

} // namespace rtlrepair::gates
