#include "osdd/osdd.hpp"

#include <algorithm>

#include "sim/interpreter.hpp"
#include "util/rng.hpp"

namespace rtlrepair::osdd {

using bv::Value;

OsddResult
compute(const ir::TransitionSystem &golden,
        const ir::TransitionSystem &buggy,
        const trace::InputSequence &stim)
{
    OsddResult result;
    result.first_output_divergence = stim.length();
    result.first_state_divergence = stim.length();

    // The metric requires matching state and output variables.
    if (golden.states.size() != buggy.states.size() ||
        golden.outputs.size() != buggy.outputs.size())
        return result;
    std::vector<size_t> bstate(golden.states.size());
    for (size_t i = 0; i < golden.states.size(); ++i) {
        int bi = buggy.stateIndex(golden.states[i].name);
        if (bi < 0)
            return result;
        bstate[i] = static_cast<size_t>(bi);
    }
    std::vector<size_t> boutput(golden.outputs.size());
    for (size_t i = 0; i < golden.outputs.size(); ++i) {
        int bi = buggy.outputIndex(golden.outputs[i].name);
        if (bi < 0)
            return result;
        boutput[i] = static_cast<size_t>(bi);
    }

    sim::SimOptions options{sim::XPolicy::Zero, sim::XPolicy::Zero, 1};
    sim::Interpreter gsim(golden, options);
    sim::Interpreter bsim(buggy, options);
    sim::TraceBinding gbind(golden, stim.inputs);
    sim::TraceBinding bbind(buggy, stim.inputs);

    // Start both from the same arbitrary (seeded random) state: a
    // shared nonzero start makes missing-reset bugs diverge, matching
    // the paper's "starting assignment to all state variables".
    Rng rng(0x05dd);
    for (size_t i = 0; i < golden.states.size(); ++i) {
        Value start = Value::random(golden.states[i].width, rng);
        gsim.setState(i, start);
        // A bug may shrink or widen a register ("insufficient
        // register size"); seed the overlapping bits identically.
        bsim.setState(bstate[i],
                      start.resize(buggy.states[bstate[i]].width));
    }

    // Values compare over the wider of the two widths.
    auto differs = [](const Value &a, const Value &b) {
        uint32_t w = std::max(a.width(), b.width());
        return a.resize(w) != b.resize(w);
    };
    for (size_t cycle = 0; cycle < stim.length(); ++cycle) {
        gbind.applyInputs(gsim, stim.rows[cycle]);
        bbind.applyInputs(bsim, stim.rows[cycle]);
        gsim.evalCycle();
        bsim.evalCycle();

        // State comparison happens on entry to the cycle.
        if (!result.state_diverged) {
            for (size_t i = 0; i < golden.states.size(); ++i) {
                if (differs(gsim.stateValue(i),
                            bsim.stateValue(bstate[i]))) {
                    result.state_diverged = true;
                    result.first_state_divergence = cycle;
                    break;
                }
            }
        }
        for (size_t i = 0; i < golden.outputs.size(); ++i) {
            if (differs(gsim.output(i), bsim.output(boutput[i]))) {
                result.output_diverged = true;
                result.first_output_divergence = cycle;
                break;
            }
        }
        if (result.output_diverged)
            break;
        gsim.step();
        bsim.step();
    }

    if (!result.output_diverged) {
        // No observable bug on this stimulus; OSDD undefined-as-zero.
        result.osdd = 0;
        return result;
    }
    if (!result.state_diverged ||
        result.first_state_divergence >
            result.first_output_divergence) {
        result.osdd = 0;  // outputs diverged first: output function bug
        return result;
    }
    result.osdd = static_cast<int>(result.first_output_divergence -
                                   result.first_state_divergence) +
                  1;
    return result;
}

} // namespace rtlrepair::osdd
