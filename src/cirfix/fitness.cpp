#include "cirfix/fitness.hpp"

#include "sim/event_sim.hpp"
#include "util/logging.hpp"

namespace rtlrepair::cirfix {

using bv::Value;

Fitness
evaluateFitness(const verilog::Module &candidate,
                const std::vector<const verilog::Module *> &library,
                const std::string &clock, const trace::IoTrace &io,
                size_t max_cycles)
{
    Fitness fitness;
    size_t cycles = std::min(io.length(), max_cycles);
    if (cycles == 0)
        return fitness;

    size_t checked = 0;
    size_t matched = 0;
    try {
        sim::EventSimulator sim(candidate, library, clock);
        sim::TraceBinding bind(sim.flattened(), clock, io.inputs,
                               io.outputs);
        sim::runEventCycles(
            sim, bind, io.input_rows, cycles, [&](size_t cycle) {
                fitness.crashed = sim.unstable();
                for (size_t i = 0;
                     i < bind.outputs.size() && !fitness.crashed; ++i) {
                    const Value &expected = io.output_rows[cycle][i];
                    if (expected.hasX() &&
                        expected == Value::allX(expected.width())) {
                        continue;  // fully unchecked value
                    }
                    ++checked;
                    if (sim.sampledOutput(bind.outputs[i])
                            .matches(expected))
                        ++matched;
                }
                return !fitness.crashed;
            });
    } catch (const FatalError &) {
        fitness.crashed = true;
    } catch (const PanicError &) {
        fitness.crashed = true;
    }
    if (fitness.crashed)
        return fitness;  // score 0

    fitness.score = checked == 0
                        ? 1.0
                        : static_cast<double>(matched) /
                              static_cast<double>(checked);
    fitness.perfect = matched == checked;
    return fitness;
}

} // namespace rtlrepair::cirfix
