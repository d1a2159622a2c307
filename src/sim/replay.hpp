/**
 * @file
 * Replaying an I/O trace: the one place trace columns meet design
 * ports, and the one cycle loop of the cycle-stepped simulators.
 *
 * A TraceBinding matches each trace column to a port of its own
 * direction once, before the first cycle.  A column that names no
 * such port is malformed user input (the trace and the design come
 * from the user together), so every simulator rejects it with
 * FatalError.
 *
 * replayCycles() and recordCycles() step any simulator with the
 * cycle interface of sim::Interpreter and gates::GateSimulator:
 * setInput(port, value), evalCycle(), output(port) and step().
 */
#ifndef RTLREPAIR_SIM_REPLAY_HPP
#define RTLREPAIR_SIM_REPLAY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/transition_system.hpp"
#include "trace/io_trace.hpp"

namespace rtlrepair::verilog {
class Module;
} // namespace rtlrepair::verilog

namespace rtlrepair::sim {

/** Result of replaying an I/O trace against a design. */
struct ReplayResult
{
    bool passed = true;
    /** First cycle with an output mismatch (trace length if none). */
    size_t first_failure = 0;
    std::string failed_output;
};

/** Trace columns matched to design ports. */
struct TraceBinding
{
    /** The clock column: simulators toggle the clock themselves. */
    static constexpr size_t kUnbound = SIZE_MAX;

    std::vector<size_t> inputs;   ///< port index per input column
    std::vector<size_t> outputs;  ///< port index per output column

    /** Bind to the inputs and outputs of @p sys.
     *  @throws FatalError for a column that names no such port. */
    TraceBinding(const ir::TransitionSystem &sys,
                 const std::vector<trace::Column> &input_cols,
                 const std::vector<trace::Column> &output_cols = {});

    /** Bind to the ports of an event simulator's flattened module,
     *  leaving the @p clock column unbound.
     *  @throws FatalError for a column that names no such port. */
    TraceBinding(const verilog::Module &flat, const std::string &clock,
                 const std::vector<trace::Column> &input_cols,
                 const std::vector<trace::Column> &output_cols = {});

    /** Drive one trace row into @p sim. */
    template <class Sim>
    void
    applyInputs(Sim &sim, const std::vector<bv::Value> &row) const
    {
        for (size_t i = 0; i < inputs.size(); ++i) {
            if (inputs[i] != kUnbound)
                sim.setInput(inputs[i], row[i]);
        }
    }
};

/** Replay @p io on @p sim from its current state; stops at the
 *  first output mismatch. */
template <class Sim>
ReplayResult
replayCycles(Sim &sim, const TraceBinding &bind,
             const trace::IoTrace &io)
{
    for (size_t cycle = 0; cycle < io.length(); ++cycle) {
        bind.applyInputs(sim, io.input_rows[cycle]);
        sim.evalCycle();
        const std::vector<bv::Value> &expected = io.output_rows[cycle];
        for (size_t i = 0; i < bind.outputs.size(); ++i) {
            if (!sim.output(bind.outputs[i]).matches(expected[i]))
                return {false, cycle, io.outputs[i].name};
        }
        sim.step();
    }
    return {true, io.length(), {}};
}

/** Drive @p stim into @p sim from its current state and record the
 *  bound @p output_cols each cycle. */
template <class Sim>
trace::IoTrace
recordCycles(Sim &sim, const TraceBinding &bind,
             const trace::InputSequence &stim,
             std::vector<trace::Column> output_cols)
{
    trace::IoTrace io{stim.inputs, std::move(output_cols), stim.rows, {}};
    for (const std::vector<bv::Value> &row : stim.rows) {
        bind.applyInputs(sim, row);
        sim.evalCycle();
        std::vector<bv::Value> &out = io.output_rows.emplace_back();
        out.reserve(bind.outputs.size());
        for (size_t port : bind.outputs)
            out.push_back(sim.output(port));
        sim.step();
    }
    return io;
}

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_REPLAY_HPP
