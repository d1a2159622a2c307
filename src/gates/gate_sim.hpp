/**
 * @file
 * 2-state simulator for gate-level netlists, used for the paper's
 * gate-level repair check: replay the original testbench against the
 * synthesized circuit.  Unknown trace inputs and uninitialized
 * flip-flops read as zero (hardware power-on is concrete; zero makes
 * the check deterministic).
 */
#ifndef RTLREPAIR_GATES_GATE_SIM_HPP
#define RTLREPAIR_GATES_GATE_SIM_HPP

#include "gates/netlist.hpp"
#include "sim/replay.hpp"
#include "trace/io_trace.hpp"

namespace rtlrepair::gates {

/** Evaluates a GateNetlist cycle by cycle. */
class GateSimulator
{
  public:
    explicit GateSimulator(const GateNetlist &net);

    /** Flip-flops back to their init value (X bits -> 0). */
    void reset();

    void setInput(size_t index, const bv::Value &value);

    /** Evaluate the combinational core. */
    void evalCycle();
    /** evalCycle() then clock every flip-flop. */
    void step();

    bv::Value output(size_t index) const;

  private:
    bv::Value wordValue(const smt::Word &word) const;
    void assignWord(const smt::Word &word, const bv::Value &value);

    const GateNetlist &_net;
    std::vector<uint8_t> _node_vals;   ///< per AIG node
    std::vector<bv::Value> _state_vals;
    std::vector<bv::Value> _input_vals;
    bool _valid = false;
};

/** Replay @p io on the gate level; stops at the first mismatch. */
sim::ReplayResult gateReplay(const GateNetlist &net,
                             const trace::IoTrace &io);

} // namespace rtlrepair::gates

#endif // RTLREPAIR_GATES_GATE_SIM_HPP
