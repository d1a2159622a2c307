/**
 * @file
 * Cycle-accurate 4-state interpreter for transition systems.
 *
 * This is the reproduction's stand-in for running a design under
 * Verilator/VCS (trace recording, candidate-repair validation) — it
 * executes the same IR the repair synthesizer reasons about, so a
 * simulation pass/fail verdict is consistent with the SMT encoding.
 *
 * X handling follows paper §4.3: uninitialized registers and
 * unconstrained inputs can be kept as X (4-state event simulators),
 * set to zero (Verilator), or randomized.
 */
#ifndef RTLREPAIR_SIM_INTERPRETER_HPP
#define RTLREPAIR_SIM_INTERPRETER_HPP

#include <string>
#include <vector>

#include "ir/transition_system.hpp"
#include "sim/replay.hpp"
#include "trace/io_trace.hpp"
#include "util/rng.hpp"

namespace rtlrepair::sim {

/** How X bits in inputs / initial state are resolved. */
enum class XPolicy { Keep, Zero, Random };

struct SimOptions
{
    XPolicy init_policy = XPolicy::Keep;
    XPolicy input_policy = XPolicy::Keep;
    uint64_t seed = 1;
};

/** Executes one TransitionSystem cycle by cycle. */
class Interpreter
{
  public:
    explicit Interpreter(const ir::TransitionSystem &sys,
                         SimOptions options = {});

    /** Reset all states to their init value (or the X policy). */
    void reset();

    /** @name Per-cycle inputs (apply the input X policy) @{ */
    void setInput(size_t index, const bv::Value &value);
    void setInputByName(const std::string &name, const bv::Value &value);
    /** @} */

    /** Bind a synthesis variable for the whole run. */
    void setSynthVar(size_t index, const bv::Value &value);
    void setSynthVarByName(const std::string &name,
                           const bv::Value &value);

    /** Force a state value (used to seed repair windows). */
    void setState(size_t index, const bv::Value &value);

    /** Evaluate all combinational values for the current cycle. */
    void evalCycle();

    /** evalCycle() then latch every state's next value. */
    void step();

    /** @name Value access (valid after evalCycle/step) @{ */
    const bv::Value &valueOf(ir::NodeRef ref) const;
    const bv::Value &output(size_t index) const;
    const bv::Value &stateValue(size_t index) const;
    /** @} */

    const ir::TransitionSystem &system() const { return _sys; }

  private:
    bv::Value applyPolicy(const bv::Value &v, XPolicy policy);

    const ir::TransitionSystem &_sys;
    SimOptions _options;
    Rng _rng;
    std::vector<bv::Value> _node_vals;   ///< per-cycle node values
    std::vector<bv::Value> _state_vals;  ///< current state values
    std::vector<bv::Value> _input_vals;
    std::vector<bv::Value> _synth_vals;
    bool _cycle_valid = false;
};

/**
 * Reset @p interp and replay @p trace, comparing outputs each cycle.
 * Stops at the first mismatch.  Input/output columns are matched to
 * the system's ports by name (see TraceBinding).
 */
ReplayResult replay(Interpreter &interp, const trace::IoTrace &io);

/**
 * Record the golden I/O trace: drive @p stim into @p golden and
 * capture all outputs each cycle.
 */
trace::IoTrace record(const ir::TransitionSystem &golden,
                      const trace::InputSequence &stim,
                      SimOptions options = {});

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_INTERPRETER_HPP
