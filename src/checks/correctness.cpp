#include "checks/correctness.hpp"

#include "elaborate/elaborate.hpp"
#include "gates/gate_sim.hpp"
#include "sim/event_sim.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::checks {

namespace {

/** The simulations the battery replays a testbench under. */
enum class Replay { Event, EventReversed, Synthesis, GateLevel };

/**
 * Does @p mod pass @p io under @p how?  A FatalError (a design or
 * trace the simulator rejects, such as a trace column that names no
 * port) is a failed check; its message goes to @p error.
 */
bool
passes(Replay how, const verilog::Module &mod, const CheckInputs &inputs,
       const trace::IoTrace &io, std::string *error = nullptr)
{
    try {
        if (how == Replay::Event || how == Replay::EventReversed) {
            return sim::eventReplay(mod, inputs.library, inputs.clock,
                                    io, how == Replay::EventReversed)
                .passed;
        }
        elaborate::ElaborateOptions opts;
        opts.library = inputs.library;
        ir::TransitionSystem sys = elaborate::elaborate(mod, opts);
        if (how == Replay::GateLevel)
            return gates::gateReplay(gates::lower(sys), io).passed;
        // Synthesis semantics: the IR interpreter, zero-X policy.
        sim::Interpreter interp(
            sys, sim::SimOptions{sim::XPolicy::Zero, sim::XPolicy::Zero, 1});
        return sim::replay(interp, io).passed;
    } catch (const FatalError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

} // namespace

std::string
CheckReport::cells() const
{
    auto cell = [](const std::optional<bool> &v) {
        if (!v)
            return "  ";
        return *v ? "ok" : "XX";
    };
    return format("tb:%s gate:%s sim2:%s ext:%s => %s",
                  cell(testbench), cell(gate_level),
                  cell(second_simulator), cell(extended),
                  overall ? "PASS" : "FAIL");
}

CheckReport
checkRepair(const CheckInputs &inputs)
{
    check(inputs.golden && inputs.repaired && inputs.tb,
          "checkRepair: missing inputs");
    CheckReport report;

    // 1. Original testbench under event-driven simulation.
    report.testbench =
        passes(Replay::Event, *inputs.repaired, inputs, *inputs.tb);

    // 2. Gate-level: applicable only if the ground truth passes it.
    std::string golden_err;
    bool golden_gate = passes(Replay::GateLevel, *inputs.golden, inputs,
                              *inputs.tb, &golden_err);
    if (golden_gate) {
        std::string err;
        report.gate_level = passes(Replay::GateLevel, *inputs.repaired,
                                   inputs, *inputs.tb, &err);
        if (!*report.gate_level && !err.empty())
            report.detail += "gate-level: " + err + "\n";
    } else {
        report.detail +=
            "gate-level check skipped (ground truth fails it";
        if (!golden_err.empty())
            report.detail += ": " + golden_err;
        report.detail += ")\n";
    }

    // 3. Second simulator: reversed scheduling + synthesis replay,
    //    applicable only if the ground truth agrees under both.
    bool golden_second =
        passes(Replay::EventReversed, *inputs.golden, inputs,
               *inputs.tb) &&
        passes(Replay::Synthesis, *inputs.golden, inputs, *inputs.tb);
    if (golden_second) {
        bool rev = passes(Replay::EventReversed, *inputs.repaired,
                          inputs, *inputs.tb);
        std::string err;
        bool synth = passes(Replay::Synthesis, *inputs.repaired, inputs,
                            *inputs.tb, &err);
        report.second_simulator = rev && synth;
        if (!synth && !err.empty())
            report.detail += "second-simulator: " + err + "\n";
    } else {
        report.detail += "second-simulator check skipped (ground "
                         "truth disagrees under it)\n";
    }

    // 4. Extended testbench.
    if (inputs.extended_tb) {
        report.extended = passes(Replay::Event, *inputs.repaired,
                                 inputs, *inputs.extended_tb);
    }

    report.overall = report.testbench.value_or(false);
    if (report.gate_level)
        report.overall = report.overall && *report.gate_level;
    if (report.second_simulator)
        report.overall = report.overall && *report.second_simulator;
    if (report.extended)
        report.overall = report.overall && *report.extended;
    return report;
}

} // namespace rtlrepair::checks
