/**
 * @file
 * Event-driven 4-state Verilog simulator over the AST.
 *
 * This simulator implements *simulation* semantics, in contrast to
 * the IR interpreter which implements *synthesis* semantics:
 *  - sensitivity lists are honoured (an incomplete list leaves stale
 *    values — the classic synthesis–simulation mismatch),
 *  - `always @(clk)` triggers on any change of clk, not only edges,
 *  - blocking assignments take effect immediately, non-blocking
 *    assignments are applied in the NBA region of the delta cycle,
 *  - unassigned combinational paths keep their previous value (a
 *    simulated latch),
 *  - X propagates per 4-state rules; `if` takes the else branch on an
 *    X condition; `case` compares with ===-style matching.
 *
 * It is the reproduction's stand-in for iverilog/VCS: trace checking
 * with true event semantics, the cross-simulator repair check of
 * Table 4, and the fitness function of the CirFix baseline all run on
 * it.
 */
#ifndef RTLREPAIR_SIM_EVENT_SIM_HPP
#define RTLREPAIR_SIM_EVENT_SIM_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/process_info.hpp"
#include "analysis/widths.hpp"
#include "sim/interpreter.hpp"
#include "sim/replay.hpp"
#include "verilog/ast.hpp"

namespace rtlrepair::sim {

/**
 * A module prepared for event-driven simulation, shared by the scalar
 * and the vectorized simulator: instances flattened, for-loops
 * unrolled, each continuous assign with the signals it reads.
 */
class EventDesign
{
  public:
    /** The design with its instances flattened; TraceBinding binds
     *  trace columns to its ports. */
    const verilog::Module &flattened() const { return *_mod; }

  protected:
    EventDesign(const verilog::Module &mod,
                const std::vector<const verilog::Module *> &library);

    struct Proc
    {
        const verilog::AlwaysBlock *block;
        analysis::ProcessInfo info;
        verilog::StmtPtr body;  ///< for-loops unrolled
    };

    std::unique_ptr<verilog::Module> _mod;
    analysis::SymbolTable _table;
    std::vector<Proc> _procs;
    std::vector<const verilog::ContAssign *> _cont_assigns;
    std::vector<std::set<std::string>> _cont_reads;
};

/** Interprets a (flattened) module with event-driven semantics. */
class EventSimulator : public EventDesign
{
  public:
    /**
     * @param mod the design (instances are flattened internally).
     * @param library submodule definitions.
     * @param clock name of the clock input toggled by step().
     */
    /**
     * @param reverse_order evaluate triggered processes in reverse
     *        declaration order.  The Verilog standard leaves process
     *        scheduling unspecified; running both orders and
     *        comparing is our analogue of cross-checking a repair
     *        under a second simulator (iverilog in the paper) — it
     *        exposes repairs that rely on racy evaluation order.
     */
    EventSimulator(const verilog::Module &mod,
                   const std::vector<const verilog::Module *> &library,
                   std::string clock, bool reverse_order = false);

    /** Reset all signals to X and re-run initial blocks. */
    void powerOn();

    /** Drive an input for the current cycle. */
    void setInput(const std::string &name, const bv::Value &value);
    /** Drive input port @p port of flattened() (TraceBinding's
     *  port index). */
    void setInput(size_t port, const bv::Value &value);

    /**
     * One clock cycle: settle combinational logic with clk low, then
     * raise the clock, run triggered processes, apply NBAs, settle.
     * Outputs sampled *before* the edge are available via
     * sampledOutput() — this matches the I/O-trace convention.  With
     * no clock (a combinational design) it only settles and samples.
     */
    void step();

    /** Value of a signal right now. */
    bv::Value get(const std::string &name) const;

    /** Value of output port @p port of flattened(), sampled before
     *  the most recent clock edge. */
    const bv::Value &sampledOutput(size_t port) const;

    /** Oscillation detected (comb loop in simulation semantics). */
    bool unstable() const { return _unstable; }

  private:
    void runInitialBlocks();
    void settle();
    void runProcess(const Proc &proc);
    void execStmt(const verilog::Stmt &stmt);
    void assignNow(const verilog::Expr &lhs, bv::Value value);
    void writeSignal(const std::string &name, const bv::Value &value);
    bv::Value readLhsTarget(const verilog::Expr &lhs, uint32_t &pos,
                            uint32_t &width, std::string &name);
    bv::Value evalExpr(const verilog::Expr &expr, uint32_t ctx) const;
    bv::Value evalBinary(const verilog::BinaryExpr &expr,
                         uint32_t ctx) const;
    bool caseMatches(const bv::Value &subject, const bv::Value &label,
                     verilog::CaseStmt::Mode mode) const;

    std::string _clock;
    std::map<std::string, bv::Value> _values;
    std::map<std::string, bv::Value> _prev;  ///< for edge detection
    std::set<std::string> _changed;
    /** NBA queue: full-signal final values. */
    std::map<std::string, bv::Value> _nba;
    std::vector<bv::Value> _sampled;  ///< per port; outputs only
    bool _unstable = false;
};

/**
 * The event simulators' cycle loop: for each of the first @p cycles
 * @p rows, drive the row into @p sim through @p bind, run one clock
 * cycle, then call @p sampled(cycle); a false return stops the loop.
 */
template <class Sampled>
void
runEventCycles(EventSimulator &sim, const TraceBinding &bind,
               const std::vector<std::vector<bv::Value>> &rows,
               size_t cycles, Sampled &&sampled)
{
    for (size_t cycle = 0; cycle < cycles; ++cycle) {
        bind.applyInputs(sim, rows[cycle]);
        sim.step();
        if (!sampled(cycle))
            return;
    }
}

/**
 * Replay @p io against an event-driven simulation of @p mod; outputs
 * are checked each cycle before the clock edge.  @p clock may be
 * empty for purely combinational designs; @p reverse_order is as for
 * EventSimulator.  An oscillating cycle fails with failed_output
 * "<oscillation>".
 */
ReplayResult eventReplay(const verilog::Module &mod,
                         const std::vector<const verilog::Module *>
                             &library,
                         const std::string &clock,
                         const trace::IoTrace &io,
                         bool reverse_order = false);

/** Record a golden trace with event-driven semantics. */
trace::IoTrace eventRecord(const verilog::Module &mod,
                           const std::vector<const verilog::Module *>
                               &library,
                           const std::string &clock,
                           const trace::InputSequence &stim);

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_EVENT_SIM_HPP
