/**
 * @file
 * Bit-parallel 64-lane vectorized simulation backend.
 *
 * VecEventSimulator executes 64 independent stimuli in one pass by
 * operating on bv::PackedValue planes and *lane masks* (uint64_t,
 * bit L = lane L).  It mirrors EventSimulator (event_sim.cpp)
 * statement for statement; divergent control flow is handled by
 * masked execution (an `if` executes the then-branch under the lanes
 * whose condition is true and the else-branch under the rest), and
 * the delta-cycle loop keeps per-lane changed/NBA masks so that event
 * scheduling, edge detection, and the oscillation cutoff are decided
 * per lane exactly as 64 scalar simulators would decide them.
 *
 * The equivalence contract: lane L of any vectorized run is bit-exact
 * with an independent scalar run of lane L's stimulus (enforced by
 * tests/vec_sim_test.cpp).  The few Verilog corners whose scalar
 * semantics are lane-divergent by construction (a non-identifier part
 * in a non-blocking concat assignment, whose scalar approximation
 * rewrites the stored signal *width*) throw VecUnsupported, and the
 * batch drivers fall back to per-lane scalar simulation.
 */
#ifndef RTLREPAIR_SIM_VEC_SIM_HPP
#define RTLREPAIR_SIM_VEC_SIM_HPP

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/process_info.hpp"
#include "analysis/widths.hpp"
#include "bv/packed_value.hpp"
#include "sim/event_sim.hpp"
#include "sim/interpreter.hpp"
#include "sim/sim_backend.hpp"
#include "verilog/ast.hpp"

namespace rtlrepair::sim {

/**
 * A design uses a construct the vectorized backend cannot replicate
 * lane-exactly; callers fall back to the scalar simulator.
 */
struct VecUnsupported : std::runtime_error
{
    explicit VecUnsupported(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Event-driven simulator evaluating up to 64 lanes at once. */
class VecEventSimulator : public EventDesign
{
  public:
    /** @throws VecUnsupported for designs the backend cannot run. */
    VecEventSimulator(const verilog::Module &mod,
                      const std::vector<const verilog::Module *>
                          &library,
                      std::string clock, uint32_t nlanes);

    void powerOn();

    /** Drive an input in the lanes of @p mask. */
    void setInput(const std::string &name,
                  const bv::PackedValue &value, uint64_t mask);

    /** One clock cycle for every live (unfrozen) lane (settle only
     *  for a combinational design). */
    void step();

    bv::PackedValue get(const std::string &name) const;
    /** Output port @p port of flattened(), sampled before the most
     *  recent clock edge. */
    const bv::PackedValue &sampledOutput(size_t port) const;

    /** Declared width of a signal (for input packing). */
    uint32_t widthOf(const std::string &name) const;

    /** Lanes whose delta cycle hit the oscillation cutoff (sticky). */
    uint64_t unstableLanes() const { return _unstable; }

    /**
     * Stop simulating the lanes of @p mask (their trace is finished);
     * writes and delta-cycle work skip them from now on.
     */
    void freezeLanes(uint64_t mask) { _frozen |= mask; }

    /** Mask with one bit per configured lane. */
    uint64_t allLanes() const { return _all; }

  private:
    struct Transition
    {
        uint64_t pose = 0, nege = 0, level = 0;
    };

    void runInitialBlocks();
    void settle();
    void runProcess(const Proc &proc, uint64_t mask);
    void execStmt(const verilog::Stmt &stmt, uint64_t mask);
    void assignNow(const verilog::Expr &lhs,
                   const bv::PackedValue &value, uint64_t mask);
    void queueNba(const verilog::Expr &lhs,
                  const bv::PackedValue &rhs, uint64_t mask);
    void writeSignal(const std::string &name,
                     const bv::PackedValue &value, uint64_t mask);
    /** Queued NBA value blended over the current value, per lane. */
    bv::PackedValue nbaTarget(const std::string &name) const;
    bv::PackedValue evalExpr(const verilog::Expr &expr,
                             uint32_t ctx) const;
    bv::PackedValue evalBinary(const verilog::BinaryExpr &expr,
                               uint32_t ctx) const;
    uint64_t caseMatch(const bv::PackedValue &subject,
                       const bv::PackedValue &label,
                       verilog::CaseStmt::Mode mode) const;

    std::string _clock;
    uint64_t _all;  ///< mask of configured lanes

    std::map<std::string, bv::PackedValue> _values;
    std::map<std::string, bv::PackedValue> _prev;  ///< edge detection
    std::map<std::string, uint64_t> _changed;      ///< per-lane masks
    std::map<std::string, bv::PackedValue> _nba;
    std::map<std::string, uint64_t> _nba_mask;
    std::vector<bv::PackedValue> _sampled;  ///< per port; outputs only
    uint64_t _unstable = 0;
    uint64_t _frozen = 0;
};

/**
 * Replay up to any number of traces (chunked 64 lanes at a time)
 * against the vectorized simulator; falls back to per-trace scalar
 * simulation when the design throws VecUnsupported or the traces
 * disagree on column structure.  Result i corresponds to trace i.
 */
std::vector<ReplayResult> vecEventReplayBatch(
    const verilog::Module &mod,
    const std::vector<const verilog::Module *> &library,
    const std::string &clock,
    const std::vector<const trace::IoTrace *> &traces);

/** Batched golden-trace recording; same fallback rules as replay. */
std::vector<trace::IoTrace> vecEventRecordBatch(
    const verilog::Module &mod,
    const std::vector<const verilog::Module *> &library,
    const std::string &clock,
    const std::vector<const trace::InputSequence *> &stims);

/** @name Backend-dispatching entry points
 * Single-trace wrappers: an explicit (or env-resolved) Vec request
 * runs the vectorized backend with one lane, anything else the scalar
 * simulator.  The batch forms use the vectorized backend unless Event
 * is requested.
 * @{ */
ReplayResult replayTrace(SimBackend backend, const verilog::Module &mod,
                         const std::vector<const verilog::Module *>
                             &library,
                         const std::string &clock,
                         const trace::IoTrace &io);

trace::IoTrace recordTrace(SimBackend backend,
                           const verilog::Module &mod,
                           const std::vector<const verilog::Module *>
                               &library,
                           const std::string &clock,
                           const trace::InputSequence &stim);

std::vector<ReplayResult> replayTraceBatch(
    SimBackend backend, const verilog::Module &mod,
    const std::vector<const verilog::Module *> &library,
    const std::string &clock,
    const std::vector<const trace::IoTrace *> &traces);

std::vector<trace::IoTrace> recordTraceBatch(
    SimBackend backend, const verilog::Module &mod,
    const std::vector<const verilog::Module *> &library,
    const std::string &clock,
    const std::vector<const trace::InputSequence *> &stims);
/** @} */

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_VEC_SIM_HPP
