/**
 * @file
 * Exact partial evaluation of a transition system under known
 * synthesis-variable values — the concrete counterpart of the paper's
 * patch step (§4.4–4.5), which substitutes φ/α and lets dead change
 * sites fold away before the repaired circuit is simulated.
 *
 * Only folds that are exact under 4-state semantics are applied:
 *  - an operator whose operands are all constants becomes the
 *    constant evalOp() computes (the interpreter runs evalOp too);
 *  - `ite(c, t, e)` with an X-free constant condition becomes the
 *    selected arm (Value::ite returns that arm unchanged);
 *  - `and` with a known-zero operand becomes zero, and `or` with a
 *    known all-ones operand becomes all ones (a known 0 / 1 bit
 *    dominates an X bit in bv::Value's 4-state and / or).
 * The Builder's identity folds (`x + 0 -> x`, `x - 0 -> x`, ...) are
 * deliberately not reused: with an X bit in x, `x + 0` is all-X, so
 * they would change simulation results.
 */
#ifndef RTLREPAIR_IR_SPECIALIZE_HPP
#define RTLREPAIR_IR_SPECIALIZE_HPP

#include <vector>

#include "ir/transition_system.hpp"

namespace rtlrepair::ir {

/**
 * Copy of @p sys with synthesis variable i replaced by @p fixed[i],
 * exactly folded, and pruned to the nodes that outputs and state next
 * functions reach.
 *
 * The result keeps the state/input/output/synth-var tables of @p sys
 * index for index, so values are driven and read at the same indices
 * on both systems.  Port names and `signals` are not copied (look
 * names up on @p sys).  Every state keeps its State node; every
 * synthesis variable, and every input that no kept node reads, has
 * `ref == kNullRef`.
 */
TransitionSystem specialize(const TransitionSystem &sys,
                            const std::vector<bv::Value> &fixed);

} // namespace rtlrepair::ir

#endif // RTLREPAIR_IR_SPECIALIZE_HPP
