/**
 * @file
 * Gate-level netlist: the transition system lowered to an AIG plus
 * D flip-flops.  This is the reproduction's "synthesized netlist";
 * simulating it against the original testbench is the gate-level
 * simulation check the paper introduces for validating repairs
 * (§6.2) — it exposes synthesis–simulation mismatch because the
 * netlist is 2-state and implements synthesis semantics.
 */
#ifndef RTLREPAIR_GATES_NETLIST_HPP
#define RTLREPAIR_GATES_NETLIST_HPP

#include "ir/transition_system.hpp"
#include "smt/aig.hpp"

namespace rtlrepair::gates {

/** The lowered circuit. */
struct GateNetlist
{
    smt::Aig aig;
    /** Leaf variable words. */
    std::vector<smt::Word> state_words;
    std::vector<smt::Word> input_words;
    /** Combinational functions. */
    std::vector<smt::Word> next_words;
    std::vector<smt::Word> output_words;
    /** Metadata mirrors the source system. */
    const ir::TransitionSystem *sys = nullptr;

    /** Number of and-gates in the combinational core. */
    size_t numGates() const;
};

/** Lower @p sys to gates (X constants become 0).  @p sys must have
 *  no synthesis variables: only finished designs are lowered. */
GateNetlist lower(const ir::TransitionSystem &sys);

} // namespace rtlrepair::gates

#endif // RTLREPAIR_GATES_NETLIST_HPP
