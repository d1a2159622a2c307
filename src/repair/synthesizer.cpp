#include "repair/synthesizer.hpp"

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::repair {

SynthesisResult
synthesizeMinimalRepairs(RepairQuery &query,
                         const templates::SynthVarTable &vars,
                         size_t max_samples, const Deadline *deadline)
{
    SynthesisResult result;

    // 1. Feasibility: any number of changes.
    smt::Result feasible = query.checkFeasible(deadline);
    if (feasible == smt::Result::Timeout) {
        result.status = SynthesisResult::Status::Timeout;
        return result;
    }
    if (feasible == smt::Result::Unsat) {
        result.status = SynthesisResult::Status::NoRepair;
        return result;
    }

    // 2. Linear minimality search on Σφ, starting at zero changes
    //    (the instrumented circuit with all φ off may already pass).
    //    The feasibility model bounds the search from above: only
    //    bounds k < Σφ(model) need a solve, and when they are all
    //    UNSAT the model itself is a minimal solution — no re-solve
    //    of bound k from scratch.
    templates::SynthAssignment feasible_model = *query.lastModel();
    size_t upper = static_cast<size_t>(
        feasible_model.changeCount(vars));
    std::optional<templates::SynthAssignment> minimal;
    size_t k = 0;
    for (; k < upper; ++k) {
        if (deadline && deadline->expired()) {
            result.status = SynthesisResult::Status::Timeout;
            return result;
        }
        minimal = query.solveWithBound(k, deadline);
        if (query.lastResult() == smt::Result::Timeout) {
            result.status = SynthesisResult::Status::Timeout;
            return result;
        }
        if (minimal)
            break;
    }
    if (!minimal) {
        // Every bound below Σφ(model) is UNSAT: the feasibility
        // model's change count is minimal, and its learnt clauses and
        // model carry over — sampling starts by blocking it directly.
        minimal = std::move(feasible_model);
        k = upper;
    }

    // Canonicalize to the lex-smallest minimal model: the repair
    // reported for a window then depends only on the window's
    // semantic constraints, not on the CNF encoding or the solver's
    // trajectory.
    if (!query.canonicalizeLast(k, deadline)) {
        result.status = SynthesisResult::Status::Timeout;
        return result;
    }
    minimal = *query.lastModel();

    result.status = SynthesisResult::Status::Found;
    result.changes = static_cast<int>(k);
    result.repairs.push_back(*minimal);

    // 3. Sample further distinct minimal repairs.
    while (result.repairs.size() < max_samples) {
        query.blockAssignment(result.repairs.back());
        auto next = query.solveWithBound(k, deadline);
        if (!next)
            break;  // exhausted or timeout; either way stop sampling
        if (!query.canonicalizeLast(k, deadline))
            break;  // timeout mid-sampling: keep what we have
        result.repairs.push_back(*query.lastModel());
    }
    return result;
}

} // namespace rtlrepair::repair
