/**
 * @file
 * The template cascade (paper Fig. 3), scheduled over a work-stealing
 * thread pool with first-success-wins cooperative cancellation.
 *
 * Each repair template is an independent task, so the portfolio
 *  (a) applies, elaborates and repairs each template as a task, one
 *      runEngine() (one incremental solver walking the window ladder)
 *      per template, on `jobs` threads counting the caller, and
 *  (b) cancels losing templates the moment a winner is decided, via
 *      CancelTokens threaded through the existing Deadline plumbing
 *      into the SAT solver's propagate/restart loop and the query
 *      encoder.
 *
 * At jobs=1 no worker thread starts: the caller runs the templates
 * one after another, each sliced off the budget left when it starts.
 *
 * Determinism rule: results are folded in standardTemplates() order
 * with the (fewest changes, template order) ranking, each as soon as
 * it and every earlier template have finished.  Thread timing affects
 * only wall-clock, never the repair reported; jobs=1 and jobs=N
 * produce bit-identical outcomes.
 */
#ifndef RTLREPAIR_REPAIR_PARALLEL_HPP
#define RTLREPAIR_REPAIR_PARALLEL_HPP

#include "repair/driver.hpp"

namespace rtlrepair::repair {

/**
 * Resolve the effective worker count: @p requested if positive, else
 * the RTLREPAIR_JOBS environment variable, else
 * std::thread::hardware_concurrency() (at least 1).
 */
unsigned resolveJobs(unsigned requested);

/**
 * Run the template cascade on @p jobs threads (the caller included)
 * and fold it into @p outcome: the winning repair, the notes, the
 * per-candidate stats and the stage reports, all in template order.
 * @p preprocessed is the lint-fixed module the templates instrument;
 * @p resolved / @p init must already be X-resolved.  Returns the
 * run's status: Repaired, Timeout (global deadline or caller cancel),
 * Degraded or NoRepair.
 */
RepairOutcome::Status
runPortfolio(const verilog::Module &preprocessed,
             const std::vector<const verilog::Module *> &library,
             const trace::IoTrace &resolved,
             const std::vector<bv::Value> &init,
             const RepairConfig &config, const Deadline &deadline,
             unsigned jobs, RepairOutcome &outcome);

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_PARALLEL_HPP
