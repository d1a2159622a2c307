/**
 * @file
 * Parallel repair portfolio: the template cascade scheduled over a
 * work-stealing thread pool with first-success-wins cooperative
 * cancellation.
 *
 * Each repair template is an independent task, so the portfolio
 *  (a) applies, elaborates and repairs each template concurrently,
 *      one runEngine() (one incremental solver walking the window
 *      ladder) per template, and
 *  (b) cancels losing templates the moment a winner is decided, via
 *      CancelTokens threaded through the existing Deadline plumbing
 *      into the SAT solver's propagate/restart loop and the query
 *      encoder.
 *
 * Determinism rule: the scheduler consumes results in exactly the
 * order the serial cascade implies — templates in standardTemplates()
 * order — and applies the same (fewest changes, template order)
 * ranking.  Thread timing affects only wall-clock, never the repair
 * reported; jobs=1 and jobs=N produce bit-identical outcomes.
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

/** Best repair found by the portfolio (serial-cascade ranking). */
struct PortfolioBest
{
    std::unique_ptr<verilog::Module> repaired;
    int changes = 0;
    std::string template_name;
    int window_past = 0;
    int window_future = 0;
};

/** Outcome of a portfolio run over all templates. */
struct PortfolioOutcome
{
    std::optional<PortfolioBest> best;
    bool timed_out = false;
    std::string detail;
    std::vector<RepairCandidateStat> candidates;
    /** Per-stage reports from every template task, folded back in
     *  template order (identical to a serial run's order). */
    std::vector<StageReport> stages;
    /** A template task was dropped by the containment layer; the
     *  siblings' results are unaffected. */
    bool degraded = false;
};

/**
 * Run the template cascade as a parallel portfolio over @p jobs
 * workers.  @p preprocessed is the lint-fixed module the templates
 * instrument; @p resolved / @p init must already be X-resolved (the
 * same values the serial cascade would use).
 */
PortfolioOutcome
runPortfolio(const verilog::Module &preprocessed,
             const std::vector<const verilog::Module *> &library,
             const trace::IoTrace &resolved,
             const std::vector<bv::Value> &init,
             const RepairConfig &config, const Deadline &deadline,
             unsigned jobs);

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_PARALLEL_HPP
