/**
 * @file
 * End-to-end RTL-Repair driver (paper Fig. 3): preprocessing, the
 * template cascade, synthesis with adaptive windowing, patch-back,
 * and the "keep looking if the repair is large" rule (Σφ > 3 tries
 * the remaining templates for something smaller).
 */
#ifndef RTLREPAIR_REPAIR_DRIVER_HPP
#define RTLREPAIR_REPAIR_DRIVER_HPP

#include <memory>
#include <string>

#include "repair/guarded.hpp"
#include "repair/windowing.hpp"
#include "templates/preprocess.hpp"
#include "util/stopwatch.hpp"
#include "verilog/ast.hpp"

namespace rtlrepair::repair {

/**
 * Cross-run cache of the design-dependent pipeline prefix
 * (preprocess + base elaboration), keyed by a content digest of the
 * design + library sources.  The repair driver consults it when
 * RepairConfig::elab_cache/cache_key are set; the service layer
 * provides the bounded LRU implementation (service::ElabCache) so a
 * fleet of near-identical submissions hits warm state.
 */
class ElaborationCache
{
  public:
    struct Entry
    {
        /** Preprocessed (lint-fixed) design; cloned on every hit so
         *  cached state is never aliased into a running job. */
        std::unique_ptr<verilog::Module> module;
        int preprocess_changes = 0;
        std::vector<std::string> preprocess_notes;
        /** Base (uninstrumented) elaboration of the module. */
        ir::TransitionSystem sys;
    };

    virtual ~ElaborationCache() = default;

    /** Copy the entry for @p key into @p out; false on miss. */
    virtual bool lookup(uint64_t key, Entry &out) = 0;

    /** Store a copy of @p entry under @p key. */
    virtual void store(uint64_t key, const Entry &entry) = 0;
};

/** Repairs with more changes than this keep the template cascade
 *  going (paper Fig. 3). */
constexpr int kChangeThreshold = 3;

/** Tool configuration. */
struct RepairConfig
{
    double timeout_seconds = 60.0;  ///< paper: 60 s for RTL-Repair
    /** Policy for unknown inputs/state: Random matches 4-state
     *  event-driven testbenches, Zero matches Verilator (§4.3). */
    sim::XPolicy x_policy = sim::XPolicy::Random;
    uint64_t seed = 1;
    EngineConfig engine;
    /** Restrict the run to a single template (Table 5 breakdown). */
    std::string only_template;
    /** Skip templates entirely (preprocessing-only runs). */
    bool preprocess_only = false;
    /**
     * Threads for the template cascade, the calling thread included.
     * 1 starts no worker and runs the templates in order on the
     * caller; N > 1 runs up to N templates at once with
     * first-success-wins cancellation; 0 (default) resolves via the
     * RTLREPAIR_JOBS environment variable, falling back to
     * std::thread::hardware_concurrency().  Results are deterministic
     * and identical across all values.
     */
    unsigned jobs = 0;
    /** Fault-containment policy: stage time slices, the peak-memory
     *  watermark, and the solve retry budget. */
    GuardConfig guard;
    /**
     * External cancellation (Ctrl-C, client disconnect, server
     * shutdown).  Chained into the run's root Deadline, so every
     * solver conflict-loop poll observes it; the run then unwinds
     * cooperatively and reports RepairOutcome::cancelled.  Must
     * outlive the repairDesign() call.  Optional.
     */
    const CancelToken *cancel = nullptr;
    /** Cross-run preprocess+elaboration cache (see ElaborationCache);
     *  consulted/filled only when cache_key is nonzero.  Optional. */
    ElaborationCache *elab_cache = nullptr;
    /** Content digest of design+library sources keying elab_cache. */
    uint64_t cache_key = 0;
};

/** Per-candidate solve statistics (one row per template × window). */
struct RepairCandidateStat
{
    std::string template_name;
    WindowStat window;
};

/** Outcome of one tool run. */
struct RepairOutcome
{
    /**
     * Degraded = no repair was found AND at least one pipeline stage
     * was dropped by the fault-containment layer, so "no repair" is a
     * weaker claim than usual; the per-stage reports say exactly what
     * was lost.  Runs that find a repair despite contained faults
     * still report Repaired (with the reports attached).
     */
    enum class Status {
        Repaired, NoRepair, Timeout, CannotSynthesize, Degraded
    };
    Status status = Status::NoRepair;

    std::unique_ptr<verilog::Module> repaired;  ///< patched source
    int changes = 0;                 ///< Σφ of the accepted repair
    int preprocess_changes = 0;      ///< lint fixes applied
    bool by_preprocessing = false;   ///< trace passed after lint fixes
    bool no_repair_needed = false;   ///< passed with zero changes
    std::string template_name;       ///< winning template
    double seconds = 0.0;
    size_t first_failure = 0;
    int window_past = 0;
    int window_future = 0;
    std::string detail;  ///< human-readable notes / failure reason
    /** Solve statistics for every candidate examined, in template
     *  order (identical for every job count). */
    std::vector<RepairCandidateStat> candidates;
    /** Structured per-stage execution record (guards, budgets,
     *  contained faults), in pipeline order. */
    std::vector<StageReport> stages;
    /** True when the containment layer dropped a stage or template;
     *  set for Degraded and for degraded-but-Repaired runs alike. */
    bool degraded = false;
    /** The run was stopped by RepairConfig::cancel (reported as
     *  Timeout status, but distinguishable for signal/disconnect
     *  handling). */
    bool cancelled = false;
    /** The preprocess+elaborate prefix came from the elaboration
     *  cache (warm start). */
    bool elab_cache_hit = false;
};

/**
 * Run the full tool: repair @p buggy (with optional submodule
 * @p library) against @p io.
 */
RepairOutcome repairDesign(const verilog::Module &buggy,
                           const std::vector<const verilog::Module *>
                               &library,
                           const trace::IoTrace &io,
                           const RepairConfig &config);

/**
 * Resolve all X input bits of @p io (and nothing else) using
 * @p policy/@p seed, so the symbolic query and the concrete replays
 * see identical stimulus.
 */
trace::IoTrace resolveTraceInputs(const trace::IoTrace &io,
                                  sim::XPolicy policy, uint64_t seed);

/** Resolve the initial state of @p sys under @p policy/@p seed. */
std::vector<bv::Value> resolveInitState(const ir::TransitionSystem &sys,
                                        sim::XPolicy policy,
                                        uint64_t seed);

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_DRIVER_HPP
