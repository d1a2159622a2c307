/**
 * @file
 * Deterministic fault injection for the repair pipeline.
 *
 * Every guarded stage of the repair pipeline calls faultPoint() on
 * entry.  When the injector is armed (via RTLREPAIR_FAULT or
 * `repair_cli --inject-fault`) and the site matches the configured
 * `stage:kind:nth` triple, the call raises the configured fault —
 * a FatalError, a PanicError, a std::bad_alloc, or a simulated stage
 * timeout — exactly on the nth visit to that stage and never again.
 *
 * Sites are counted per stage name under a mutex, so the nth visit is
 * the same no matter how many worker threads the portfolio uses: all
 * instrumented sites either run exactly once per repair (preprocess,
 * elaborate, per-template stages) or are placed on the deterministic
 * ladder-consume path of the engine (window solves), which steps in
 * identical order at jobs=1 and jobs=N.
 */
#ifndef RTLREPAIR_UTIL_FAULT_HPP
#define RTLREPAIR_UTIL_FAULT_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.hpp"

namespace rtlrepair {

/**
 * Thrown when a stage exceeds its time slice (or when the injector
 * simulates that).  Derives from neither FatalError nor PanicError:
 * a stage timeout is not an error in the input or the tool, it is a
 * budget decision, and the guards map it to StageStatus::TimedOut.
 */
class StageTimeoutError : public std::runtime_error
{
  public:
    explicit StageTimeoutError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** The fault classes the injector can raise at a site. */
enum class FaultKind {
    Throw,    ///< FatalError (malformed-input shaped)
    Panic,    ///< PanicError (internal-invariant shaped)
    BadAlloc, ///< std::bad_alloc (memory exhaustion shaped)
    Timeout,  ///< StageTimeoutError (budget-overrun shaped)
    Hold,     ///< no fault: block until reset() (see holdAt())
};

/** Parse "throw" / "panic" / "alloc" / "timeout"; fatal otherwise. */
FaultKind parseFaultKind(const std::string &text);
const char *faultKindName(FaultKind kind);

/**
 * Process-global, seeded-by-configuration fault injector.
 *
 * Disarmed (the default) it costs one relaxed atomic load per site.
 * Armed, it counts visits per stage name and raises the configured
 * fault on the matching visit.
 */
class FaultInjector
{
  public:
    /** The process-wide injector; reads RTLREPAIR_FAULT on first use. */
    static FaultInjector &instance();

    /**
     * Arm with a "stage:kind:nth" spec (nth is 1-based and optional,
     * default 1), e.g. "solve:replace-literals:alloc:2".  The stage
     * name itself may contain ':'; kind and nth are parsed from the
     * end.  An empty spec disarms.  Resets all site counters.
     */
    void configure(const std::string &spec);

    /**
     * Arm a latch instead of a fault: the first visit to @p stage
     * blocks until reset() or configure() is called.  Tests use it to
     * keep a job running while they drive the rest of a scenario, so
     * the scenario does not depend on how fast the job is.  Not
     * reachable from a spec string, so a user cannot hang a run.
     */
    void holdAt(const std::string &stage);

    /** Disarm, reset all site counters and release a held site. */
    void reset();

    bool armed() const;

    /** Visit the instrumented site @p stage; raises when it matches. */
    void hit(const std::string &stage);

    /** Stage/kind the injector is armed with (for diagnostics). */
    std::string description() const;

  private:
    FaultInjector() = default;

    /** Release a held site and reset the visit counters (under
     *  _mutex). */
    void restart();

    mutable std::mutex _mutex;
    std::condition_variable _released;
    uint64_t _generation = 0;  ///< bumped by restart()
    std::atomic<bool> _armed{false};
    std::string _stage;
    FaultKind _kind = FaultKind::Throw;
    size_t _nth = 1;
    bool _fired = false;
    std::unordered_map<std::string, size_t> _counts;
};

/** Instrumented-site marker; no-op unless the injector is armed. */
inline void
faultPoint(const std::string &stage)
{
    FaultInjector &inj = FaultInjector::instance();
    if (inj.armed())
        inj.hit(stage);
}

/**
 * Peak resident set size of this process in KiB, or std::nullopt
 * when it cannot be determined (no /proc/self/status, unparsable
 * contents, and a failing getrusage fallback).  Callers must treat
 * "unknown" as unknown: a budget check that reads a missing RSS as 0
 * silently reports every run as under budget.
 */
std::optional<size_t> peakRssKb();

/**
 * Current resident set size of this process in KiB (VmRSS): what a
 * memory budget should compare, since the lifetime peak never falls
 * once one large job has run.  Falls back to peakRssKb() where VmRSS
 * cannot be read.
 */
std::optional<size_t> currentRssKb();

/**
 * Parse the VmHWM / VmRSS line out of /proc/self/status-shaped
 * @p text.  Exposed for tests; returns std::nullopt when the field is
 * missing or malformed.
 */
std::optional<size_t> parseVmHwmKb(const std::string &text);
std::optional<size_t> parseVmRssKb(const std::string &text);

/** Peak RSS as a number for contexts that must print something:
 *  the value, or 0 when unknown.  Pair with peakRssKnown(). */
inline size_t
peakRssKbOrZero()
{
    return peakRssKb().value_or(0);
}

} // namespace rtlrepair

#endif // RTLREPAIR_UTIL_FAULT_HPP
