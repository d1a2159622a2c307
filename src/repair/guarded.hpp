/**
 * @file
 * Fault containment for the repair pipeline: stage guards, per-stage
 * time slices carved from the global repair budget, a peak-memory
 * watermark, and the structured per-stage reports that let a degraded
 * run explain exactly what it dropped.
 *
 * Every stage boundary — preprocess, baseline replay, elaboration,
 * each template instrumentation, and each window solve — runs inside
 * a StageGuard.  The guard catches the three fault classes that used
 * to abort the whole run (FatalError, PanicError, std::bad_alloc)
 * plus simulated/real stage-budget overruns (StageTimeoutError), and
 * records a StageReport instead of propagating.  The driver then
 * walks a degradation ladder: retry a failed solve once (reseeded
 * solver, halved window growth), drop the offending template from the
 * cascade, and only report Degraded/NoRepair when every fallback is
 * exhausted.
 */
#ifndef RTLREPAIR_REPAIR_GUARDED_HPP
#define RTLREPAIR_REPAIR_GUARDED_HPP

#include <new>
#include <string>
#include <vector>

#include "util/fault.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace rtlrepair::repair {

/** How a guarded stage ended. */
enum class StageStatus {
    Ok,
    Failed,    ///< FatalError / PanicError / bad_alloc contained
    TimedOut,  ///< stage budget exhausted (slice, not the global run)
    Skipped,   ///< not attempted (e.g. memory watermark exceeded)
};

const char *stageStatusName(StageStatus status);

/** Structured record of one guarded stage execution. */
struct StageReport
{
    std::string stage;  ///< e.g. "preprocess", "solve:add-guard"
    StageStatus status = StageStatus::Ok;
    double seconds = 0.0;
    int retries = 0;            ///< recoveries attempted inside the stage
    std::string diagnostic;     ///< exception text when not Ok
    size_t peak_rss_kb = 0;     ///< process peak RSS after the stage
    /** False when the peak RSS could not be determined (no
     *  /proc/self/status, failing getrusage): peak_rss_kb is then 0
     *  and means "unknown", not "under budget". */
    bool rss_known = false;
    /** The contained fault was a FatalError: the stage choked on the
     *  user's input, not on a tool bug or resource exhaustion. */
    bool user_error = false;
};

/** One line per report, for --report and RepairOutcome::detail. */
std::string formatStageReports(const std::vector<StageReport> &reports);

/**
 * Fold a run's final stage-report list into the dynamic telemetry
 * counter families "stage.<name>.runs" (deterministic),
 * "stage.<name>.us" and "stage.<name>.not_ok".  The driver calls this
 * once per repair over the folded outcome, so runs at every job
 * count aggregate the exact same stage totals (the per-task reports
 * are merged before the fold).
 */
void foldStageCounters(const std::vector<StageReport> &reports);

/**
 * Fraction of the remaining global budget a single template stage
 * (instrument + elaborate + solve) may consume, expressed as an
 * overcommit factor on the fair share remaining/stages_left: a
 * pathological template can run past its fair share (slack from fast
 * siblings is reused) but can never starve the whole run.
 */
constexpr double kStageOvercommit = 2.0;

/** Window-solve retries before a template is dropped. */
constexpr int kSolveRetries = 1;

/** Budget policy for the containment layer. */
struct GuardConfig
{
    /**
     * RSS watermark in MiB; while the process's current RSS exceeds
     * it, no further solve stages are launched (they are Skipped and
     * the run degrades).  0 disables the watermark.
     */
    size_t max_rss_mb = 0;
};

/**
 * Seconds of budget to grant one of @p stages_left remaining stages
 * when @p remaining seconds of global budget are left.  Unlimited
 * (<= 0) budgets stay unlimited.
 */
double stageSlice(double remaining, size_t stages_left);

/** True while the process's current RSS exceeds the watermark. */
bool memoryWatermarkExceeded(const GuardConfig &config);

/** Stage name for one window solve of template @p label. */
inline std::string
solveStageName(const std::string &label)
{
    return label.empty() ? "solve" : "solve:" + label;
}

/** Deterministic solver phase seed for retry @p attempt (1-based). */
inline uint64_t
retrySolverSeed(int attempt)
{
    return 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(attempt);
}

/**
 * Guard one pipeline stage: time it, contain the fault classes, and
 * append a StageReport to the sink on destruction-free completion of
 * run().  Use one guard per stage execution.
 */
class StageGuard
{
  public:
    /** Report recording policy: every run, or contained faults only
     *  (used for wrapper stages whose inner stages report timing). */
    enum class Recording { Always, OnFault };

    StageGuard(std::string stage, std::vector<StageReport> &sink,
               Recording recording = Recording::Always)
        : _sink(&sink), _recording(recording)
    {
        _report.stage = std::move(stage);
    }

    /**
     * Run @p fn under the guard.  Returns true when the stage
     * completed; on a contained fault, records the report and returns
     * false.  Faults outside the contained set (e.g. std::bad_cast)
     * still propagate: the containment layer only absorbs the classes
     * it knows how to degrade from.
     */
    template <typename Fn>
    bool
    run(Fn &&fn)
    {
        telemetry::Span span(_report.stage);
        Stopwatch watch;
        try {
            faultPoint(_report.stage);
            fn();
            finish(watch, StageStatus::Ok, "");
            return true;
        } catch (const StageTimeoutError &e) {
            finish(watch, StageStatus::TimedOut, e.what());
        } catch (const FatalError &e) {
            _report.user_error = true;
            finish(watch, StageStatus::Failed,
                   format("fatal: %s", e.what()));
        } catch (const PanicError &e) {
            finish(watch, StageStatus::Failed,
                   format("panic: %s", e.what()));
        } catch (const std::bad_alloc &) {
            finish(watch, StageStatus::Failed, "out of memory");
        }
        return false;
    }

    /** Annotate the report with how many retries preceded this run. */
    void setRetries(int retries) { _report.retries = retries; }

    /** Record the stage as skipped without running anything. */
    void
    skip(const std::string &why)
    {
        _report.status = StageStatus::Skipped;
        _report.diagnostic = why;
        recordRss();
        _sink->push_back(_report);
    }

    /** Report of the last run()/skip() (valid after either). */
    const StageReport &report() const { return _report; }

  private:
    void
    recordRss()
    {
        std::optional<size_t> rss = peakRssKb();
        _report.rss_known = rss.has_value();
        _report.peak_rss_kb = rss.value_or(0);
    }

    void
    finish(const Stopwatch &watch, StageStatus status,
           const std::string &diagnostic)
    {
        _report.status = status;
        _report.seconds = watch.seconds();
        _report.diagnostic = diagnostic;
        recordRss();
        if (_recording == Recording::Always ||
            status != StageStatus::Ok) {
            _sink->push_back(_report);
        }
    }

    std::vector<StageReport> *_sink;
    Recording _recording = Recording::Always;
    StageReport _report;
};

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_GUARDED_HPP
