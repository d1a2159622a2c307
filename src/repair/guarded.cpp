#include "repair/guarded.hpp"

namespace rtlrepair::repair {

const char *
stageStatusName(StageStatus status)
{
    switch (status) {
      case StageStatus::Ok: return "ok";
      case StageStatus::Failed: return "failed";
      case StageStatus::TimedOut: return "timed-out";
      case StageStatus::Skipped: return "skipped";
    }
    return "?";
}

std::string
formatStageReports(const std::vector<StageReport> &reports)
{
    std::string out;
    for (const auto &r : reports) {
        out += format("%-28s %-9s %7.3fs", r.stage.c_str(),
                      stageStatusName(r.status), r.seconds);
        if (r.retries > 0)
            out += format("  retries=%d", r.retries);
        if (r.rss_known)
            out += format("  rss=%zuMB", r.peak_rss_kb / 1024);
        else
            out += "  rss=?";
        if (!r.diagnostic.empty())
            out += format("  (%s)", r.diagnostic.c_str());
        out += "\n";
    }
    return out;
}

void
foldStageCounters(const std::vector<StageReport> &reports)
{
    if (!telemetry::enabled())
        return;
    // Run counts are deterministic (the folded stage list is identical
    // for jobs=1 and jobs=N); wall-clock totals are not.
    for (const auto &r : reports) {
        telemetry::counter("stage." + r.stage + ".runs").add(1);
        telemetry::counter("stage." + r.stage + ".us",
                           telemetry::MetricKind::Unstable)
            .add(static_cast<uint64_t>(r.seconds * 1e6));
        if (r.status != StageStatus::Ok) {
            telemetry::counter("stage." + r.stage + ".not_ok")
                .add(1);
        }
    }
}

double
stageSlice(double remaining, size_t stages_left)
{
    if (remaining <= 0.0 || remaining >= 1e17)
        return 0.0;  // unlimited budget stays unlimited
    if (stages_left == 0)
        stages_left = 1;
    double fair = remaining / static_cast<double>(stages_left);
    double slice = fair * kStageOvercommit;
    return slice < remaining ? slice : remaining;
}

bool
memoryWatermarkExceeded(const GuardConfig &config)
{
    if (config.max_rss_mb == 0)
        return false;
    std::optional<size_t> rss = currentRssKb();
    if (!rss) {
        // Unknown RSS is not evidence of being under budget, but a
        // watermark can only compare against a measurement: record
        // the blind spot instead of silently passing as 0.
        telemetry::counter("guard.rss_unknown",
                           telemetry::MetricKind::Unstable)
            .add(1);
        return false;
    }
    return *rss > config.max_rss_mb * 1024;
}

} // namespace rtlrepair::repair
