#include "service/protocol.hpp"

#include "util/digest.hpp"
#include "util/strings.hpp"

namespace rtlrepair::service {

using repair::RepairOutcome;

int
exitCodeFor(RepairOutcome::Status status)
{
    switch (status) {
      case RepairOutcome::Status::Repaired:
        return kExitRepaired;
      case RepairOutcome::Status::NoRepair:
      case RepairOutcome::Status::Degraded:
        return kExitNoRepair;
      case RepairOutcome::Status::Timeout:
        return kExitTimeout;
      case RepairOutcome::Status::CannotSynthesize:
        return kExitBadInput;
    }
    return kExitInternal;
}

const char *
statusWireName(RepairOutcome::Status status)
{
    switch (status) {
      case RepairOutcome::Status::Repaired: return "repaired";
      case RepairOutcome::Status::NoRepair: return "no-repair";
      case RepairOutcome::Status::Timeout: return "timeout";
      case RepairOutcome::Status::CannotSynthesize:
        return "cannot-synthesize";
      case RepairOutcome::Status::Degraded: return "degraded";
    }
    return "?";
}

namespace {

Json
envelope(const char *type)
{
    Json msg = Json::object();
    msg.set("v", Json::number(kProtocolVersion));
    msg.set("type", Json::string(type));
    return msg;
}

std::string
line(const Json &msg)
{
    return msg.dump() + "\n";
}

} // namespace

uint64_t
jobDigest(const std::string &design_source,
          const std::string &trace_csv)
{
    uint64_t h = fnv1a64(design_source);
    h = fnv1a64("\x1f", h);  // separator: concat must not collide
    h = fnv1a64(trace_csv, h);
    return h;
}

bool
parseSubmit(const Json &msg, JobRequest &out, std::string &error)
{
    out = JobRequest{};
    out.id = msg.str("id");
    out.tenant = msg.str("tenant");
    out.priority = static_cast<int>(msg.num("priority", 0));
    out.design = msg.str("design");
    out.trace = msg.str("trace");
    out.timeout_seconds = msg.num("timeout", 0.0);
    out.jobs = static_cast<unsigned>(msg.num("jobs", 1));
    out.zero_x = msg.flag("zero_x", false);
    out.want_stages = msg.flag("report", false);
    if (out.design.empty()) {
        error = "submit without design source";
        return false;
    }
    if (out.trace.empty()) {
        error = "submit without trace CSV";
        return false;
    }
    if (out.timeout_seconds < 0.0) {
        error = "negative timeout";
        return false;
    }
    return true;
}

std::string
submitLine(const JobRequest &req)
{
    Json msg = envelope("submit");
    msg.set("id", Json::string(req.id));
    if (!req.tenant.empty())
        msg.set("tenant", Json::string(req.tenant));
    if (req.priority != 0)
        msg.set("priority", Json::number(req.priority));
    msg.set("design", Json::string(req.design));
    msg.set("trace", Json::string(req.trace));
    if (req.timeout_seconds > 0.0)
        msg.set("timeout", Json::number(req.timeout_seconds));
    if (req.jobs != 1)
        msg.set("jobs", Json::number(double(req.jobs)));
    if (req.zero_x)
        msg.set("zero_x", Json::boolean(true));
    if (req.want_stages)
        msg.set("report", Json::boolean(true));
    return line(msg);
}

std::string
acceptedLine(const std::string &id, size_t queue_depth)
{
    Json msg = envelope("accepted");
    msg.set("id", Json::string(id));
    msg.set("queue_depth", Json::number(uint64_t(queue_depth)));
    return line(msg);
}

std::string
rejectedLine(const std::string &id, const std::string &reason)
{
    Json msg = envelope("rejected");
    msg.set("id", Json::string(id));
    msg.set("reason", Json::string(reason));
    return line(msg);
}

std::string
errorLine(const std::string &message, const std::string &id)
{
    Json msg = envelope("error");
    msg.set("message", Json::string(message));
    if (!id.empty())
        msg.set("id", Json::string(id));
    return line(msg);
}

std::string
stageLine(const std::string &id, const repair::StageReport &report)
{
    Json msg = envelope("stage");
    msg.set("id", Json::string(id));
    msg.set("stage", Json::string(report.stage));
    msg.set("status",
            Json::string(repair::stageStatusName(report.status)));
    msg.set("seconds", Json::number(report.seconds));
    if (report.rss_known)
        msg.set("rss_kb", Json::number(uint64_t(report.peak_rss_kb)));
    else
        msg.set("rss", Json::string("unknown"));
    if (report.retries > 0)
        msg.set("retries", Json::number(report.retries));
    if (!report.diagnostic.empty())
        msg.set("diagnostic", Json::string(report.diagnostic));
    return line(msg);
}

std::string
pongLine()
{
    return line(envelope("pong"));
}

std::string
resultLine(const std::string &id, const RepairOutcome &outcome,
           const std::string &repaired_source)
{
    Json msg = envelope("result");
    msg.set("id", Json::string(id));
    const char *status = outcome.cancelled ? "cancelled"
                                           : statusWireName(
                                                 outcome.status);
    msg.set("status", Json::string(status));
    msg.set("exit_code", Json::number(exitCodeFor(outcome.status)));
    msg.set("changes",
            Json::number(outcome.changes + outcome.preprocess_changes));
    msg.set("template", Json::string(outcome.template_name));
    msg.set("seconds", Json::number(outcome.seconds));
    msg.set("degraded", Json::boolean(outcome.degraded));
    msg.set("cancelled", Json::boolean(outcome.cancelled));
    if (!outcome.detail.empty())
        msg.set("detail", Json::string(outcome.detail));
    if (!repaired_source.empty())
        msg.set("repaired", Json::string(repaired_source));
    return line(msg);
}

std::string
failureResultLine(const std::string &id, const std::string &status,
                  int exit_code, const std::string &detail)
{
    Json msg = envelope("result");
    msg.set("id", Json::string(id));
    msg.set("status", Json::string(status));
    msg.set("exit_code", Json::number(exit_code));
    if (!detail.empty())
        msg.set("detail", Json::string(detail));
    return line(msg);
}

std::optional<std::string>
messageType(const Json &msg, std::string &error)
{
    if (!msg.isObject()) {
        error = "message is not a JSON object";
        return std::nullopt;
    }
    if (const Json *v = msg.find("v")) {
        if (static_cast<int>(v->asNumber(-1)) != kProtocolVersion) {
            error = format("unsupported protocol version %g",
                           v->asNumber(-1));
            return std::nullopt;
        }
    }
    std::string type = msg.str("type");
    if (type.empty()) {
        error = "message without type";
        return std::nullopt;
    }
    return type;
}

} // namespace rtlrepair::service
