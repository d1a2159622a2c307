#include "util/fault.hpp"

#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include <sys/resource.h>

#include "util/strings.hpp"

namespace rtlrepair {

FaultKind
parseFaultKind(const std::string &text)
{
    if (text == "throw" || text == "fatal")
        return FaultKind::Throw;
    if (text == "panic")
        return FaultKind::Panic;
    if (text == "alloc" || text == "bad_alloc")
        return FaultKind::BadAlloc;
    if (text == "timeout")
        return FaultKind::Timeout;
    fatal("unknown fault kind '" + text +
          "' (expected throw|panic|alloc|timeout)");
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Throw: return "throw";
      case FaultKind::Panic: return "panic";
      case FaultKind::BadAlloc: return "alloc";
      case FaultKind::Timeout: return "timeout";
      case FaultKind::Hold: return "hold";
    }
    return "?";
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector inj;
    static std::once_flag env_once;
    std::call_once(env_once, [] {
        if (const char *env = std::getenv("RTLREPAIR_FAULT")) {
            if (*env)
                inj.configure(env);
        }
    });
    return inj;
}

void
FaultInjector::configure(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(_mutex);
    restart();
    if (spec.empty()) {
        _armed.store(false, std::memory_order_relaxed);
        return;
    }
    // Split from the end: stage names may themselves contain ':'.
    std::string stage = spec;
    std::string kind_text;
    size_t nth = 1;
    size_t last = stage.rfind(':');
    if (last != std::string::npos) {
        std::string tail = stage.substr(last + 1);
        bool numeric = !tail.empty();
        for (char c : tail)
            numeric = numeric && c >= '0' && c <= '9';
        if (numeric) {
            nth = static_cast<size_t>(
                std::strtoull(tail.c_str(), nullptr, 10));
            stage.resize(last);
            last = stage.rfind(':');
        }
    }
    if (last == std::string::npos)
        fatal("fault spec must be stage:kind[:nth]: " + spec);
    kind_text = stage.substr(last + 1);
    stage.resize(last);
    if (stage.empty() || nth == 0)
        fatal("malformed fault spec: " + spec);
    _stage = stage;
    _kind = parseFaultKind(kind_text);
    _nth = nth;
    _armed.store(true, std::memory_order_relaxed);
}

void
FaultInjector::holdAt(const std::string &stage)
{
    std::lock_guard<std::mutex> lock(_mutex);
    restart();
    _stage = stage;
    _kind = FaultKind::Hold;
    _nth = 1;
    _armed.store(true, std::memory_order_relaxed);
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    restart();
    _armed.store(false, std::memory_order_relaxed);
}

void
FaultInjector::restart()
{
    ++_generation;
    _released.notify_all();
    _counts.clear();
    _fired = false;
}

bool
FaultInjector::armed() const
{
    return _armed.load(std::memory_order_relaxed);
}

std::string
FaultInjector::description() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_armed.load(std::memory_order_relaxed))
        return "disarmed";
    return format("%s:%s:%zu", _stage.c_str(), faultKindName(_kind),
                  _nth);
}

void
FaultInjector::hit(const std::string &stage)
{
    FaultKind kind;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        if (_fired || stage != _stage)
            return;
        if (++_counts[stage] != _nth)
            return;
        _fired = true;  // fire exactly once per configuration
        kind = _kind;
        if (kind == FaultKind::Hold) {
            uint64_t generation = _generation;
            _released.wait(lock,
                           [&] { return _generation != generation; });
            return;
        }
    }
    std::string what =
        format("injected %s fault at stage '%s'",
               faultKindName(kind), stage.c_str());
    switch (kind) {
      case FaultKind::Throw:
        throw FatalError(what);
      case FaultKind::Panic:
        throw PanicError(what);
      case FaultKind::BadAlloc:
        throw std::bad_alloc();
      case FaultKind::Timeout:
        throw StageTimeoutError(what);
      case FaultKind::Hold:
        break;  // returned above
    }
}

namespace {

/**
 * Parse the "<field> <n> kB" line (e.g. @c VmHWM:) out of
 * /proc/self/status-shaped @p text.
 */
std::optional<size_t>
parseStatusKb(const std::string &text, const char *field)
{
    size_t pos = text.find(field);
    if (pos == std::string::npos)
        return std::nullopt;
    pos += std::char_traits<char>::length(field);
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t'))
        ++pos;
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9')
        return std::nullopt;
    size_t kb = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        kb = kb * 10 + static_cast<size_t>(text[pos] - '0');
        ++pos;
    }
    // The kernel always reports these fields in kB; anything else is
    // a format we do not understand and must not misread.
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t'))
        ++pos;
    if (text.compare(pos, 2, "kB") != 0)
        return std::nullopt;
    return kb;
}

/** The contents of /proc/self/status, or empty when unreadable. */
std::string
readProcStatus()
{
    std::ifstream status("/proc/self/status");
    if (!status)
        return {};
    std::ostringstream buf;
    buf << status.rdbuf();
    return buf.str();
}

} // namespace

std::optional<size_t>
parseVmHwmKb(const std::string &text)
{
    return parseStatusKb(text, "VmHWM:");
}

std::optional<size_t>
parseVmRssKb(const std::string &text)
{
    return parseStatusKb(text, "VmRSS:");
}

std::optional<size_t>
currentRssKb()
{
    if (auto kb = parseVmRssKb(readProcStatus()))
        return kb;
    // No VmRSS: the lifetime peak is the closest bound that can still
    // be measured, and it never under-reports the current size.
    return peakRssKb();
}

std::optional<size_t>
peakRssKb()
{
    // Primary source: /proc/self/status VmHWM (present on Linux,
    // absent in minimal sandboxes and on other kernels).
    if (auto kb = parseVmHwmKb(readProcStatus()))
        return kb;
    // Fallback: getrusage, which Linux reports in KiB.  A zero
    // ru_maxrss means the kernel did not account it — unknown, not
    // "zero bytes resident".
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0 || ru.ru_maxrss <= 0)
        return std::nullopt;
    return static_cast<size_t>(ru.ru_maxrss);
}

} // namespace rtlrepair
