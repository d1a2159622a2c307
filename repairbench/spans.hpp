/**
 * @file
 * The benchmark's span tree and its self-time computation.
 *
 * A span is a named [start, end) interval with an optional parent.
 * The benchmark records its own spans around every public call it
 * makes, then grafts the program's telemetry spans underneath them,
 * and reports per-layer self time: a span's duration minus the part
 * of its interval that its children cover.  Children may overlap each
 * other (the program's portfolio spans do when jobs > 1); coverage is
 * the union of the children's intervals, clipped to the parent.
 *
 * Header-only so the self-test can build without the tool libraries.
 */
#ifndef REPAIRBENCH_SPANS_HPP
#define REPAIRBENCH_SPANS_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace repairbench {

/** One span; times in microseconds on a single clock. */
struct Span
{
    std::string name;
    uint64_t start_us = 0;
    uint64_t end_us = 0;
    int parent = -1;  ///< index into the span vector; -1 = root

    uint64_t duration() const { return end_us - start_us; }
};

/**
 * Self time of every span, indexed like @p spans: duration minus the
 * union of the children's intervals, each clipped to the parent.
 */
inline std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start_us, s.end_us);
    }
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0;
        uint64_t reach = p.start_us;  // end of the union so far
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            hi = std::min(hi, p.end_us);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = p.duration() - std::min(covered, p.duration());
    }
    return self;
}

/**
 * Records nested spans on one thread.  Disabled, open() and close()
 * do nothing, so the untraced passes pay one branch per call site.
 */
class SpanLog
{
  public:
    explicit SpanLog(uint64_t (*clock)()) : _clock(clock) {}

    void setEnabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** Index of the new span, or -1 when disabled. */
    int
    open(std::string name)
    {
        if (!_enabled)
            return -1;
        int parent = _stack.empty() ? -1 : _stack.back();
        spans.push_back({std::move(name), _clock(), 0, parent});
        _stack.push_back(static_cast<int>(spans.size()) - 1);
        return _stack.back();
    }

    void
    close(int index)
    {
        if (index < 0)
            return;
        spans[index].end_us = _clock();
        _stack.pop_back();
    }

    /** Innermost span (of this log) whose interval holds [lo, hi]. */
    int
    innermostContaining(uint64_t lo, uint64_t hi) const
    {
        int best = -1;
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.start_us <= lo && hi <= s.end_us &&
                (best < 0 || s.start_us >= spans[best].start_us))
                best = static_cast<int>(i);
        }
        return best;
    }

    std::vector<Span> spans;

  private:
    uint64_t (*_clock)();
    bool _enabled = false;
    std::vector<int> _stack;
};

/** RAII wrapper around SpanLog::open/close. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name)
        : _log(log), _index(log.open(std::move(name)))
    {
    }
    ~Scope() { _log.close(_index); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &_log;
    int _index;
};

} // namespace repairbench

#endif // REPAIRBENCH_SPANS_HPP
