/**
 * @file
 * Zero-overhead-when-off telemetry: a span-based tracer plus typed
 * counters/gauges, threaded through every pipeline layer.
 *
 * Design rules:
 *  - Disabled (the default), every instrumentation point costs one
 *    relaxed atomic load and a predictable branch — Counter::add,
 *    Gauge::record and the Span constructor all check enabled()
 *    before touching anything else.  A microbench
 *    (bench/telemetry_overhead) keeps this honest.
 *  - Spans are RAII objects backed by a thread-safe ring buffer;
 *    nesting is tracked per thread, and a parent span id can be
 *    carried across the thread pool's task boundary with SpanParent,
 *    so a template task running on a pool worker still hangs under
 *    the repair span that scheduled it in the flame graph.
 *  - Counters declare whether they are Deterministic (identical for
 *    jobs=1 and jobs=N, because they are only bumped on the
 *    portfolio's deterministic consume/fold paths) or Unstable
 *    (wall-clock durations, cancelled work, steal counts).  The
 *    exporters keep the two groups apart so CI can gate on the
 *    deterministic ones.
 *
 * Exporters: NDJSON event stream (--trace-out), Chrome/Perfetto
 * trace_event JSON (--perfetto-out, loads in ui.perfetto.dev), and a
 * compact metrics.json summary (--metrics-out) that the CLI --report
 * and bench/table5_speed both embed.
 */
#ifndef RTLREPAIR_UTIL_TELEMETRY_HPP
#define RTLREPAIR_UTIL_TELEMETRY_HPP

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rtlrepair::telemetry {

/** Master switch; one relaxed atomic load on every hot-path check. */
bool enabled();
void setEnabled(bool on);

/** Zero all counters/gauges and drop all recorded events.  The
 *  enabled flag and the event capacity are left untouched. */
void reset();

/** Microseconds since process start (steady clock). */
uint64_t nowUs();

/** Small dense id of the calling thread (assigned on first use). */
uint32_t threadId();

/**
 * Stability class of a metric: Deterministic values are identical for
 * jobs=1 and jobs=N on the same input (bumped only on the portfolio's
 * deterministic consume/fold paths); Unstable values depend on
 * wall-clock time or scheduling (durations, work in cancelled template
 * tasks, work stealing).
 */
enum class MetricKind { Deterministic, Unstable };

/**
 * Monotonic counter.  Declare at namespace scope in the instrumented
 * translation unit (registration happens at static init) or fetch a
 * dynamically named one with telemetry::counter().
 */
class Counter
{
  public:
    explicit Counter(std::string name,
                     MetricKind kind = MetricKind::Deterministic);

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(uint64_t n = 1)
    {
        if (enabled())
            _value.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void clear() { _value.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return _name; }
    MetricKind kind() const { return _kind; }

  private:
    std::string _name;
    MetricKind _kind;
    std::atomic<uint64_t> _value{0};
};

/** High-water-mark gauge (record() keeps the maximum seen). */
class Gauge
{
  public:
    explicit Gauge(std::string name,
                   MetricKind kind = MetricKind::Unstable);

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    record(uint64_t v)
    {
        if (!enabled())
            return;
        uint64_t cur = _value.load(std::memory_order_relaxed);
        while (v > cur &&
               !_value.compare_exchange_weak(
                   cur, v, std::memory_order_relaxed)) {
        }
    }

    uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void clear() { _value.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return _name; }
    MetricKind kind() const { return _kind; }

  private:
    std::string _name;
    MetricKind _kind;
    std::atomic<uint64_t> _value{0};
};

/** Registry-owned counter/gauge for dynamically built names (e.g. the
 *  per-stage "stage.<name>.us" family).  Creates on first use. */
Counter &counter(const std::string &name,
                 MetricKind kind = MetricKind::Deterministic);
Gauge &gauge(const std::string &name,
             MetricKind kind = MetricKind::Unstable);

/** Final value snapshot of all registered counters/gauges of @p kind,
 *  sorted by name (zero-valued metrics included). */
std::vector<std::pair<std::string, uint64_t>>
counterValues(MetricKind kind);
std::vector<std::pair<std::string, uint64_t>>
gaugeValues(MetricKind kind);

/** One completed span, as stored in the ring buffer. */
struct SpanEvent
{
    std::string name;
    uint64_t id = 0;      ///< unique, nonzero
    uint64_t parent = 0;  ///< 0 = root
    uint32_t tid = 0;
    uint64_t start_us = 0;
    uint64_t dur_us = 0;
};

/**
 * RAII span.  Inert (one atomic load, nothing else) when telemetry is
 * disabled at construction; otherwise records start/end into the ring
 * buffer on destruction and maintains the per-thread nesting stack.
 */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (enabled())
            arm(name);
    }

    explicit Span(const std::string &name)
    {
        if (enabled())
            arm(name.c_str());
    }

    ~Span()
    {
        if (_id)
            finish();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Id of the innermost live span on this thread (0 = none).
     *  Capture it before submitting a pool task and adopt it in the
     *  task with SpanParent to keep cross-thread nesting. */
    static uint64_t currentId();

  private:
    void arm(const char *name);
    void finish();

    std::string _name;
    uint64_t _id = 0;
    uint64_t _parent = 0;
    uint64_t _start = 0;
};

/** Adopt @p parent_id as the current span parent on this thread (for
 *  pool tasks); restores the previous parent on destruction. */
class SpanParent
{
  public:
    explicit SpanParent(uint64_t parent_id);
    ~SpanParent();

    SpanParent(const SpanParent &) = delete;
    SpanParent &operator=(const SpanParent &) = delete;

  private:
    uint64_t _saved = 0;
    bool _armed = false;
};

/** @name Ring buffer access @{ */
/** Snapshot of the recorded events, oldest first. */
std::vector<SpanEvent> events();
/** Events overwritten because the ring was full. */
uint64_t eventsDropped();
/** Resize the ring (drops current contents).  Test/tuning hook. */
void setEventCapacity(size_t capacity);
/** Append a pre-built event verbatim (exporter golden tests). */
void debugEmit(const SpanEvent &event);
/** @} */

/** @name Exporters @{ */
/** One JSON object per line: spans, then nonzero counters/gauges. */
void writeNdjson(std::ostream &os);
/** Chrome trace_event JSON; open at ui.perfetto.dev or
 *  chrome://tracing. */
void writePerfetto(std::ostream &os);
/** Compact machine-readable summary: counters and gauges grouped by
 *  stability class plus per-span-name aggregates.  This is the
 *  artifact the CI perf gate consumes. */
void writeMetricsJson(std::ostream &os);
/** Human-readable digest of the same summary (CLI --report). */
std::string metricsSummary();
/** @} */

} // namespace rtlrepair::telemetry

#endif // RTLREPAIR_UTIL_TELEMETRY_HPP
