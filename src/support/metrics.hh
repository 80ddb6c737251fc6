/**
 * @file
 * Unified metrics registry: a hierarchical, thread-safe collection of
 * named counters, gauges, and histograms with dotted paths
 * (`uarch.pipeline.branchStallCycles`, `bpred.tage-6x4096.providerHits`,
 * `engine.jobs.retries`). Every component registers its stats once;
 * harnesses export the union as schema-versioned JSON
 * (`vanguard-metrics v1`, parsed back through
 * support/versioned_format.hh).
 *
 * Determinism contract: everything that lands in an exported dump must
 * be a pure function of the sweep inputs, never of scheduling or
 * wall-clock. Counters are unsigned adds (commutative, so any merge
 * order — any worker count — yields the same totals), max-aggregated
 * values use fetch-max, and histograms observe deterministic values
 * into fixed buckets (bucket counts are order-independent). Wall-clock
 * durations belong in the event tracer (support/tracing.hh), never
 * here.
 *
 * Per-job attribution: a job summarizes itself into a MetricSnapshot
 * and the registry folds it in under a scope name
 * (mergeJobSnapshot). The first merge of a scope stores the snapshot
 * verbatim and aggregates it into the union; a repeat merge of the
 * same scope (a journal replay, or a second sweep into the same
 * registry at a different worker count) verifies the values are
 * bit-identical and raises SimError(Invariant) naming the first
 * diverging counter — the same guarantee the crash journal gives
 * SimStats, now enforced for every exported metric.
 */

#ifndef VANGUARD_SUPPORT_METRICS_HH
#define VANGUARD_SUPPORT_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vanguard {

constexpr const char *kMetricsMagic = "vanguard-metrics";
constexpr unsigned kMetricsVersion = 1;

/** Fold a free-form name into a dotted-path segment: alphanumerics,
 *  '-' and '_' pass through, everything else ('.', ':', '%', space)
 *  becomes '-' so it cannot split or alias path components. */
inline std::string
sanitizeMetricKey(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_';
        out += ok ? c : '-';
    }
    return out;
}

/** Escape `s` for a JSON string literal: `"` and `\` get a
 *  backslash, and every control byte is spelled `\u00XX`. Shared by
 *  the metrics dump, trace export and the telemetry endpoint. */
std::string jsonEscape(const std::string &s);

/**
 * A job's metric summary: (path, value, aggregation) triples produced
 * on the worker thread and folded into a registry once. Header-only so
 * leaf components (predictors, the pipeline) can fill one without
 * linking the registry.
 */
struct MetricSnapshot
{
    enum class Agg { Sum, Max };

    struct Entry
    {
        std::string path;
        uint64_t value = 0;
        Agg agg = Agg::Sum;
    };

    std::vector<Entry> entries;

    void
    add(std::string path, uint64_t value, Agg agg = Agg::Sum)
    {
        entries.push_back({std::move(path), value, agg});
    }
};

/** Monotonic unsigned counter (thread-safe, relaxed atomics). */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Raise to at least `v` (for max-aggregated quantities). */
    void
    toAtLeast(uint64_t v)
    {
        uint64_t cur = value_.load(std::memory_order_relaxed);
        while (cur < v &&
               !value_.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed))
            ;
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins floating-point level (thread-safe). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram over uint64 observations. Bucket bounds are
 * set at registration (upper-inclusive; one implicit overflow bucket),
 * so bucket counts — and the percentiles derived from them — are pure
 * functions of the multiset of observed values, independent of
 * observation order and worker count.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<uint64_t> bounds);

    void observe(uint64_t v);

    uint64_t count() const;
    uint64_t sum() const;
    uint64_t minValue() const;    ///< 0 when empty
    uint64_t maxValue() const;    ///< 0 when empty

    /** Upper bound of the bucket holding the p-quantile (p in [0,1]);
     *  the overflow bucket reports the observed max. 0 when empty. */
    uint64_t percentile(double p) const;

    const std::vector<uint64_t> &bounds() const { return bounds_; }
    uint64_t bucketCount(size_t i) const;

  private:
    std::vector<uint64_t> bounds_;
    std::vector<std::atomic<uint64_t>> counts_;  ///< bounds+overflow
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{~uint64_t{0}};
    std::atomic<uint64_t> max_{0};
};

/**
 * A point-in-time, read-only enumeration of every registered
 * instrument — the contract the live telemetry plane
 * (support/telemetry.hh) builds on: sampling a registry observes it
 * without mutating it, so exported dumps stay byte-identical whether
 * or not a TelemetryServer was scraping mid-sweep. Histograms carry
 * their derived percentiles (Histogram::percentile) so consumers need
 * no bucket math.
 */
struct RegistrySample
{
    struct CounterSample
    {
        std::string path;
        uint64_t value = 0;
    };
    struct GaugeSample
    {
        std::string path;
        double value = 0.0;
    };
    struct HistogramSample
    {
        std::string path;
        std::vector<uint64_t> bounds;
        std::vector<uint64_t> bucketCounts; ///< bounds + overflow
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0;
        uint64_t max = 0;
        uint64_t p50 = 0;
        uint64_t p90 = 0;
        uint64_t p99 = 0;
    };

    std::vector<CounterSample> counters;     ///< path-sorted
    std::vector<GaugeSample> gauges;         ///< path-sorted
    std::vector<HistogramSample> histograms; ///< path-sorted
};

/**
 * The registry: register-or-get by dotted path (re-registration
 * returns the existing instrument; a path registered as a different
 * kind raises SimError(Invariant)), per-job snapshot merging with the
 * bit-identity assertion, and versioned JSON export.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &path);
    Gauge &gauge(const std::string &path);
    Histogram &histogram(const std::string &path,
                         std::vector<uint64_t> bounds);

    /** Lookup without registering; null when absent. */
    const Counter *findCounter(const std::string &path) const;
    const Gauge *findGauge(const std::string &path) const;
    const Histogram *findHistogram(const std::string &path) const;

    /**
     * Fold one job's snapshot into the union counters and remember it
     * under `scope`. First merge per scope aggregates (Sum adds,
     * Max raises); a repeat merge verifies the snapshot is
     * bit-identical to the stored one (raising SimError(Invariant)
     * naming the diverging counter) and aggregates nothing, so
     * journal replays and reruns are idempotent.
     */
    void mergeJobSnapshot(const std::string &scope,
                          const MetricSnapshot &snap);

    size_t scopeCount() const;

    /**
     * Enumerate every registered instrument (path-sorted, a
     * point-in-time read). Purely observational: sampling never
     * registers, mutates, or reorders anything, which is what lets
     * the telemetry plane scrape mid-sweep without perturbing the
     * exported dumps.
     */
    RegistrySample sample() const;

    /** Schema-versioned export ("vanguard-metrics v1"). */
    std::string toJson() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, char> kinds_;  ///< 'c', 'g', 'h'
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::vector<MetricSnapshot::Entry>> scopes_;
};

/** Flat view of a parsed dump: dotted keys with section prefixes
 *  ("counters.engine.jobs.total", "jobs.<scope>.<path>", ...). */
struct ParsedMetrics
{
    bool ok = false;
    std::string error;
    unsigned version = 0;
    std::map<std::string, double> values;

    bool
    has(const std::string &key) const
    {
        return values.count(key) != 0;
    }
};

/**
 * Parse a metrics dump back (the test-side half of the round trip).
 * Raises SimError(Io) via parseVersionedHeader for a future schema
 * version; lesser problems come back through ok/error.
 */
ParsedMetrics parseMetricsJson(const std::string &text);

} // namespace vanguard

#endif // VANGUARD_SUPPORT_METRICS_HH
