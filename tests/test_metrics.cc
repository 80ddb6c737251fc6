/**
 * @file
 * Unit tests for the unified metrics registry: registration and
 * dotted-path lookup, kind collisions, histogram percentiles, the
 * JSON/CSV round-trip through the versioned header, thread-safety
 * under the pool, the per-job snapshot bit-identity assertion, and a
 * tiny-sweep schema smoke test (the tier-1 guarantee that a metrics
 * dump always carries the engine.* and uarch.* key families).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runner.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

TEST(Metrics, RegisterOrGetByDottedPath)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("engine.jobs.total");
    a.add(3);
    // Re-registration returns the same instrument.
    Counter &b = reg.counter("engine.jobs.total");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);

    EXPECT_EQ(reg.findCounter("engine.jobs.total"), &a);
    EXPECT_EQ(reg.findCounter("engine.jobs.nope"), nullptr);
    EXPECT_EQ(reg.findGauge("engine.jobs.total"), nullptr);

    reg.gauge("uarch.dbb.occupancy").set(12.5);
    EXPECT_DOUBLE_EQ(reg.findGauge("uarch.dbb.occupancy")->value(),
                     12.5);
}

TEST(Metrics, KindCollisionRaisesInvariant)
{
    MetricsRegistry reg;
    reg.counter("x.y");
    try {
        reg.gauge("x.y");
        FAIL() << "expected SimError(Invariant)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Invariant);
        EXPECT_NE(std::string(e.what()).find("x.y"),
                  std::string::npos);
    }
    EXPECT_THROW(reg.histogram("x.y", {1, 2}), SimError);
}

TEST(Metrics, CounterToAtLeastIsFetchMax)
{
    Counter c;
    c.toAtLeast(7);
    c.toAtLeast(3);
    EXPECT_EQ(c.value(), 7u);
    c.toAtLeast(11);
    EXPECT_EQ(c.value(), 11u);
}

TEST(Metrics, HistogramPercentiles)
{
    Histogram h({10, 100, 1000});
    for (uint64_t v = 1; v <= 100; ++v)
        h.observe(v);        // 10 land <=10, 90 land in (10,100]
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_EQ(h.minValue(), 1u);
    EXPECT_EQ(h.maxValue(), 100u);
    EXPECT_EQ(h.percentile(0.05), 10u);
    EXPECT_EQ(h.percentile(0.50), 100u);
    EXPECT_EQ(h.percentile(0.99), 100u);

    h.observe(5000);         // overflow bucket reports observed max
    EXPECT_EQ(h.percentile(1.0), 5000u);
}

TEST(Metrics, HistogramRejectsUnsortedBounds)
{
    EXPECT_THROW(Histogram({10, 5}), SimError);
    EXPECT_THROW(Histogram({10, 10}), SimError);
}

TEST(Metrics, JsonRoundTripThroughVersionedHeader)
{
    MetricsRegistry reg;
    reg.counter("engine.jobs.total").add(42);
    reg.gauge("engine.faults.injected.io").set(2.0);
    Histogram &h = reg.histogram("engine.sim.cycles", {100, 200});
    h.observe(150);

    MetricSnapshot snap;
    snap.add("uarch.pipeline.cycles", 777);
    reg.mergeJobSnapshot("sim.bench.w4.base.s0", snap);

    ParsedMetrics parsed = parseMetricsJson(reg.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.version, kMetricsVersion);
    EXPECT_DOUBLE_EQ(parsed.values.at("counters.engine.jobs.total"),
                     42.0);
    EXPECT_DOUBLE_EQ(
        parsed.values.at("counters.uarch.pipeline.cycles"), 777.0);
    EXPECT_DOUBLE_EQ(
        parsed.values.at("gauges.engine.faults.injected.io"), 2.0);
    EXPECT_DOUBLE_EQ(
        parsed.values.at("histograms.engine.sim.cycles.count"), 1.0);
    EXPECT_DOUBLE_EQ(
        parsed.values.at(
            "jobs.sim.bench.w4.base.s0.uarch.pipeline.cycles"),
        777.0);
}

TEST(Metrics, FutureSchemaVersionRefusesLoudly)
{
    std::string json = "{\"schema\": \"vanguard-metrics v99\", "
                       "\"counters\": {}}";
    EXPECT_THROW(parseMetricsJson(json), SimError);

    // Not-this-format stays an ordinary parse error, not a throw.
    ParsedMetrics parsed =
        parseMetricsJson("{\"schema\": \"other-format v1\"}");
    EXPECT_FALSE(parsed.ok);
}

TEST(Metrics, SanitizeKeyFoldsSeparators)
{
    EXPECT_EQ(sanitizeMetricKey("tage-6x4096"), "tage-6x4096");
    EXPECT_EQ(sanitizeMetricKey("ideal:0.95"), "ideal-0-95");
    EXPECT_EQ(sanitizeMetricKey("a b.c"), "a-b-c");
}

TEST(Metrics, ThreadSafeUnderThePool)
{
    MetricsRegistry reg;
    ThreadPool pool(4);
    constexpr size_t kJobs = 256;
    pool.parallelFor(kJobs, [&reg](size_t i) {
        // Registration and updates race on purpose.
        reg.counter("pool.shared").add();
        reg.histogram("pool.hist", {8, 64, 512})
            .observe(static_cast<uint64_t>(i));
        MetricSnapshot snap;
        snap.add("job.value", static_cast<uint64_t>(i));
        reg.mergeJobSnapshot("job." + std::to_string(i), snap);
    });
    EXPECT_EQ(reg.findCounter("pool.shared")->value(), kJobs);
    EXPECT_EQ(reg.findHistogram("pool.hist")->count(), kJobs);
    EXPECT_EQ(reg.scopeCount(), kJobs);
}

TEST(Metrics, RepeatMergeIsIdempotent)
{
    MetricsRegistry reg;
    MetricSnapshot snap;
    snap.add("uarch.pipeline.cycles", 100);
    snap.add("uarch.dbb.maxOccupancy", 7, MetricSnapshot::Agg::Max);
    reg.mergeJobSnapshot("sim.x", snap);
    reg.mergeJobSnapshot("sim.x", snap);   // journal-replay shape
    EXPECT_EQ(reg.findCounter("uarch.pipeline.cycles")->value(), 100u);
    EXPECT_EQ(reg.findCounter("uarch.dbb.maxOccupancy")->value(), 7u);
}

TEST(Metrics, DivergentMergeNamesTheCounter)
{
    MetricsRegistry reg;
    MetricSnapshot a;
    a.add("uarch.pipeline.cycles", 100);
    reg.mergeJobSnapshot("sim.x", a);

    MetricSnapshot b;
    b.add("uarch.pipeline.cycles", 101);
    try {
        reg.mergeJobSnapshot("sim.x", b);
        FAIL() << "expected SimError(Invariant)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Invariant);
        EXPECT_NE(
            std::string(e.what()).find("uarch.pipeline.cycles"),
            std::string::npos);
    }

    MetricSnapshot c;    // entry-count divergence
    EXPECT_THROW(reg.mergeJobSnapshot("sim.x", c), SimError);
}

TEST(Metrics, TinySweepDumpCarriesEngineAndUarchKeys)
{
    // The tier-1 schema smoke test: one small sweep through the
    // engine must produce a parseable dump with both key families.
    BenchmarkSpec spec = findBenchmark("bzip2-like");
    spec.iterations = 600;
    MetricsRegistry reg;
    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.metrics = &reg;
    SuiteReport report =
        runSuiteWidthsReport({spec}, {4}, VanguardOptions{}, ropts);
    ASSERT_TRUE(report.failures.empty());

    ParsedMetrics parsed = parseMetricsJson(reg.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.has("counters.engine.jobs.total"));
    EXPECT_TRUE(parsed.has("counters.engine.jobs.completed"));
    EXPECT_TRUE(parsed.has("counters.engine.phase.train.completed"));
    EXPECT_TRUE(
        parsed.has("counters.engine.phase.simulate.completed"));
    EXPECT_TRUE(parsed.has("counters.engine.pool.executed"));
    EXPECT_TRUE(parsed.has("counters.uarch.pipeline.cycles"));
    EXPECT_TRUE(parsed.has("counters.uarch.l1d.accesses"));
    EXPECT_TRUE(parsed.has("histograms.engine.sim.cycles.count"));

    EXPECT_DOUBLE_EQ(parsed.values.at("counters.engine.jobs.total"),
                     static_cast<double>(report.totalJobs));
    EXPECT_DOUBLE_EQ(
        parsed.values.at("counters.engine.jobs.completed"),
        static_cast<double>(report.totalJobs));
}

} // namespace
} // namespace vanguard
