/**
 * @file
 * End-to-end observability tests (ctest label tier2_obs): the metrics
 * dump of a sweep must be byte-identical across worker counts, the
 * per-job uarch.* counters must bit-match a direct simulation of the
 * same job, the tracer must carry exactly one span per
 * train/compile/simulate job, and re-merging a sweep into the same
 * registry must be idempotent (the journal-replay guarantee).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "core/vanguard.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

BenchmarkSpec
quick(const char *name, uint64_t iters)
{
    BenchmarkSpec spec = findBenchmark(name);
    spec.iterations = iters;
    return spec;
}

TEST(Observability, MetricsDumpIdenticalAcrossWorkerCounts)
{
    std::vector<BenchmarkSpec> suite = {quick("bzip2-like", 800),
                                        quick("sjeng-like", 800)};
    std::vector<unsigned> widths = {2, 4};
    VanguardOptions opts;

    MetricsRegistry serial_reg;
    RunnerOptions serial;
    serial.jobs = 1;
    serial.metrics = &serial_reg;
    runSuiteWidthsReport(suite, widths, opts, serial);

    MetricsRegistry parallel_reg;
    RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.metrics = &parallel_reg;
    runSuiteWidthsReport(suite, widths, opts, parallel);

    // Byte-identical exports: every counter, histogram bucket, and
    // per-job scope agrees — the determinism contract, extended to
    // the whole telemetry dump.
    EXPECT_EQ(serial_reg.toJson(), parallel_reg.toJson());
    EXPECT_EQ(serial_reg.toCsv(), parallel_reg.toCsv());
}

TEST(Observability, PerJobCountersBitMatchDirectSimulation)
{
    BenchmarkSpec spec = quick("astar-like", 800);
    VanguardOptions opts;

    MetricsRegistry reg;
    RunnerOptions ropts;
    ropts.jobs = 4;
    ropts.metrics = &reg;
    SuiteReport report =
        runSuiteWidthsReport({spec}, {opts.width}, opts, ropts);
    ASSERT_TRUE(report.failures.empty());

    // The engine's per-job snapshot for (base, seed 0) must carry
    // exactly the counters a direct simulateConfig reports.
    BenchmarkArtifacts art = prepareBenchmark(spec, opts);
    SimStats direct =
        simulateConfig(spec, art.base, opts, kRefSeeds[0],
                       /*collect_branch_stalls=*/true);
    MetricSnapshot expected = simStatsSnapshot(direct);

    ParsedMetrics parsed = parseMetricsJson(reg.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::string scope = "jobs.sim." + std::string(spec.name) + ".w" +
                        std::to_string(opts.width) + ".base.s0.";
    for (const auto &e : expected.entries) {
        auto it = parsed.values.find(scope + e.path);
        ASSERT_NE(it, parsed.values.end()) << scope + e.path;
        EXPECT_DOUBLE_EQ(it->second, static_cast<double>(e.value))
            << e.path;
    }
}

/** Total wall time per span name, pairing each thread's B/E events. */
std::map<std::string, uint64_t>
spanMicrosByName(const Tracer &tracer)
{
    std::map<std::string, uint64_t> total;
    for (const auto &thread : tracer.snapshotByThread()) {
        std::vector<const TraceEvent *> open;
        for (const auto &e : thread) {
            if (e.phase == 'B') {
                open.push_back(&e);
            } else if (e.phase == 'E' && !open.empty()) {
                total[open.back()->name] +=
                    e.tsMicros - open.back()->tsMicros;
                open.pop_back();
            }
        }
    }
    return total;
}

TEST(Observability, OneSpanPerJobInTheTrace)
{
    std::vector<BenchmarkSpec> suite = {quick("bzip2-like", 600)};
    std::vector<unsigned> widths = {2, 4};
    VanguardOptions opts;

    Tracer tracer;
    RunnerOptions ropts;
    ropts.jobs = 4;
    ropts.tracer = &tracer;
    SuiteReport report =
        runSuiteWidthsReport(suite, widths, opts, ropts);
    ASSERT_TRUE(report.failures.empty());

    std::map<std::string, size_t> begins;
    std::map<std::string, size_t> ends;
    for (const auto &thread : tracer.snapshotByThread()) {
        for (const auto &e : thread) {
            if (e.phase == 'B')
                ++begins[e.name];
            else if (e.phase == 'E')
                ++ends[e.name];
        }
    }

    // One compile per benchmark and one fused simulate job per
    // (benchmark, config, seed), whatever the number of widths.
    const size_t B = suite.size();
    EXPECT_EQ(begins["train"], B);
    EXPECT_EQ(begins["compile"], B);
    EXPECT_EQ(begins["simulate"], B * kNumRefSeeds * 2);
    // Every compile pass and every job's memory build is its own span.
    for (const char *pass : {"compile.superblock", "compile.decompose",
                             "compile.schedule", "compile.linearize",
                             "compile.decode"})
        EXPECT_GT(begins[pass], 0u) << pass;
    EXPECT_EQ(begins["sim.memory"], B * kNumRefSeeds * 2);
    // Every phase group span, opened and closed exactly once.
    for (const char *phase : {"phase.train", "phase.compile",
                              "phase.simulate", "phase.assemble"}) {
        EXPECT_EQ(begins[phase], 1u) << phase;
        EXPECT_EQ(ends[phase], 1u) << phase;
    }
    // B/E balance over the whole trace.
    EXPECT_EQ(begins, ends);
    // Simulation work is never hidden in a multi-seed span.
    EXPECT_EQ(begins.count("simulate.batch"), 0u);
    EXPECT_EQ(begins.count("sim.batch"), 0u);

    // The per-seed spans carry the simulate phase's time: run serially
    // so span time cannot overlap, they account for most of it.
    Tracer serial;
    ropts.jobs = 1;
    ropts.tracer = &serial;
    ASSERT_TRUE(
        runSuiteWidthsReport(suite, widths, opts, ropts).failures.empty());
    std::map<std::string, uint64_t> micros = spanMicrosByName(serial);
    ASSERT_GT(micros["phase.simulate"], 0u);
    EXPECT_GE(2 * micros["simulate"], micros["phase.simulate"])
        << "simulate spans " << micros["simulate"]
        << " us of phase.simulate " << micros["phase.simulate"] << " us";
}

TEST(Observability, RerunIntoSameRegistryIsIdempotent)
{
    BenchmarkSpec spec = quick("gobmk-like", 600);
    VanguardOptions opts;

    MetricsRegistry reg;
    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.metrics = &reg;
    runSuiteWidthsReport({spec}, {4}, opts, ropts);

    size_t scopes_before = reg.scopeCount();
    uint64_t cycles_before =
        reg.findCounter("uarch.pipeline.cycles")->value();

    // Same sweep again: every scope re-merges bit-identically, so the
    // union counters must not double (the journal-replay guarantee).
    runSuiteWidthsReport({spec}, {4}, opts, ropts);
    EXPECT_EQ(reg.scopeCount(), scopes_before);
    EXPECT_EQ(reg.findCounter("uarch.pipeline.cycles")->value(),
              cycles_before);
}

TEST(Observability, CrossSweepDivergenceRaisesInvariant)
{
    BenchmarkSpec spec = quick("bzip2-like", 600);
    VanguardOptions opts;

    MetricsRegistry reg;
    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.metrics = &reg;
    runSuiteWidthsReport({spec}, {4}, opts, ropts);

    // A different workload under the same scope names is exactly the
    // aggregation bug the merge assertion exists to catch.
    BenchmarkSpec changed = quick("bzip2-like", 700);
    try {
        runSuiteWidthsReport({changed}, {4}, opts, ropts);
        FAIL() << "expected SimError(Invariant)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Invariant);
    }
}

} // namespace
} // namespace vanguard
