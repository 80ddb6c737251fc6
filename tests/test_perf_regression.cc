/**
 * @file
 * tier2_perf: the simulator-performance regression gate. Re-measures a
 * short slice of the self-benchmark matrix and compares against the
 * committed BENCH_PR6.json trajectory; skipped (not failed) when no
 * baseline is committed.
 *
 * What is compared, and why:
 *  - Primary (always on): the fast-path speedup over the in-build
 *    reference path. Both paths run on this machine back to back, so
 *    the ratio cancels host speed and is meaningful on any hardware —
 *    a fast-path regression shows up as the ratio collapsing toward 1.
 *  - Dispatcher (v2 baselines, threaded builds only): the computed-goto
 *    dispatcher's gain over the portable switch — same
 *    ratio-cancels-host reasoning. Guards against the threaded path
 *    silently degenerating (e.g. a compiler change re-merging the
 *    per-opcode indirect jumps).
 *  - Absolute (opt-in via VANGUARD_PERF_ABSOLUTE=1): geomean simulated
 *    instructions per second against the committed numbers. Only
 *    comparable on hardware like the one that produced the baseline,
 *    so it stays off in CI by default.
 *  - Width fusion (no baseline needed): one 3-lane fused simulation
 *    of a pinned INT06 kernel against three single-lane runs of the
 *    same work, back to back. The fused pass shares the functional,
 *    predictor and cache work, so it must take at most 0.8x the time.
 * The trajectory gates allow a 20% regression margin, and each of
 * their measurements gets up to three attempts (best result wins)
 * because short wall-clock runs on a shared machine are noisy; the
 * fusion gate compares medians of five.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "core/selfbench.hh"
#include "core/vanguard.hh"
#include "uarch/pipeline.hh"
#include "workloads/suites.hh"

#ifndef VANGUARD_BENCH_BASELINE
#define VANGUARD_BENCH_BASELINE "BENCH_PR6.json"
#endif

namespace vanguard {
namespace {

constexpr double kAllowedRegression = 0.20;
constexpr int kAttempts = 3;

/** The short measurement slice every gate uses: one INT workload per
 *  character (branchy vs memory-bound), default width/predictor. */
SelfBenchOptions
sliceOptions()
{
    SelfBenchOptions opts;
    opts.repeats = 3;
    opts.iterations = 3000;
    opts.matrix = {{"bzip2-like", 4, "gshare3"},
                   {"mcf-like", 4, "gshare3"}};
    return opts;
}

TEST(PerfRegression, FastPathHoldsTheCommittedTrajectory)
{
    SelfBenchBaseline base = loadSelfBenchBaseline(VANGUARD_BENCH_BASELINE);
    if (!base.ok)
        GTEST_SKIP() << "no committed baseline: " << base.error;
    ASSERT_GT(base.geomeanSpeedup, 0.0);
    ASSERT_GT(base.geomeanFastIps, 0.0);

    SelfBenchOptions opts = sliceOptions();

    const bool absolute =
        std::getenv("VANGUARD_PERF_ABSOLUTE") != nullptr;
    const double need_speedup =
        base.geomeanSpeedup * (1.0 - kAllowedRegression);
    const double need_ips =
        base.geomeanFastIps * (1.0 - kAllowedRegression);

    double best_speedup = 0.0;
    double best_ips = 0.0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        SelfBenchReport report = runSelfBench(opts);
        best_speedup = std::max(best_speedup, report.geomeanSpeedup());
        best_ips = std::max(best_ips, report.geomeanFastIps());
        if (best_speedup >= need_speedup &&
            (!absolute || best_ips >= need_ips))
            break;
    }

    EXPECT_GE(best_speedup, need_speedup)
        << "fast-path speedup over the reference path collapsed: "
        << "measured " << best_speedup << "x, committed "
        << base.geomeanSpeedup << "x (gate at " << need_speedup
        << "x) — see BENCH_PR5.json";
    if (absolute) {
        EXPECT_GE(best_ips, need_ips)
            << "absolute simulated-IPS regressed: measured "
            << best_ips / 1e6 << " M-insts/s, committed "
            << base.geomeanFastIps / 1e6 << " M-insts/s";
    }
}

TEST(PerfRegression, ThreadedDispatcherHoldsItsGainOverSwitch)
{
    if (!threadedDispatchAvailable())
        GTEST_SKIP() << "portable build: no threaded dispatcher";
    SelfBenchBaseline base = loadSelfBenchBaseline(VANGUARD_BENCH_BASELINE);
    if (!base.ok)
        GTEST_SKIP() << "no committed baseline: " << base.error;
    if (base.geomeanThreadedIps <= 0.0 || base.geomeanSwitchIps <= 0.0)
        GTEST_SKIP() << "baseline predates the v2 dispatcher streams";

    const double committed_ratio =
        base.geomeanThreadedIps / base.geomeanSwitchIps;
    const double need = committed_ratio * (1.0 - kAllowedRegression);

    SelfBenchOptions opts = sliceOptions();
    opts.timeReference = false;

    double best = 0.0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        SelfBenchReport report = runSelfBench(opts);
        best = std::max(best, report.geomeanThreadedSpeedup());
        if (best >= need)
            break;
    }
    EXPECT_GE(best, need)
        << "threaded dispatcher lost its edge over the switch: "
        << "measured " << best << "x, committed " << committed_ratio
        << "x — did the computed-goto jumps get re-merged?";
}

/** Wall seconds of one call of fn. */
template <typename Fn>
double
secondsOf(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

TEST(PerfRegression, FusedWidthsBeatThreeSingleLaneRuns)
{
    constexpr double kMaxRatio = 0.8;
    constexpr int kSamples = 5;
    BenchmarkSpec spec = findBenchmark("h264ref-like");
    spec.iterations = 4000;
    VanguardOptions opts;
    BenchmarkArtifacts art = prepareBenchmark(spec, opts);
    const std::vector<unsigned> widths = {2, 4, 8};

    std::vector<double> solo;
    std::vector<double> fused;
    uint64_t solo_cycles = 0;
    uint64_t fused_cycles = 0;
    for (int i = 0; i < kSamples; ++i) {
        solo.push_back(secondsOf([&] {
            solo_cycles = 0;
            for (unsigned w : widths) {
                VanguardOptions o = opts;
                o.width = w;
                solo_cycles +=
                    simulateConfig(spec, art.exp, o, kRefSeeds[0]).cycles;
            }
        }));
        fused.push_back(secondsOf([&] {
            fused_cycles = 0;
            for (const SimStats &st : simulateConfigWidths(
                     spec, art.exp, opts, widths, kRefSeeds[0]))
                fused_cycles += st.cycles;
        }));
    }
    ASSERT_EQ(fused_cycles, solo_cycles);
    double ratio = median(fused) / median(solo);
    EXPECT_LE(ratio, kMaxRatio)
        << "3-lane fused simulate took " << ratio
        << "x the time of three single-lane runs (median of "
        << kSamples << ": " << median(fused) << " s vs " << median(solo)
        << " s)";
    RecordProperty("fused_ratio", std::to_string(ratio));
}

} // namespace
} // namespace vanguard
