/**
 * @file
 * tier2_perf: the simulator-performance regression gates. Each one
 * times a short slice of simulate runs on this machine and checks a
 * committed bound; none reads a file.
 *
 * What is compared, and why:
 *  - Fast path vs reference (always on): the fast path's speedup over
 *    the in-build reference model. Both paths run on this machine
 *    back to back, so the ratio cancels host speed and is meaningful
 *    on any hardware — a fast-path regression shows up as the ratio
 *    collapsing toward 1.
 *  - Absolute (opt-in via VANGUARD_PERF_ABSOLUTE=1): geomean simulated
 *    instructions per second of the fast path against the number
 *    BENCH_PR6.json recorded. Only comparable on hardware like the
 *    one that produced it, so it stays off by default.
 *  - Width fusion: one 3-lane fused simulation of a pinned INT06
 *    kernel against three single-lane runs of the same work, back to
 *    back. The fused pass shares the functional, predictor and cache
 *    work, so it must take at most 0.8x the time.
 * The first two bounds are BENCH_PR6.json's geomeans less a 20%
 * regression margin, written down here as constants. Their
 * measurement gets up to three attempts (best result wins), each
 * attempt taking the best of three runs per path, because short
 * wall-clock runs on a shared machine are noisy; the fusion gate
 * compares medians of five.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "bpred/factory.hh"
#include "core/vanguard.hh"
#include "uarch/pipeline.hh"
#include "workloads/kernel.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

constexpr double kAllowedRegression = 0.20;
constexpr int kAttempts = 3;
constexpr unsigned kRepeats = 3;

/** Fast path / reference: BENCH_PR6.json's geomean speedup 1.55695,
 *  less the margin. */
constexpr double kMinFastVsRef = 1.2456;
/** BENCH_PR6.json: fast-path geomean simulated-insts/s. */
constexpr double kCommittedFastIps = 39601300;

/** One workload of the measured slice, trained and compiled once. */
struct SliceCell
{
    BenchmarkSpec spec;
    VanguardOptions opts;
    BenchmarkArtifacts art;
};

/** The short measurement slice the ratio gate uses: one INT workload
 *  per character (branchy vs memory-bound) at width 4, gshare3. */
std::vector<SliceCell>
prepareSlice()
{
    std::vector<SliceCell> cells;
    for (const char *name : {"bzip2-like", "mcf-like"}) {
        SliceCell cell{findBenchmark(name), VanguardOptions{}, {}};
        cell.spec.iterations = 3000;
        cell.opts.width = 4;
        cell.opts.predictor = "gshare3";
        cell.art = prepareBenchmark(cell.spec, cell.opts);
        cells.push_back(std::move(cell));
    }
    return cells;
}

/** One execution path's timing of a cell: best wall seconds over
 *  kRepeats runs, and the (path-independent) run result. */
struct PathTiming
{
    double seconds = 0.0;
    uint64_t insts = 0;
    uint64_t cycles = 0;
};

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

/** Time the exp program's simulate loop alone on the fast path or,
 *  with `force_reference`, the reference path: each run gets a fresh
 *  REF memory image and predictor, built outside the timed region. */
PathTiming
timePath(const SliceCell &cell, bool force_reference)
{
    PathTiming best;
    for (unsigned rep = 0; rep < kRepeats; ++rep) {
        Memory mem = buildKernelMemory(cell.spec, kRefSeeds[0]);
        auto pred = makePredictor(cell.opts.predictor, kRefSeeds[0]);
        SimOptions sopts;
        sopts.maxInsts = cell.opts.simMaxInsts;
        sopts.cycleBudget = cell.opts.simCycleBudget;
        sopts.progressWindow = cell.opts.simProgressWindow;
        sopts.forceReference = force_reference;
        if (!cell.art.exp.hoistedMask.empty())
            sopts.hoistedMask = &cell.art.exp.hoistedMask;

        SimStats s;
        double dt = secondsOf([&] {
            s = simulateWithDecoded(cell.art.exp.prog,
                                    *cell.art.exp.decoded, mem, *pred,
                                    cell.opts.machine(), sopts);
        });
        if (rep == 0 || dt < best.seconds)
            best.seconds = dt;
        best.insts = s.dynamicInsts;
        best.cycles = s.cycles;
    }
    return best;
}

/** Geometric mean of xs (all positive). */
double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Time both execution paths on every slice cell and return the
 *  geomean of the fast path's per-cell speedup over the reference
 *  path; `ips` receives the fast path's geomean simulated insts/s.
 *  Both paths must retire the same run. */
double
geomeanSpeedup(const std::vector<SliceCell> &cells, double *ips)
{
    std::vector<double> speedups;
    std::vector<double> fast_ips;
    for (const SliceCell &cell : cells) {
        PathTiming s = timePath(cell, true);
        PathTiming f = timePath(cell, false);
        EXPECT_EQ(s.insts, f.insts) << cell.spec.name;
        EXPECT_EQ(s.cycles, f.cycles) << cell.spec.name;
        speedups.push_back(s.seconds / f.seconds);
        fast_ips.push_back(static_cast<double>(f.insts) / f.seconds);
    }
    *ips = geomean(fast_ips);
    return geomean(speedups);
}

TEST(PerfRegression, FastPathHoldsTheCommittedSpeedup)
{
    std::vector<SliceCell> cells = prepareSlice();
    const bool absolute =
        std::getenv("VANGUARD_PERF_ABSOLUTE") != nullptr;
    const double need_ips =
        kCommittedFastIps * (1.0 - kAllowedRegression);

    double best_speedup = 0.0;
    double best_ips = 0.0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        double ips = 0.0;
        best_speedup = std::max(best_speedup, geomeanSpeedup(cells, &ips));
        best_ips = std::max(best_ips, ips);
        if (best_speedup >= kMinFastVsRef &&
            (!absolute || best_ips >= need_ips))
            break;
    }

    EXPECT_GE(best_speedup, kMinFastVsRef)
        << "fast-path speedup over the reference path collapsed: "
        << "measured " << best_speedup << "x, gate at "
        << kMinFastVsRef << "x";
    if (absolute) {
        EXPECT_GE(best_ips, need_ips)
            << "absolute simulated-IPS regressed: measured "
            << best_ips / 1e6 << " M-insts/s, committed "
            << kCommittedFastIps / 1e6 << " M-insts/s";
    }
    RecordProperty("fast_vs_ref", std::to_string(best_speedup));
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
