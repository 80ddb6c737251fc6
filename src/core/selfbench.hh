/**
 * @file
 * Simulator self-benchmark: how fast does the simulator itself run?
 *
 * Runs a pinned workload x width x predictor matrix through every
 * execution path, timing only the cycle loop — train and compile
 * happen once per cell, outside the timed region — and reports
 * simulated instructions per second and simulated cycles per second.
 * Three streams per cell since v2:
 *
 *   - switch:   fast path, portable switch dispatcher,
 *   - threaded: fast path, computed-goto dispatcher (absent — zeroed —
 *               in builds without VANGUARD_THREADED),
 *   - ref:      the retained reference model (the v1 denominator).
 *
 * The v1 "fast" stream is kept and aliases threaded when available,
 * switch otherwise — exactly what a default build runs in a sweep.
 * The report serializes as schema-versioned JSON ("vanguard-selfbench
 * v2"); the committed BENCH_PR6.json at the repo root pins the
 * trajectory future PRs must not regress (ctest label tier2_perf).
 *
 * Determinism note: this is the one subsystem whose output is
 * *intentionally* a function of wall-clock — it measures the host, not
 * the simulated machine. Its numbers therefore never flow into a
 * sweep's MetricsRegistry dump (which promises bit-identical reruns);
 * exportTo() fills a caller-owned registry for ad-hoc inspection only.
 */

#ifndef VANGUARD_CORE_SELFBENCH_HH
#define VANGUARD_CORE_SELFBENCH_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace vanguard {

class MetricsRegistry;

constexpr const char *kSelfBenchMagic = "vanguard-selfbench";
constexpr unsigned kSelfBenchVersion = 2;

/** One cell of the benchmark matrix. */
struct SelfBenchCase
{
    std::string workload;   ///< suite benchmark name (e.g. "mcf-like")
    unsigned width = 4;     ///< machine width
    std::string predictor;  ///< bpred factory name (e.g. "gshare3")
};

/** Measured result for one cell. */
struct SelfBenchCell
{
    SelfBenchCase spec;
    uint64_t dynamicInsts = 0;  ///< per run (identical on every path)
    uint64_t cycles = 0;        ///< per run (identical on every path)
    double fastSec = 0.0;       ///< best-of-repeats wall time, fast path
    double refSec = 0.0;        ///< best-of-repeats wall time, reference

    // v2 streams. threadedSec stays 0 in builds without the
    // computed-goto dispatcher (fastSec then equals switchSec).
    double switchSec = 0.0;     ///< fast path, switch dispatcher
    double threadedSec = 0.0;   ///< fast path, computed-goto dispatcher

    double fastIps() const { return fastSec > 0 ? dynamicInsts / fastSec : 0; }
    double refIps() const { return refSec > 0 ? dynamicInsts / refSec : 0; }
    double fastCps() const { return fastSec > 0 ? cycles / fastSec : 0; }
    double refCps() const { return refSec > 0 ? cycles / refSec : 0; }
    double switchIps() const { return switchSec > 0 ? dynamicInsts / switchSec : 0; }
    double threadedIps() const { return threadedSec > 0 ? dynamicInsts / threadedSec : 0; }
    /** Fast-path speedup over the reference path, same build. */
    double speedup() const { return fastSec > 0 ? refSec / fastSec : 0; }
    /** Computed-goto speedup over the switch dispatcher (0 when the
     *  build has no threaded dispatcher). */
    double threadedSpeedup() const { return threadedSec > 0 ? switchSec / threadedSec : 0; }
};

struct SelfBenchReport
{
    std::vector<SelfBenchCell> cells;
    unsigned repeats = 0;
    uint64_t iterations = 0;    ///< kernel trip count used per cell

    double geomeanFastIps() const;
    double geomeanRefIps() const;
    double geomeanSpeedup() const;

    // v2 stream geomeans; the threaded ones are 0 when the build has
    // no computed-goto dispatcher.
    double geomeanSwitchIps() const;
    double geomeanThreadedIps() const;
    double geomeanThreadedSpeedup() const;
};

struct SelfBenchOptions
{
    /** Timed repetitions per (cell, path); best wall time wins. */
    unsigned repeats = 3;

    /** Kernel loop trip count for every cell — small enough that the
     *  full matrix finishes in seconds, large enough that each timed
     *  run retires a few million instructions. */
    uint64_t iterations = 6000;

    /** Also time the reference path (needed for speedup; off makes a
     *  quick fast-only lap, e.g. the tier2_perf smoke gate). */
    bool timeReference = true;

    /** Matrix override; empty selects the pinned default matrix. */
    std::vector<SelfBenchCase> matrix;
};

/** The pinned default matrix: {bzip2,h264ref,mcf}-like x widths
 *  {2,4,8} x predictors {gshare3, tage}. */
std::vector<SelfBenchCase> selfBenchDefaultMatrix();

/**
 * Run the matrix. `progress`, when non-null, receives one
 * human-readable line per finished cell (the CLI passes stderr).
 */
SelfBenchReport runSelfBench(const SelfBenchOptions &opts,
                             std::FILE *progress = nullptr);

/** Serialize as "vanguard-selfbench v1" JSON (no trailing newline). */
std::string selfBenchToJson(const SelfBenchReport &report);

/** Export per-cell IPS/CPS gauges into a caller-owned registry under
 *  `selfbench.<workload>.w<width>.<predictor>.*` (see file comment for
 *  why this never touches a sweep's registry). */
void selfBenchExportTo(const SelfBenchReport &report,
                       MetricsRegistry &registry);

/**
 * Parsed view of a committed BENCH_PR*.json — just the fields the
 * tier2_perf regression gate compares. ok=false (with error) when the
 * file is absent or unparseable; a recognized-but-newer schema raises
 * SimError(Io) like every other versioned format. The v2 stream
 * geomeans stay 0 when the baseline predates them (a v1 file), so
 * gates on them skip gracefully.
 */
struct SelfBenchBaseline
{
    bool ok = false;
    std::string error;
    unsigned version = 0;
    double geomeanFastIps = 0.0;
    double geomeanSpeedup = 0.0;
    double geomeanSwitchIps = 0.0;
    double geomeanThreadedIps = 0.0;
};

SelfBenchBaseline loadSelfBenchBaseline(const std::string &path);

} // namespace vanguard

#endif // VANGUARD_CORE_SELFBENCH_HH
