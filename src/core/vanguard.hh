/**
 * @file
 * Top-level Branch Vanguard API: the paper's full methodology for one
 * benchmark — profile on the TRAIN input, select and decompose
 * branches, schedule and lay out both configurations, and simulate on
 * REF inputs — plus the Table-2 metric computations.
 */

#ifndef VANGUARD_CORE_VANGUARD_HH
#define VANGUARD_CORE_VANGUARD_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/decompose.hh"
#include "exec/decoded_program.hh"
#include "compiler/select.hh"
#include "compiler/superblock.hh"
#include "profile/branch_profile.hh"
#include "uarch/config.hh"
#include "uarch/pipeline.hh"
#include "workloads/kernel.hh"

namespace vanguard {

struct VanguardOptions
{
    unsigned width = 4;
    std::string predictor = "gshare3";
    bool applySuperblock = true;    ///< biased-branch pass (both configs)
    bool applyDecomposition = true; ///< experimental config only
    bool shadowCommit = true;
    unsigned dbbEntries = 16;
    unsigned l1iSizeKB = 32;        ///< Sec. 6.1 I$ capacity knob
    bool icachePrefetch = false;    ///< next-line I$ prefetch ablation

    SelectionOptions selection{};
    DecomposeOptions decompose{};
    SuperblockOptions superblock{};

    uint64_t profileMaxInsts = 100'000'000;
    uint64_t simMaxInsts = 100'000'000;

    /**
     * Opt-in lockstep differential oracle: each simulation also runs
     * the functional interpreter on the original kernel and checks
     * the timing model's retired state (store stream + final arch
     * registers) online, raising SimError(Divergence) on the first
     * mismatch. Roughly doubles per-job cost.
     */
    bool lockstep = false;

    /**
     * No effect: the fast path has one dispatcher. Kept only because
     * the benchmark harness (perfbench/harness.cc) still assigns it;
     * nothing else reads or writes it.
     */
    bool noThreadedDispatch = false;

    /** Cycle-budget watchdog forwarded to SimOptions::cycleBudget
     *  (0 disables). The default is far above any legitimate run:
     *  simMaxInsts at the worst observed IPC stays under ~1e9. */
    uint64_t simCycleBudget = 2'000'000'000;

    /** Per-commit clock-advance watchdog forwarded to
     *  SimOptions::progressWindow (0 disables). */
    uint64_t simProgressWindow = 1'000'000;

    MachineConfig machine() const;
};

/** One compiled configuration of a benchmark. */
struct CompiledConfig
{
    Program prog;
    std::vector<bool> hoistedMask;  ///< by InstId; empty for baseline
    size_t staticInsts = 0;         ///< laid-out size
    bool decomposed = false;

    /**
     * Pre-decoded flat execution form of prog (a pure function of the
     * program and the I-line size), built once at compile time and
     * shared read-only by every REF-seed simulation of this artifact —
     * the decode pass runs per compile, not per run. shared_ptr so
     * CompiledConfig stays copyable across the parallel runner's job
     * plumbing without re-decoding.
     */
    std::shared_ptr<const DecodedProgram> decoded;
};

/** Everything measured for one (benchmark, ref-input, width) triple. */
struct BenchmarkOutcome
{
    std::string name;
    SimStats base;
    SimStats exp;
    double speedupPct = 0.0;

    // Compile-side facts (identical across ref inputs).
    size_t selectedBranches = 0;
    size_t baseStaticInsts = 0;
    size_t expStaticInsts = 0;

    // Table 2 metrics.
    double pbc = 0.0;       ///< % static forward branches converted
    double pdih = 0.0;      ///< % dynamic insts hoisted above conv. branch
    double alpbb = 0.0;     ///< avg loads per basic block
    double aspcb = 0.0;     ///< avg stall cycles per converted branch
    double phi = 0.0;       ///< % hoistable insts in successor blocks
    double mppkiBase = 0.0; ///< baseline mispredicts / kinst
    double piscs = 0.0;     ///< % increase in static code size
    double issuedIncreasePct = 0.0; ///< Fig. 14 quantity
};

/**
 * Profile the benchmark on the TRAIN input with the configured
 * predictor model and return the profile plus the selected branches.
 */
struct TrainArtifacts
{
    BranchProfile profile;
    std::vector<InstId> selected;
};

TrainArtifacts trainBenchmark(const BenchmarkSpec &spec,
                              const VanguardOptions &opts);

/**
 * Reconstruct TrainArtifacts from an existing profile (a saved PGO
 * artifact or a checkpointed TRAIN result) instead of re-profiling.
 * Branch selection is a pure function of (kernel shape, profile,
 * selection options), so the result is bit-identical to the
 * trainBenchmark call that produced the profile.
 */
TrainArtifacts trainFromProfile(const BenchmarkSpec &spec,
                                BranchProfile profile,
                                const VanguardOptions &opts);

/**
 * Everything that is computed once per benchmark and shared read-only
 * across all REF-seed simulations at every width: the TRAIN profile
 * and selection, both compiled configurations, and the static-shape
 * metrics (ALPBB/PHI) of the untransformed kernel. Seed- and
 * width-independent by construction — see CompiledConfig (the
 * scheduler ignores the machine and decode reads only the I-line
 * size, which no width variant changes).
 */
struct BenchmarkArtifacts
{
    TrainArtifacts train;
    CompiledConfig base;
    CompiledConfig exp;
    double alpbb = 0.0; ///< avg loads per hot basic block
    double phi = 0.0;   ///< % hoistable insts in successor blocks
};

/**
 * Compile both configurations (and the static-shape metrics) from an
 * existing TRAIN pass. Neither step depends on the width, so one
 * result serves every width of a sweep. One kernel build and one
 * superblock pass are shared by both configurations and the metrics;
 * each configuration equals what compileConfig returns for it.
 */
BenchmarkArtifacts compileBenchmark(const BenchmarkSpec &spec,
                                    TrainArtifacts train,
                                    const VanguardOptions &opts);

/** trainBenchmark + compileBenchmark in one call. */
BenchmarkArtifacts prepareBenchmark(const BenchmarkSpec &spec,
                                    const VanguardOptions &opts);

/**
 * Compile one configuration of the benchmark (the IR pipeline:
 * superblock pass, optional decomposition, list scheduling, layout).
 * The returned program is seed-independent; pair it with any REF
 * input's memory image.
 */
CompiledConfig compileConfig(const BenchmarkSpec &spec,
                             const TrainArtifacts &train,
                             bool decomposed,
                             const VanguardOptions &opts,
                             DecomposeStats *dstats_out = nullptr);

/** Full evaluation for one REF input: baseline vs experimental.
 *  Thin wrapper over prepareBenchmark + evaluateWithArtifacts for
 *  single-seed callers; many-seed callers should prepare once. */
BenchmarkOutcome evaluateBenchmark(const BenchmarkSpec &spec,
                                   const VanguardOptions &opts,
                                   uint64_t ref_seed);

/** Evaluate one REF input against pre-built compile artifacts. */
BenchmarkOutcome evaluateWithArtifacts(const BenchmarkSpec &spec,
                                       const BenchmarkArtifacts &art,
                                       const VanguardOptions &opts,
                                       uint64_t ref_seed);

/**
 * Derive a BenchmarkOutcome from already-run simulations — the pure
 * (artifacts, base stats, exp stats) -> metrics step. The parallel
 * runner simulates in worker threads and assembles outcomes with this
 * on one thread, in deterministic index order.
 */
BenchmarkOutcome assembleOutcome(const BenchmarkSpec &spec,
                                 const BenchmarkArtifacts &art,
                                 SimStats base_stats, SimStats exp_stats);

/** Averages across REF inputs (paper Figs. 8/10/12/13 vs 9/11). */
struct SeedSummary
{
    std::string name;
    double meanSpeedupPct = 0.0;   ///< geomean over surviving REF inputs
    double bestSpeedupPct = 0.0;   ///< best single REF input
    std::vector<BenchmarkOutcome> perSeed; ///< surviving seeds, in order

    /** REF inputs whose jobs failed (see core/runner.hh); kNumRefSeeds
     *  when the benchmark's train/compile failed outright. */
    unsigned failedSeeds = 0;
};

/** Simulate a compiled configuration on one REF input at
 *  opts.width (simulateConfigWidths with one width). */
SimStats simulateConfig(const BenchmarkSpec &spec,
                        const CompiledConfig &config,
                        const VanguardOptions &opts, uint64_t ref_seed,
                        bool collect_branch_stalls = false);

/**
 * Simulate a compiled configuration on one REF input at every width
 * in `widths` (opts.width is ignored), returning one SimStats per
 * width, in order. Widths are timed in fused groups of up to
 * kMaxFusedLanes (uarch/pipeline.hh) that share one functional,
 * predictor and cache pass; each result is bit-identical to
 * simulateConfig at that width.
 */
std::vector<SimStats>
simulateConfigWidths(const BenchmarkSpec &spec,
                     const CompiledConfig &config,
                     const VanguardOptions &opts,
                     const std::vector<unsigned> &widths,
                     uint64_t ref_seed,
                     bool collect_branch_stalls = false);

} // namespace vanguard

#endif // VANGUARD_CORE_VANGUARD_HH
