/**
 * @file
 * Cycle-level in-order superscalar timing model.
 *
 * Execution-driven: a ProgramExecutor supplies the committed
 * instruction stream in program order (branch predictions steer
 * PREDICT instructions architecturally — in decomposed code the
 * predicted path is the architectural path), and the model assigns
 * fetch/issue/complete cycles online honoring:
 *
 *  - fetch: width insts/cycle, I$ line misses, 32-entry fetch buffer
 *    back-pressure, taken-branch redirect (1 cycle with BTB hit,
 *    decode re-steer on BTB miss), mispredict redirect (fetch resumes
 *    after the branch executes),
 *  - issue: strictly in order (head-of-line blocking), scoreboarded
 *    operand readiness with single-cycle full bypass, per-class FU
 *    ports, 64-entry miss buffer (MSHR) occupancy,
 *  - decomposed-branch hardware: PREDICTs are dropped at decode after
 *    inserting into the DBB (stalling when it is full); RESOLVEs are
 *    statically predicted not-taken, train the predictor through the
 *    DBB entry of their PREDICT, and redirect (mispredict-style) when
 *    taken; commit MOVs (temp->arch) are folded free at decode when
 *    the shadow-commit feature is on.
 *
 * Wrong-path instructions are not fetched/issued (their cycle cost is
 * charged as redirect delay); see DESIGN.md for the fidelity
 * discussion.
 *
 * One run can time several machine widths at once (simulateWidths):
 * the committed stream, predictor traffic and cache/BTB/DBB access
 * sequences do not depend on the width, so they are computed once and
 * drive one timing lane per width (DESIGN.md §10).
 */

#ifndef VANGUARD_UARCH_PIPELINE_HH
#define VANGUARD_UARCH_PIPELINE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "bpred/predictor.hh"
#include "compiler/layout.hh"
#include "support/error.hh"
#include "uarch/cache.hh"
#include "uarch/config.hh"
#include "uarch/dbb.hh"
#include "uarch/lockstep.hh"
#include "uarch/trace.hh"

namespace vanguard {

struct SimOptions
{
    uint64_t maxInsts = 50'000'000;

    /**
     * Forward-progress watchdog: total-cycle budget. A simulation
     * whose cycle count exceeds this raises SimError(Hang) instead of
     * grinding on (e.g. an IR loop that never reaches HALT wedging a
     * worker for the full instruction budget). 0 disables.
     */
    uint64_t cycleBudget = 0;

    /**
     * Forward-progress watchdog: maximum cycles the clock may advance
     * across one retired instruction. A single in-order commit is
     * bounded by the memory round-trip plus queueing (hundreds of
     * cycles), so a gap this large means the timing model itself lost
     * forward progress; raises SimError(Hang). 0 disables.
     */
    uint64_t progressWindow = 1'000'000;

    /**
     * Optional lockstep differential oracle: every committed store
     * (and the final architectural registers at HALT) is checked
     * against a golden functional run; the first mismatch raises
     * SimError(Divergence). See uarch/lockstep.hh.
     */
    LockstepChecker *lockstep = nullptr;

    /**
     * Pre-recorded original-branch outcomes for each dynamic PREDICT,
     * in execution order (needed only by oracle predictors, whose
     * prediction is a function of the actual outcome). Produced by
     * prerecordPredictOutcomes().
     */
    const std::vector<bool> *predictOutcomes = nullptr;

    /**
     * Optional mask over InstIds marking speculatively hoisted clones;
     * their dynamic executions are counted in SimStats::speculativeExecs
     * (the PDIH numerator).
     */
    const std::vector<bool> *hoistedMask = nullptr;

    /**
     * Collect per-branch issue-stall cycles (ASPCB ingredient). When
     * off, the per-branch accounting allocates nothing and touches no
     * hash map; when on, dense accumulators are sized once up front
     * and densified into SimStats::branchStalls at the end of the run.
     */
    bool collectBranchStalls = false;

    /** Optional pipeline timeline collector (see uarch/trace.hh). */
    PipelineTrace *trace = nullptr;

    /**
     * Force the retained reference path (ProgramExecutor-driven,
     * std::function hooks, virtual predictor dispatch) even when the
     * run is fast-path eligible. The reference path is the pre-decode
     * baseline kept for bit-identity testing (tests/test_fastpath.cc)
     * and as the denominator of the tier2_perf fast-vs-reference gate
     * (tests/test_perf_regression.cc). The environment variable
     * VANGUARD_FORCE_REFERENCE=1 has the same effect process-wide
     * (used to A/B whole sweeps). Runs with a lockstep checker or a
     * pipeline trace attached use the reference path regardless.
     */
    bool forceReference = false;

    /**
     * No effect: the fast path has one dispatcher. Kept only because
     * the benchmark harness (perfbench/harness.cc) still assigns it;
     * nothing else reads or writes it.
     */
    bool noThreadedDispatch = false;
};

struct SimStats
{
    uint64_t cycles = 0;
    uint64_t dynamicInsts = 0;  ///< committed program-order instructions
    uint64_t fetched = 0;
    uint64_t issued = 0;        ///< consumed an issue slot

    uint64_t condBranches = 0;      ///< dynamic BRs
    uint64_t brMispredicts = 0;     ///< BR direction mispredicts
    uint64_t predictsExecuted = 0;
    uint64_t resolvesExecuted = 0;
    uint64_t resolveRedirects = 0;  ///< RESOLVE taken (mispredict fixups)

    uint64_t icacheLineAccesses = 0;
    uint64_t icacheMisses = 0;
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Misses = 0;

    uint64_t branchStallCycles = 0;   ///< operand-wait at issue (BR+RESOLVE)
    uint64_t branchStallEvents = 0;
    uint64_t dbbFullStalls = 0;
    uint64_t dbbMaxOccupancy = 0;
    uint64_t fetchBufferStalls = 0;
    uint64_t mshrStalls = 0;
    uint64_t speculativeExecs = 0;
    uint64_t foldedCommitMovs = 0;

    bool halted = false;
    bool faulted = false;

    /** Per-branch-id (stall cycles, events); filled when requested. */
    std::unordered_map<InstId, std::pair<uint64_t, uint64_t>>
        branchStalls;

    /**
     * Predictor-internal counters exported at end of run under
     * "bpred.<sanitized name>." (lookups, updates, mispredicts, plus
     * model-specific extras such as TAGE provider attribution). Kept
     * as ordered pairs so journal round-trips preserve them exactly.
     */
    std::vector<std::pair<std::string, uint64_t>> bpredCounters;

    double
    ipc() const
    {
        return cycles == 0
            ? 0.0
            : static_cast<double>(dynamicInsts) /
                  static_cast<double>(cycles);
    }

    double
    mppki() const
    {
        return dynamicInsts == 0
            ? 0.0
            : 1000.0 *
                  static_cast<double>(brMispredicts + resolveRedirects) /
                  static_cast<double>(dynamicInsts);
    }
};

/**
 * Run prog to completion on the modeled machine.
 *
 * @param prog      laid-out program.
 * @param mem       initialized data memory (mutated).
 * @param predictor direction predictor (trained during the run).
 * @throws SimError(Config) when cfg has a zero width, port count,
 *         fetch-buffer, DBB or MSHR size.
 */
SimStats simulate(const Program &prog, Memory &mem,
                  DirectionPredictor &predictor,
                  const MachineConfig &cfg, const SimOptions &opts = {});

class DecodedProgram;

/**
 * simulate() against a pre-built DecodedProgram (see
 * exec/decoded_program.hh). The decoded form is a pure function of
 * (prog, I-line size), computed once per compile artifact and shared
 * read-only across seeds and configs; callers without one can use
 * simulate(), which decodes internally when the fast path is
 * eligible. `decoded` must have been produced from `prog`.
 */
SimStats simulateWithDecoded(const Program &prog,
                             const DecodedProgram &decoded, Memory &mem,
                             DirectionPredictor &predictor,
                             const MachineConfig &cfg,
                             const SimOptions &opts = {});

/**
 * Most widths one fused simulateWidths() pass times at once: one
 * column each of the 4 x 32-bit vectors (uarch/lanes.hh) that time a
 * pass of two or more lanes.
 */
inline constexpr unsigned kMaxFusedLanes = 4;

/**
 * Run prog once and time it on every machine in `cfgs` (one timing
 * lane each), returning one SimStats per entry, in order. Each lane's
 * result is bit-identical to simulateWithDecoded() with that config on
 * a fresh copy of `mem` and a fresh predictor: the functional,
 * predictor, BTB, DBB and cache work is width-invariant and runs once,
 * only the per-width timing runs per lane. The configs may differ only
 * in width and port counts, and every count must be at least 1
 * (SimError(Config) otherwise). At most maxFusedLanes(opts) lanes per
 * call; runs that take the reference path (lockstep, pipeline trace,
 * forceReference) are single-lane.
 */
std::vector<SimStats> simulateWidths(const Program &prog,
                                     const DecodedProgram &decoded,
                                     Memory &mem,
                                     DirectionPredictor &predictor,
                                     const std::vector<MachineConfig> &cfgs,
                                     const SimOptions &opts = {});

/** kMaxFusedLanes when `opts` takes the fast path, else 1. */
size_t maxFusedLanes(const SimOptions &opts);

/**
 * Flatten one run's SimStats into dotted metric paths
 * (`uarch.pipeline.cycles`, `uarch.icache.misses`,
 * `uarch.dbb.maxOccupancy` max-aggregated, plus the predictor's
 * `bpred.*` counters) for MetricsRegistry::mergeJobSnapshot.
 */
MetricSnapshot simStatsSnapshot(const SimStats &stats);

/**
 * Functionally pre-execute prog and record, for every dynamic PREDICT,
 * the outcome of the original branch it stands for (reconstructed from
 * its RESOLVE). The outcome sequence is prediction-independent by
 * construction of the transformation.
 */
std::vector<bool> prerecordPredictOutcomes(const Program &prog,
                                           const Memory &mem,
                                           uint64_t max_insts);

} // namespace vanguard

#endif // VANGUARD_UARCH_PIPELINE_HH
