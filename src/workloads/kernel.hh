/**
 * @file
 * Synthetic SPEC-analog kernel builder.
 *
 * Each benchmark is a hot loop whose body is a chain of hammocks
 * (diamond-shaped forward branches). Per-benchmark parameters place
 * each hammock in one of the Figure-1 quadrants and control the
 * microarchitectural signature the paper's Table 2 reports:
 *
 *   - hammock class mix -> PBC (how many branches are
 *     predictable-but-unbiased and thus convertible),
 *   - loads per successor block -> ALPBB / exploitable MLP,
 *   - working-set size and stride -> L1-D$ miss rate,
 *   - noise level -> MPPKI,
 *   - early stores in successors -> PHI (hoistable fraction),
 *   - FP-op counts -> INT vs FP character and block size.
 *
 * Branch conditions are Markov run-state flags kept in data memory
 * (see stream.hh): each hammock loads its flag, possibly flips it
 * using in-register xorshift noise, stores it back, and branches on
 * it — so the condition has a real load-to-use dependence, the
 * resolution-stall scenario of the paper's omnetpp example (Fig. 6).
 */

#ifndef VANGUARD_WORKLOADS_KERNEL_HH
#define VANGUARD_WORKLOADS_KERNEL_HH

#include <memory>
#include <string>

#include "exec/memory.hh"
#include "ir/function.hh"

namespace vanguard {

struct BenchmarkSpec
{
    const char *name = "kernel";
    bool fp = false;            ///< FP-suite character

    // Hammock population by Figure-1 quadrant.
    unsigned hammocksPU = 4;    ///< predictable-but-unbiased (target)
    unsigned hammocksBP = 1;    ///< biased & predictable (superblocks)
    unsigned hammocksUP = 0;    ///< unbiased & unpredictable

    unsigned loadsPerSucc = 3;

    /** Of loadsPerSucc, how many form a dependent (pointer-chase
     *  style) chain after the first load; the rest are independent
     *  MLP. Chained successor loads are what make the baseline
     *  serialize branch resolution against data access. */
    unsigned chainedSuccLoads = 1;

    unsigned aluPerSucc = 3;
    unsigned fpPerSucc = 0;
    unsigned storesPerSucc = 1;

    double noisePU = 0.06;      ///< PU run-boundary rate (1 - predictability)
    double takenPU = 0.55;      ///< PU stationary taken fraction (bias dial)

    unsigned workingSetKB = 16; ///< power of two; D$ pressure dial
    unsigned strideLines = 1;   ///< lines advanced per iteration
    bool storesEarly = false;   ///< stores first -> low PHI

    /** Serial multiplies between the condition-feeding load and the
     *  compare: lengthens the resolution stall the way real address /
     *  index computations do (the ASPCB dial). */
    unsigned condChainOps = 1;

    /** Semi-cold code: blocks executed once every coldPeriod
     *  iterations (power of two). They give the binary a realistic
     *  static footprint — SPEC's speedup-irrelevant code mass — so
     *  code-size metrics (PISCS) and the Sec. 6.1 I$ experiments are
     *  measured against a realistic denominator. */
    unsigned coldBlocks = 32;
    unsigned coldBlockInsts = 96;
    unsigned coldPeriod = 256;

    uint64_t iterations = 30000;

    unsigned totalHammocks() const
    {
        return hammocksPU + hammocksBP + hammocksUP;
    }
};

/** A kernel's code. Like a real binary it is identical across
 *  inputs: everything input-dependent lives in data memory. */
struct KernelCode
{
    Function fn;

    /** Blocks with id >= firstColdBlock are the semi-cold region. */
    BlockId firstColdBlock = kNoBlock;
};

/** A constructed kernel: IR + initialized data memory. */
struct BuiltKernel
{
    Function fn;
    std::unique_ptr<Memory> mem;

    /** Blocks with id >= firstColdBlock are the semi-cold region. */
    BlockId firstColdBlock = kNoBlock;
};

/** Build the benchmark's code (no input needed). */
KernelCode buildKernelCode(const BenchmarkSpec &spec);

/**
 * Build the initialized data memory for one (benchmark, input) pair.
 * Different input_seed values model different SPEC TRAIN/REF inputs:
 * they change the baked patterns, data contents, noise realization,
 * and jitter the pattern densities a few percent (the paper notes bias
 * varies across reference inputs).
 */
Memory buildKernelMemory(const BenchmarkSpec &spec, uint64_t input_seed);

/** buildKernelCode + buildKernelMemory for one (benchmark, input) pair. */
BuiltKernel buildKernel(const BenchmarkSpec &spec, uint64_t input_seed);

/** Conventional seeds mirroring the SPEC input-set methodology. */
inline constexpr uint64_t kTrainSeed = 0x7121a;
inline constexpr uint64_t kRefSeeds[] = {0xbef1, 0xbef2, 0xbef3};
inline constexpr size_t kNumRefSeeds = 3;

} // namespace vanguard

#endif // VANGUARD_WORKLOADS_KERNEL_HH
