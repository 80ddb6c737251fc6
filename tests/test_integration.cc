/**
 * @file
 * End-to-end integration tests: the full paper methodology on real
 * suite kernels — profile, select, decompose, schedule, lay out,
 * simulate — checking both correctness (identical architectural
 * results) and the headline performance claims directionally.
 */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "compiler/layout.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/vanguard.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

BenchmarkSpec
smallSpec(const char *base_name, uint64_t iters = 4000)
{
    BenchmarkSpec spec = findBenchmark(base_name);
    spec.iterations = iters;
    return spec;
}

VanguardOptions
quickOpts()
{
    VanguardOptions opts;
    opts.width = 4;
    return opts;
}

TEST(Integration, TransformedKernelComputesSameResult)
{
    // The transformed program must produce the same store stream and
    // final accumulators as the baseline for the same REF input.
    BenchmarkSpec spec = smallSpec("perlbench-like", 2000);
    VanguardOptions opts = quickOpts();
    TrainArtifacts train = trainBenchmark(spec, opts);
    ASSERT_FALSE(train.selected.empty());

    CompiledConfig base = compileConfig(spec, train, false, opts);
    CompiledConfig exp = compileConfig(spec, train, true, opts);
    EXPECT_GT(exp.staticInsts, base.staticInsts);

    for (uint64_t seed : kRefSeeds) {
        BuiltKernel ref_a = buildKernel(spec, seed);
        BuiltKernel ref_b = buildKernel(spec, seed);

        ProgramExecutor pe_base(base.prog, *ref_a.mem);
        pe_base.run(200'000'000);
        ASSERT_TRUE(pe_base.halted());
        ASSERT_FALSE(pe_base.faulted());

        ProgramExecutor pe_exp(exp.prog, *ref_b.mem);
        // Adversarial predictions: alternate every PREDICT.
        bool flip = false;
        pe_exp.setPredictHook(
            [&flip](const LaidInst &) { return flip = !flip; });
        pe_exp.run(200'000'000);
        ASSERT_TRUE(pe_exp.halted());
        ASSERT_FALSE(pe_exp.faulted());

        // Architectural registers and all of data memory must agree.
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            EXPECT_EQ(pe_base.reg(static_cast<RegId>(r)),
                      pe_exp.reg(static_cast<RegId>(r)))
                << "arch reg r" << r << " seed " << seed;
        EXPECT_TRUE(*ref_a.mem == *ref_b.mem) << "memory, seed " << seed;
    }
}

TEST(Integration, DecompositionSpeedsUpTargetKernel)
{
    // The headline claim, directionally: a kernel rich in
    // predictable-but-unbiased branches gets faster.
    BenchmarkSpec spec = smallSpec("h264ref-like", 6000);
    VanguardOptions opts = quickOpts();
    BenchmarkOutcome outcome =
        evaluateBenchmark(spec, opts, kRefSeeds[0]);
    EXPECT_GT(outcome.selectedBranches, 0u);
    EXPECT_GT(outcome.speedupPct, 2.0)
        << "expected a clear win on the flagship kernel";
    EXPECT_LT(outcome.speedupPct, 60.0) << "suspiciously large win";
}

TEST(Integration, BaselineEqualsExperimentWithoutCandidates)
{
    // A kernel with only unpredictable branches (below the
    // predictability floor) should select nothing and the two
    // configurations should be identical.
    BenchmarkSpec spec = smallSpec("hmmer-like", 3000);
    spec.hammocksPU = 0;
    spec.hammocksBP = 0;
    spec.hammocksUP = 4;
    VanguardOptions opts = quickOpts();
    TrainArtifacts train = trainBenchmark(spec, opts);
    EXPECT_TRUE(train.selected.empty());
    BenchmarkOutcome outcome =
        evaluateBenchmark(spec, opts, kRefSeeds[0]);
    EXPECT_NEAR(outcome.speedupPct, 0.0, 0.5);
    EXPECT_EQ(outcome.baseStaticInsts, outcome.expStaticInsts);
}

TEST(Integration, MetricsArePopulated)
{
    BenchmarkSpec spec = smallSpec("omnetpp-like", 3000);
    VanguardOptions opts = quickOpts();
    BenchmarkOutcome o = evaluateBenchmark(spec, opts, kRefSeeds[1]);
    EXPECT_GT(o.pbc, 0.0);
    EXPECT_LE(o.pbc, 100.0);
    EXPECT_GT(o.alpbb, 0.0);
    EXPECT_GT(o.phi, 0.0);
    EXPECT_GT(o.piscs, 0.0);
    EXPECT_GT(o.pdih, 0.0);
    EXPECT_GE(o.aspcb, 0.0);
    EXPECT_GT(o.mppkiBase, 0.0);
    EXPECT_GT(o.base.cycles, 0u);
    EXPECT_GT(o.exp.cycles, 0u);
}

TEST(Integration, WidthVariantsAllRun)
{
    BenchmarkSpec spec = smallSpec("astar-like", 2500);
    for (unsigned w : {2u, 4u, 8u}) {
        VanguardOptions opts = quickOpts();
        opts.width = w;
        BenchmarkOutcome o = evaluateBenchmark(spec, opts, kRefSeeds[0]);
        EXPECT_GT(o.base.cycles, 0u) << "width " << w;
        // Wider machines should not be slower in absolute terms.
    }
}

TEST(Integration, WiderMachineIsFaster)
{
    BenchmarkSpec spec = smallSpec("perlbench-like", 3000);
    uint64_t cycles_prev = UINT64_MAX;
    for (unsigned w : {2u, 4u}) {
        VanguardOptions opts = quickOpts();
        opts.width = w;
        opts.applyDecomposition = false;
        BenchmarkOutcome o = evaluateBenchmark(spec, opts, kRefSeeds[0]);
        EXPECT_LT(o.base.cycles, cycles_prev) << "width " << w;
        cycles_prev = o.base.cycles;
    }
}

TEST(Integration, IdealPredictorOracleWorks)
{
    BenchmarkSpec spec = smallSpec("sjeng-like", 2500);
    VanguardOptions opts = quickOpts();
    opts.predictor = "ideal:1.0";
    BenchmarkOutcome o = evaluateBenchmark(spec, opts, kRefSeeds[0]);
    // A perfect predictor never triggers resolve redirects.
    EXPECT_EQ(o.exp.resolveRedirects, 0u);
    EXPECT_EQ(o.exp.brMispredicts, 0u);
    EXPECT_GT(o.speedupPct, 0.0);
}

TEST(Integration, SuiteRunnerAggregates)
{
    std::vector<BenchmarkSpec> mini = {smallSpec("h264ref-like", 1500),
                                       smallSpec("bzip2-like", 1500)};
    VanguardOptions opts = quickOpts();
    SuiteResult result = runSuiteWidths(mini, {opts.width}, opts).front();
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.rows[0].perSeed.size(), kNumRefSeeds);
    EXPECT_GE(result.geomeanBestPct, result.geomeanMeanPct - 1e-9);
}

TEST(Integration, RefInputsChangeBehaviourButNotCode)
{
    BenchmarkSpec spec = smallSpec("gobmk-like", 2000);
    VanguardOptions opts = quickOpts();
    TrainArtifacts train = trainBenchmark(spec, opts);
    CompiledConfig exp = compileConfig(spec, train, true, opts);

    SimStats a = simulateConfig(spec, exp, opts, kRefSeeds[0]);
    SimStats b = simulateConfig(spec, exp, opts, kRefSeeds[1]);
    EXPECT_EQ(a.dynamicInsts > 0, b.dynamicInsts > 0);
    // Different inputs, different mispredict realizations.
    EXPECT_NE(a.cycles, b.cycles);
}

} // namespace
} // namespace vanguard
