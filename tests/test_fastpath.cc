/**
 * @file
 * The fast-path identity contract (PR 5): the pre-decoded fused cycle
 * loop must be bit-identical — every SimStats field, every exported
 * metric — to the retained reference path, for every predictor, every
 * machine width, every REF seed, and any experiment-engine worker
 * count. Plus the
 * DecodedProgram round-trip property: decode is a pure re-encoding of
 * the laid-out program, never a transformation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "core/runner.hh"
#include "core/vanguard.hh"
#include "exec/decoded_program.hh"
#include "support/metrics.hh"
#include "uarch/pipeline.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

/** Small but real workload: a few hundred thousand dynamic insts. */
BenchmarkSpec
smallSpec(const char *name = "h264ref-like", unsigned iterations = 800)
{
    BenchmarkSpec spec = findBenchmark(name);
    spec.iterations = iterations;
    return spec;
}

SimStats
runOnce(const BenchmarkSpec &spec, const CompiledConfig &config,
        const VanguardOptions &vopts, uint64_t seed,
        bool force_reference, bool no_threaded = false)
{
    BuiltKernel ref = buildKernel(spec, seed);
    auto pred = makePredictor(vopts.predictor, seed);
    SimOptions sopts;
    sopts.maxInsts = vopts.simMaxInsts;
    sopts.cycleBudget = vopts.simCycleBudget;
    sopts.progressWindow = vopts.simProgressWindow;
    sopts.collectBranchStalls = true;
    sopts.forceReference = force_reference;
    sopts.noThreadedDispatch = no_threaded;
    if (!config.hoistedMask.empty())
        sopts.hoistedMask = &config.hoistedMask;
    return simulateWithDecoded(config.prog, *config.decoded, *ref.mem,
                               *pred, vopts.machine(), sopts);
}

/** Every exported metric must match: path, value, and aggregation. */
void
expectSnapshotsIdentical(const SimStats &fast, const SimStats &ref,
                         const std::string &what)
{
    MetricSnapshot fs = simStatsSnapshot(fast);
    MetricSnapshot rs = simStatsSnapshot(ref);
    ASSERT_EQ(fs.entries.size(), rs.entries.size()) << what;
    for (size_t i = 0; i < fs.entries.size(); ++i) {
        EXPECT_EQ(fs.entries[i].path, rs.entries[i].path) << what;
        EXPECT_EQ(fs.entries[i].value, rs.entries[i].value)
            << what << ": metric " << fs.entries[i].path;
        EXPECT_EQ(static_cast<int>(fs.entries[i].agg),
                  static_cast<int>(rs.entries[i].agg))
            << what << ": metric " << fs.entries[i].path;
    }
}

/** Fast vs reference on both compiled configs, for each given seed. */
void
expectBitIdentical(const BenchmarkSpec &spec, const VanguardOptions &vopts,
                   const std::string &what,
                   const std::vector<uint64_t> &seeds = {kRefSeeds[0]})
{
    BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
    for (const CompiledConfig *config : {&art.base, &art.exp}) {
        for (uint64_t seed : seeds) {
            SimStats fast = runOnce(spec, *config, vopts, seed, false);
            SimStats ref = runOnce(spec, *config, vopts, seed, true);
            std::string tag = what +
                (config->decomposed ? " [exp]" : " [base]") + " seed " +
                std::to_string(seed);
            // The scalar core first (clearer failure messages)...
            EXPECT_EQ(fast.cycles, ref.cycles) << tag;
            EXPECT_EQ(fast.dynamicInsts, ref.dynamicInsts) << tag;
            EXPECT_EQ(fast.brMispredicts, ref.brMispredicts) << tag;
            EXPECT_EQ(fast.branchStallCycles, ref.branchStallCycles)
                << tag;
            // ...then the full export, which covers every counter
            // including the per-predictor bpred.* set.
            expectSnapshotsIdentical(fast, ref, tag);
            // Per-branch stall attribution is not part of the snapshot.
            EXPECT_TRUE(fast.branchStalls == ref.branchStalls) << tag;
        }
    }
}

TEST(FastPath, BitIdenticalAcrossPredictors)
{
    BenchmarkSpec spec = smallSpec();
    // Every factory predictor, including the sealed-dispatch fast
    // cases (bimodal/gshare/gshare3/tage) and the virtual-dispatch
    // fallbacks (local/perceptron/isltage/ideal).
    for (const char *pred :
         {"bimodal", "local", "gshare", "gshare3", "gshare3-big",
          "perceptron", "tage", "isltage", "ideal:0.9"}) {
        VanguardOptions vopts;
        vopts.predictor = pred;
        expectBitIdentical(spec, vopts, std::string("predictor ") + pred);
    }
}

TEST(FastPath, BitIdenticalAcrossWidths)
{
    for (unsigned width : {2u, 4u, 8u}) {
        for (const char *pred : {"gshare3", "tage"}) {
            VanguardOptions vopts;
            vopts.width = width;
            vopts.predictor = pred;
            expectBitIdentical(smallSpec("mcf-like", 600), vopts,
                               "width " + std::to_string(width) + " " +
                                   pred,
                               {kRefSeeds, kRefSeeds + kNumRefSeeds});
        }
    }
}

/**
 * The computed-goto and portable-switch dispatchers run the same loop
 * body, so choosing between them must select machine code only, never
 * behavior — both the SimOptions flag and the VANGUARD_THREADED env
 * kill switch. Skips (trivially passes) in builds without the
 * threaded dispatcher, where the flag is a documented no-op.
 */
TEST(FastPath, ThreadedAndSwitchDispatchersBitIdentical)
{
    if (!threadedDispatchAvailable())
        GTEST_SKIP() << "portable build: no threaded dispatcher";
    BenchmarkSpec spec = smallSpec("mcf-like", 500);
    for (const char *pred : {"gshare3", "tage"}) {
        VanguardOptions vopts;
        vopts.predictor = pred;
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
        for (const CompiledConfig *config : {&art.base, &art.exp}) {
            std::string tag = std::string("dispatcher ") + pred +
                (config->decomposed ? " [exp]" : " [base]");
            SimStats threaded =
                runOnce(spec, *config, vopts, kRefSeeds[0], false, false);
            SimStats sw =
                runOnce(spec, *config, vopts, kRefSeeds[0], false, true);
            EXPECT_EQ(threaded.cycles, sw.cycles) << tag;
            expectSnapshotsIdentical(threaded, sw, tag);
            EXPECT_TRUE(threaded.branchStalls == sw.branchStalls) << tag;

            // The env kill switch must behave exactly like the flag.
            ASSERT_EQ(setenv("VANGUARD_THREADED", "0", 1), 0);
            SimStats env_sw =
                runOnce(spec, *config, vopts, kRefSeeds[0], false, false);
            unsetenv("VANGUARD_THREADED");
            expectSnapshotsIdentical(env_sw, sw, tag + " env");
        }
    }
}

TEST(FastPath, ForceReferenceEnvIsHonored)
{
    // The kill switch must not change results either — it selects the
    // path, not the behavior.
    BenchmarkSpec spec = smallSpec("bzip2-like", 500);
    VanguardOptions vopts;
    BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
    SimStats fast = runOnce(spec, art.exp, vopts, kRefSeeds[0], false);
    ASSERT_EQ(setenv("VANGUARD_FORCE_REFERENCE", "1", 1), 0);
    SimStats forced = runOnce(spec, art.exp, vopts, kRefSeeds[0], false);
    unsetenv("VANGUARD_FORCE_REFERENCE");
    expectSnapshotsIdentical(fast, forced, "env kill switch");
}

/**
 * Whole-sweep identity across worker counts and execution paths: the
 * metrics-registry dump (which asserts per-scope snapshot
 * bit-identity internally) must come out byte-identical for jobs=1,
 * jobs=8, and the forced-reference flavors of both.
 */
TEST(FastPath, SweepDumpIdenticalAcrossJobsAndPaths)
{
    BenchmarkSpec spec = smallSpec("mcf-like", 400);
    VanguardOptions vopts;

    std::vector<std::string> dumps;
    for (bool force : {false, true}) {
        if (force) {
            ASSERT_EQ(setenv("VANGUARD_FORCE_REFERENCE", "1", 1), 0);
        }
        for (unsigned jobs : {1u, 8u}) {
            RunnerOptions ropts;
            ropts.jobs = jobs;
            MetricsRegistry registry;
            ropts.metrics = &registry;
            SuiteReport report =
                runSuiteWidthsReport({spec}, {2u, 4u}, vopts, ropts);
            ASSERT_TRUE(report.failures.empty());
            dumps.push_back(registry.toJson());
        }
        if (force)
            unsetenv("VANGUARD_FORCE_REFERENCE");
    }
    for (size_t i = 1; i < dumps.size(); ++i)
        EXPECT_EQ(dumps[0], dumps[i]) << "dump " << i;
}

/**
 * DecodedProgram round-trip: every field of every DecodedInst is a
 * pure re-encoding of the LaidInst it came from. Runs over both
 * compiled configs of several workloads so PREDICT/RESOLVE/BR/JMP,
 * loads/stores, and immediate forms are all covered.
 */
TEST(DecodedProgram, RoundTripsTheLaidOutProgram)
{
    for (const char *wl : {"h264ref-like", "mcf-like", "xalancbmk-like"}) {
        BenchmarkSpec spec = smallSpec(wl, 100);
        VanguardOptions vopts;
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
        for (const CompiledConfig *config : {&art.base, &art.exp}) {
            const Program &prog = config->prog;
            ASSERT_NE(config->decoded, nullptr);
            const DecodedProgram &dec = *config->decoded;
            const unsigned line = dec.lineBytes();
            ASSERT_EQ(dec.size(), prog.size());

            InstId max_key = kNoInst;
            for (size_t i = 0; i < prog.size(); ++i) {
                const LaidInst &li = prog.at(i);
                const DecodedInst &d = dec.insts()[i];
                SCOPED_TRACE(std::string(wl) + " inst " +
                             std::to_string(i));

                EXPECT_EQ(d.pc, li.pc);
                EXPECT_EQ(d.op, li.inst.op);
                EXPECT_EQ(d.id, li.inst.id);
                EXPECT_EQ(d.dst, li.inst.dst);
                EXPECT_EQ(d.src1, li.inst.src1);
                EXPECT_EQ(d.src2, li.inst.src2);
                EXPECT_EQ(d.src3, li.inst.src3);
                EXPECT_EQ(d.imm, li.inst.imm);
                EXPECT_EQ(d.lineTag, li.pc & ~uint64_t{line - 1});
                EXPECT_EQ(static_cast<FuClass>(d.fu),
                          li.inst.fuClass());
                EXPECT_EQ(d.latency, li.inst.latency());

                EXPECT_EQ(d.writesDst(), li.inst.writesDst());
                EXPECT_EQ(d.isLoad(), li.inst.isLoad());
                EXPECT_EQ(d.isStore(), li.inst.isStore());
                EXPECT_EQ(d.hasImmSrc2(), li.inst.hasImmSrc2());
                EXPECT_EQ(d.resolvePathTaken(),
                          li.inst.op == Opcode::RESOLVE &&
                              li.inst.resolvePathTaken);

                if (li.takenPc != 0) {
                    EXPECT_EQ(d.takenPc, li.takenPc);
                    EXPECT_EQ(d.takenIdx, prog.indexOf(li.takenPc));
                }

                InstId key = kNoInst;
                if (li.inst.op == Opcode::BR)
                    key = li.inst.id;
                else if (li.inst.op == Opcode::RESOLVE)
                    key = li.inst.origBranch;
                EXPECT_EQ(d.stallKey, key);
                if (key != kNoInst &&
                    (max_key == kNoInst || key > max_key))
                    max_key = key;
            }
            EXPECT_EQ(dec.maxStallKey(), max_key);
        }
    }
}

} // namespace
} // namespace vanguard
