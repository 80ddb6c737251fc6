/**
 * @file
 * Fault-tolerance tests: structured SimErrors, the forward-progress
 * watchdogs (functional step budget, pipeline cycle budget), the
 * lockstep differential oracle, per-job isolation in the experiment
 * engine (an injected fault must not disturb any other slot), the
 * transient-retry policy, and deterministic failure-replay bundles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bpred/factory.hh"
#include "compiler/layout.hh"
#include "core/replay.hh"
#include "core/runner.hh"
#include "exec/interpreter.hh"
#include "ir/builder.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "uarch/lockstep.hh"
#include "uarch/pipeline.hh"
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

/** A loop whose exit condition never fires. */
Function
endlessLoop()
{
    Function fn("endless");
    IRBuilder b(fn);
    b.startBlock("entry");
    BlockId head = fn.addBlock("head");
    BlockId exit = fn.addBlock("exit");
    b.movi(0, 0);
    b.jmp(head);
    b.setInsertPoint(head);
    b.addi(0, 0, 1);
    b.cmpi(Opcode::CMPLT, 15, 0, 0); // always false...
    b.br(15, exit, head);            // ...so always loop
    b.setInsertPoint(exit);
    b.halt();
    return fn;
}

TEST(SimErrorTest, CarriesKindDetailContext)
{
    SimError e(SimError::Kind::Hang, "budget gone", "pipeline.cc:1");
    EXPECT_EQ(e.kind(), SimError::Kind::Hang);
    EXPECT_EQ(e.detail(), "budget gone");
    EXPECT_EQ(e.context(), "pipeline.cc:1");
    std::string what = e.what();
    EXPECT_NE(what.find("Hang"), std::string::npos);
    EXPECT_NE(what.find("budget gone"), std::string::npos);

    SimError more = e.annotated("bzip2-like w4 (simulate)");
    EXPECT_EQ(more.kind(), SimError::Kind::Hang);
    EXPECT_EQ(more.detail(), "budget gone");
    EXPECT_NE(more.context().find("bzip2-like"), std::string::npos);
    EXPECT_NE(more.context().find("pipeline.cc:1"), std::string::npos);
}

TEST(SimErrorTest, KindNamesRoundTrip)
{
    for (SimError::Kind k :
         {SimError::Kind::Config, SimError::Kind::Invariant,
          SimError::Kind::Fault, SimError::Kind::Hang,
          SimError::Kind::Divergence, SimError::Kind::Io,
          SimError::Kind::Internal}) {
        EXPECT_EQ(SimError::kindFromName(SimError::kindName(k)), k);
    }
    EXPECT_EQ(SimError::kindFromName("garbage"),
              SimError::Kind::Internal);
    EXPECT_TRUE(SimError::isTransient(SimError::Kind::Io));
    EXPECT_FALSE(SimError::isTransient(SimError::Kind::Hang));
    EXPECT_FALSE(SimError::isTransient(SimError::Kind::Config));
}

TEST(SimErrorTest, VgAssertThrowsInvariant)
{
    try {
        vg_assert(1 + 1 == 3, "math broke: %d", 42);
        FAIL() << "vg_assert did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Invariant);
        EXPECT_NE(e.detail().find("math broke: 42"),
                  std::string::npos);
    }
}

TEST(SimErrorTest, LibraryThrowsConfigOnBadInput)
{
    try {
        findBenchmark("no-such-benchmark");
        FAIL() << "findBenchmark did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
    }
    try {
        makePredictor("no-such-predictor");
        FAIL() << "makePredictor did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
    }
}

TEST(Watchdog, InterpreterStepBudgetRaisesHang)
{
    Function fn = endlessLoop();
    Memory mem(1 << 16);
    Interpreter interp(fn, mem);
    interp.setStepBudget(10'000);
    try {
        interp.run();
        FAIL() << "step budget did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Hang);
    }

    // Without a budget the same run truncates quietly.
    Interpreter plain(fn, mem);
    RunResult r = plain.run(10'000);
    EXPECT_EQ(r.status, RunStatus::InstLimit);
}

TEST(Watchdog, PipelineCycleBudgetTerminatesEndlessLoop)
{
    Function fn = endlessLoop();
    Program prog = linearize(fn);
    Memory mem(1 << 16);
    auto pred = makePredictor("gshare3");
    SimOptions opts;
    opts.maxInsts = 1'000'000'000; // would run ~forever
    opts.cycleBudget = 50'000;
    try {
        simulate(prog, mem, *pred, MachineConfig::widthVariant(4),
                 opts);
        FAIL() << "cycle budget did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Hang);
        EXPECT_NE(e.detail().find("cycle budget"), std::string::npos);
    }
}

TEST(Lockstep, CheckerAcceptsMatchingRetirement)
{
    LockstepOracle golden;
    golden.stores = {{8, 42}, {16, -7}};
    golden.archRegs[3] = 99;
    golden.halted = true;

    LockstepChecker checker(golden);
    checker.onStore(8, 42);
    checker.onStore(16, -7);
    int64_t regs[kNumArchRegs] = {};
    regs[3] = 99;
    EXPECT_NO_THROW(checker.onHalt(regs));
    EXPECT_EQ(checker.comparedStores(), 2u);
}

TEST(Lockstep, CheckerRaisesDivergenceOnMismatch)
{
    LockstepOracle golden;
    golden.stores = {{8, 42}};
    golden.halted = true;

    LockstepChecker value_diff(golden);
    try {
        value_diff.onStore(8, 43);
        FAIL() << "store-value divergence not caught";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Divergence);
    }

    LockstepChecker reg_diff(golden);
    reg_diff.onStore(8, 42);
    int64_t regs[kNumArchRegs] = {};
    regs[0] = 1; // golden has all-zero arch regs
    EXPECT_THROW(reg_diff.onHalt(regs), SimError);

    LockstepChecker missing(golden);
    int64_t clean[kNumArchRegs] = {};
    EXPECT_THROW(missing.onHalt(clean), SimError); // 0 of 1 stores
}

TEST(Lockstep, FullSimulationPassesUnderOracle)
{
    // Both configurations of a real benchmark retire exactly the
    // golden functional run's state, so the opt-in oracle is silent.
    BenchmarkSpec spec = quick("bzip2-like", 1500);
    VanguardOptions opts;
    opts.lockstep = true;
    BenchmarkOutcome o =
        evaluateBenchmark(spec, opts, kRefSeeds[0]);
    EXPECT_GT(o.base.cycles, 0u);
    EXPECT_GT(o.exp.cycles, 0u);
}

TEST(ThreadPoolFault, WaitCollectGathersEveryError)
{
    ThreadPool pool(2);
    std::atomic<int> survivors{0};
    for (int i = 0; i < 3; ++i)
        pool.submit([] { throw SimError(SimError::Kind::Fault, "x"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&survivors] { ++survivors; });
    std::vector<std::exception_ptr> errors = pool.waitCollect();
    EXPECT_EQ(errors.size(), 3u);
    EXPECT_EQ(survivors.load(), 10);

    // wait() folds several failures into one SimError(Internal)
    // listing the count.
    for (int i = 0; i < 2; ++i)
        pool.submit([] { throw SimError(SimError::Kind::Io, "disk"); });
    try {
        pool.wait();
        FAIL() << "wait did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Internal);
        EXPECT_NE(e.detail().find("2 jobs failed"), std::string::npos);
    }
}

TEST(ThreadPoolFault, EnvWorkerCountIsClamped)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    ::setenv("VANGUARD_JOBS", "1000000", 1);
    EXPECT_LE(ThreadPool::resolveWorkerCount(), 4u * hw);
    ::unsetenv("VANGUARD_JOBS");
    // Explicit requests are the caller's business and stay unclamped.
    EXPECT_EQ(ThreadPool::resolveWorkerCount(5), 5u);
}

TEST(RunnerFault, InjectedFaultIsIsolatedToItsSlot)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 1000),
                                        quick("bzip2-like", 1000)};
    std::vector<unsigned> widths = {4};
    VanguardOptions opts;

    RunnerOptions clean;
    clean.jobs = 4;
    SuiteReport ref = runSuiteWidthsReport(suite, widths, opts, clean);
    ASSERT_TRUE(ref.failures.empty());

    // Fault exactly one simulation job: bzip2-like, experimental
    // config, second REF seed.
    RunnerOptions faulty = clean;
    faulty.faultInjection = [](const JobIdentity &id) {
        if (std::string(id.phase) == "simulate" &&
            id.benchmark == "bzip2-like" && id.config == 1 &&
            id.seed == kRefSeeds[1])
            throw SimError(SimError::Kind::Fault, "injected");
    };
    SuiteReport got = runSuiteWidthsReport(suite, widths, opts, faulty);

    ASSERT_EQ(got.failures.size(), 1u);
    const JobFailure &f = got.failures[0];
    EXPECT_EQ(f.kind, SimError::Kind::Fault);
    EXPECT_EQ(f.message, "injected");
    EXPECT_EQ(f.id.benchmark, "bzip2-like");
    EXPECT_EQ(f.id.config, 1);
    EXPECT_EQ(f.id.seed, kRefSeeds[1]);
    EXPECT_EQ(f.attempts, 1u); // Fault is not transient: no retry
    EXPECT_FALSE(got.exceededThreshold(1));
    EXPECT_TRUE(got.exceededThreshold(0));

    // The non-faulted benchmark is bit-identical to the clean sweep.
    const SeedSummary &clean_row = ref.results[0].rows[0];
    const SeedSummary &got_row = got.results[0].rows[0];
    ASSERT_EQ(got_row.perSeed.size(), clean_row.perSeed.size());
    EXPECT_EQ(got_row.failedSeeds, 0u);
    for (size_t s = 0; s < clean_row.perSeed.size(); ++s) {
        EXPECT_EQ(got_row.perSeed[s].base.cycles,
                  clean_row.perSeed[s].base.cycles);
        EXPECT_EQ(got_row.perSeed[s].exp.cycles,
                  clean_row.perSeed[s].exp.cycles);
        EXPECT_DOUBLE_EQ(got_row.perSeed[s].speedupPct,
                         clean_row.perSeed[s].speedupPct);
    }

    // The faulted benchmark keeps its surviving seeds, which are
    // bit-identical to the clean run's corresponding slots.
    const SeedSummary &bz_clean = ref.results[0].rows[1];
    const SeedSummary &bz_got = got.results[0].rows[1];
    EXPECT_EQ(bz_got.failedSeeds, 1u);
    ASSERT_EQ(bz_got.perSeed.size(), kNumRefSeeds - 1);
    EXPECT_EQ(bz_got.perSeed[0].base.cycles,
              bz_clean.perSeed[0].base.cycles);
    EXPECT_EQ(bz_got.perSeed[0].exp.cycles,
              bz_clean.perSeed[0].exp.cycles);
    // Surviving slot 1 corresponds to clean seed index 2.
    EXPECT_EQ(bz_got.perSeed[1].base.cycles,
              bz_clean.perSeed[2].base.cycles);
    EXPECT_EQ(bz_got.perSeed[1].exp.cycles,
              bz_clean.perSeed[2].exp.cycles);

    // The failure table names the job and its kind.
    std::string table = renderFailureTable(got.failures);
    EXPECT_NE(table.find("bzip2-like"), std::string::npos);
    EXPECT_NE(table.find("Fault"), std::string::npos);
}

TEST(RunnerFault, FailedTrainRecordsOneRootCause)
{
    std::vector<BenchmarkSpec> suite = {quick("astar-like", 800),
                                        quick("sjeng-like", 800)};
    VanguardOptions opts;
    RunnerOptions ropts;
    ropts.jobs = 4;
    ropts.faultInjection = [](const JobIdentity &id) {
        if (std::string(id.phase) == "train" &&
            id.benchmark == "astar-like")
            throw SimError(SimError::Kind::Config, "bad spec");
    };
    SuiteReport report =
        runSuiteWidthsReport(suite, {4}, opts, ropts);

    // Downstream compiles/simulations are skipped, not recorded: the
    // failure list holds the root cause only.
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(std::string(report.failures[0].id.phase), "train");
    const SeedSummary &dead = report.results[0].rows[0];
    EXPECT_EQ(dead.failedSeeds, kNumRefSeeds);
    EXPECT_TRUE(dead.perSeed.empty());
    // The surviving benchmark still produced full results.
    EXPECT_EQ(report.results[0].rows[1].failedSeeds, 0u);
    EXPECT_EQ(report.results[0].rows[1].perSeed.size(), kNumRefSeeds);
}

TEST(RunnerFault, TransientKindRetriesDeterministically)
{
    std::vector<BenchmarkSpec> suite = {quick("gobmk-like", 800)};
    VanguardOptions opts;

    RunnerOptions clean;
    clean.jobs = 2;
    SuiteReport ref = runSuiteWidthsReport(suite, {4}, opts, clean);

    std::atomic<int> injections{0};
    RunnerOptions flaky = clean;
    flaky.maxAttempts = 2;
    flaky.faultInjection = [&injections](const JobIdentity &id) {
        if (std::string(id.phase) == "simulate" && id.config == 0 &&
            id.seed == kRefSeeds[0] && injections.fetch_add(1) == 0)
            throw SimError(SimError::Kind::Io, "spurious");
    };
    SuiteReport got = runSuiteWidthsReport(suite, {4}, opts, flaky);

    EXPECT_EQ(injections.load(), 2); // first attempt threw, second ran
    EXPECT_TRUE(got.failures.empty());
    ASSERT_EQ(got.results[0].rows[0].perSeed.size(), kNumRefSeeds);
    EXPECT_EQ(got.results[0].rows[0].perSeed[0].base.cycles,
              ref.results[0].rows[0].perSeed[0].base.cycles);

    // With retries exhausted the transient failure is recorded.
    std::atomic<int> again{0};
    RunnerOptions hopeless = clean;
    hopeless.maxAttempts = 2;
    hopeless.faultInjection = [&again](const JobIdentity &id) {
        if (std::string(id.phase) == "simulate" && id.config == 0 &&
            id.seed == kRefSeeds[0]) {
            ++again;
            throw SimError(SimError::Kind::Io, "still broken");
        }
    };
    SuiteReport lost = runSuiteWidthsReport(suite, {4}, opts, hopeless);
    EXPECT_EQ(again.load(), 2);
    ASSERT_EQ(lost.failures.size(), 1u);
    EXPECT_EQ(lost.failures[0].attempts, 2u);
    EXPECT_EQ(lost.failures[0].kind, SimError::Kind::Io);
}

TEST(RunnerFault, FailuresKeepPhaseThenIndexOrderUnderTheJobGraph)
{
    // Benchmark 0 fails one simulate job and benchmark 2 its train.
    // At one worker the simulate failure happens first in time; the
    // report still lists failures by phase, then job index, at any
    // worker count, and skips exactly the failed train's dependents.
    std::vector<BenchmarkSpec> suite = {
        quick("h264ref-like", 600), quick("bzip2-like", 600),
        quick("astar-like", 600), quick("sjeng-like", 600)};
    std::vector<unsigned> widths = {2, 4};
    VanguardOptions opts;

    RunnerOptions clean;
    clean.jobs = 4;
    SuiteReport ref = runSuiteWidthsReport(suite, widths, opts, clean);
    ASSERT_TRUE(ref.failures.empty());

    std::string first_table;
    for (unsigned jobs : {1u, 4u}) {
        MetricsRegistry reg;
        RunnerOptions faulty;
        faulty.jobs = jobs;
        faulty.metrics = &reg;
        faulty.faultInjection = [](const JobIdentity &id) {
            std::string phase = id.phase;
            if ((phase == "simulate" && id.benchmark == "h264ref-like" &&
                 id.config == 1 && id.seed == kRefSeeds[1]) ||
                (phase == "train" && id.benchmark == "astar-like"))
                throw SimError(SimError::Kind::Config, "injected");
        };
        SuiteReport got =
            runSuiteWidthsReport(suite, widths, opts, faulty);

        ASSERT_EQ(got.failures.size(), 2u) << "jobs " << jobs;
        EXPECT_EQ(std::string(got.failures[0].id.phase), "train");
        EXPECT_EQ(got.failures[0].id.benchmark, "astar-like");
        EXPECT_EQ(got.failures[0].id.index, 2u);
        EXPECT_EQ(std::string(got.failures[1].id.phase), "simulate");
        EXPECT_EQ(got.failures[1].id.benchmark, "h264ref-like");
        EXPECT_EQ(got.failures[1].id.index, 3u); // (0*S + 1)*2 + exp
        std::string table = renderFailureTable(got.failures);
        if (first_table.empty())
            first_table = table;
        EXPECT_EQ(table, first_table) << "jobs " << jobs;
        // One compile and 2·S simulate jobs of the failed train.
        EXPECT_EQ(reg.findCounter("engine.jobs.skipped")->value(), 7u);

        for (size_t w = 0; w < widths.size(); ++w) {
            const auto &rows = got.results[w].rows;
            const auto &clean_rows = ref.results[w].rows;
            EXPECT_EQ(rows[2].failedSeeds, kNumRefSeeds);
            EXPECT_EQ(rows[0].failedSeeds, 1u);
            for (size_t r : {size_t{1}, size_t{3}}) {
                ASSERT_EQ(rows[r].perSeed.size(),
                          clean_rows[r].perSeed.size());
                EXPECT_DOUBLE_EQ(rows[r].meanSpeedupPct,
                                 clean_rows[r].meanSpeedupPct);
                for (size_t s = 0; s < rows[r].perSeed.size(); ++s) {
                    EXPECT_EQ(rows[r].perSeed[s].base.cycles,
                              clean_rows[r].perSeed[s].base.cycles);
                    EXPECT_EQ(rows[r].perSeed[s].exp.cycles,
                              clean_rows[r].perSeed[s].exp.cycles);
                    EXPECT_EQ(rows[r].perSeed[s].base.branchStalls,
                              clean_rows[r].perSeed[s].base.branchStalls);
                }
            }
        }
    }
}

TEST(RunnerFault, StrictWrapperRethrowsRootCause)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 800)};
    VanguardOptions opts;
    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.faultInjection = [](const JobIdentity &id) {
        if (std::string(id.phase) == "compile")
            throw SimError(SimError::Kind::Invariant, "boom");
    };
    try {
        runSuiteWidths(suite, {4}, opts, ropts);
        FAIL() << "strict wrapper swallowed the failure";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Invariant);
        EXPECT_NE(e.detail().find("boom"), std::string::npos);
        EXPECT_NE(e.context().find("compile"), std::string::npos);
    }
}

TEST(Replay, BundleRoundTripsThroughText)
{
    ReplayBundle b;
    b.benchmark = "mcf-like";
    b.phase = "simulate";
    b.width = 8;
    b.config = 0;
    b.seed = kRefSeeds[2];
    b.iterations = 12345;
    b.options.predictor = "tage";
    b.options.applySuperblock = false;
    b.options.dbbEntries = 4;
    b.options.selection.minExposed = 0.25;
    b.options.simCycleBudget = 777;
    b.errorKind = "Hang";
    b.errorMessage = "cycle budget exceeded: something something";

    ReplayParseResult parsed =
        parseReplayBundle(serializeReplayBundle(b));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const ReplayBundle &r = parsed.bundle;
    EXPECT_EQ(r.benchmark, "mcf-like");
    EXPECT_EQ(r.phase, "simulate");
    EXPECT_EQ(r.width, 8u);
    EXPECT_EQ(r.config, 0);
    EXPECT_EQ(r.seed, kRefSeeds[2]);
    EXPECT_EQ(r.iterations, 12345u);
    EXPECT_EQ(r.options.predictor, "tage");
    EXPECT_FALSE(r.options.applySuperblock);
    EXPECT_EQ(r.options.dbbEntries, 4u);
    EXPECT_DOUBLE_EQ(r.options.selection.minExposed, 0.25);
    EXPECT_EQ(r.options.simCycleBudget, 777u);
    EXPECT_EQ(r.errorKind, "Hang");
    EXPECT_EQ(r.errorMessage,
              "cycle budget exceeded: something something");

    EXPECT_FALSE(parseReplayBundle("not a bundle\n").ok);
    EXPECT_FALSE(
        parseReplayBundle("vanguard-replay v1\nwidth 4\n").ok);
}

TEST(Replay, OptLinesAreStrict)
{
    const std::string head = "vanguard-replay v1\nbenchmark mcf-like\n";
    ReplayParseResult good =
        parseReplayBundle(head + "opt dbb-entries 8\n");
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.bundle.options.dbbEntries, 8u);
    // An unknown name (a retired key among them) or a value that is
    // not one whole token of its type refuses the bundle, naming the
    // key.
    for (const auto &[line, key] :
         std::vector<std::pair<std::string, std::string>>{
             {"opt bogus 7", "bogus"},
             {"opt no-threaded-dispatch 1", "no-threaded-dispatch"},
             {"opt dbb-entries x", "dbb-entries"},
             {"opt dbb-entries -3", "dbb-entries"},
             {"opt sel-min-exposed garbage", "sel-min-exposed"},
             {"opt icache-prefetch yes", "icache-prefetch"}}) {
        ReplayParseResult r = parseReplayBundle(head + line + "\n");
        EXPECT_FALSE(r.ok) << line;
        EXPECT_NE(r.error.find("'" + key + "'"), std::string::npos)
            << line << ": " << r.error;
    }
}

TEST(Replay, UnknownFutureVersionRaisesIoNamingIt)
{
    // A bundle written by a newer build must refuse loudly — naming
    // the version it saw — rather than misparse the payload.
    try {
        parseReplayBundle("vanguard-replay v2\nbenchmark x\n");
        FAIL() << "future bundle version accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_NE(e.detail().find("v2"), std::string::npos);
        EXPECT_NE(e.detail().find("vanguard-replay"),
                  std::string::npos);
    }
    // Malformed version tails refuse the same way.
    EXPECT_THROW(parseReplayBundle("vanguard-replay vX\n"), SimError);
    EXPECT_THROW(parseReplayBundle("vanguard-replay\n"), SimError);
    // A file that is not a replay bundle at all is an ordinary parse
    // failure, not an exception.
    EXPECT_FALSE(parseReplayBundle("something else v2\n").ok);
}

TEST(Replay, GenuineFailureWritesReproducibleBundle)
{
    // A starvation-level cycle budget makes every simulation job fail
    // with a real (uninjected) Hang; the engine must finish anyway,
    // write one bundle per root cause, and the bundle must reproduce
    // the same error kind when replayed solo.
    std::vector<BenchmarkSpec> suite = {quick("bzip2-like", 15000)};
    VanguardOptions opts;
    opts.simCycleBudget = 2'000;

    RunnerOptions ropts;
    ropts.jobs = 4;
    ropts.replayDir = ::testing::TempDir();
    SuiteReport report =
        runSuiteWidthsReport(suite, {4}, opts, ropts);

    ASSERT_EQ(report.failures.size(), kNumRefSeeds * 2);
    const JobFailure &f = report.failures[0];
    EXPECT_EQ(f.kind, SimError::Kind::Hang);
    ASSERT_FALSE(f.bundlePath.empty());

    ReplayParseResult parsed = loadReplayBundle(f.bundlePath);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.bundle.benchmark, "bzip2-like");
    EXPECT_EQ(parsed.bundle.errorKind, "Hang");
    EXPECT_EQ(parsed.bundle.options.simCycleBudget, 2'000u);

    ReplayOutcome out = replayBundle(parsed.bundle);
    EXPECT_TRUE(out.failed);
    EXPECT_TRUE(out.reproduced) << out.kind << ": " << out.message;
    EXPECT_EQ(out.kind, "Hang");
}

/**
 * A fused simulate job times every width at once; when one lane's
 * cycle budget runs out, the whole job fails, and the message, the
 * failure identity and the replay bundle all name that lane's width —
 * so the bundle replays solo on the machine that actually hung.
 */
TEST(Replay, HangInOneFusedLaneNamesItsWidth)
{
    BenchmarkSpec spec = quick("bzip2-like", 3000);
    VanguardOptions opts;
    BenchmarkArtifacts art = prepareBenchmark(spec, opts);
    const std::vector<unsigned> widths = {2, 4, 8};

    // A budget between the slowest wider lane and the fastest 2-wide
    // run: only the 2-wide lane can exceed it, in every job.
    uint64_t max_wide = 0;
    uint64_t min_narrow = UINT64_MAX;
    for (const CompiledConfig *config : {&art.base, &art.exp}) {
        for (uint64_t seed : kRefSeeds) {
            std::vector<SimStats> st =
                simulateConfigWidths(spec, *config, opts, widths, seed);
            min_narrow = std::min(min_narrow, st[0].cycles);
            max_wide = std::max({max_wide, st[1].cycles, st[2].cycles});
        }
    }
    ASSERT_LT(max_wide + 64, min_narrow);
    opts.simCycleBudget = (max_wide + min_narrow) / 2;

    try {
        simulateConfigWidths(spec, art.exp, opts, widths, kRefSeeds[0]);
        ADD_FAILURE() << "the 2-wide lane did not hang";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Hang);
        EXPECT_EQ(e.detail().rfind("width 2: cycle budget exceeded", 0),
                  0u)
            << e.detail();
    }

    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.replayDir = ::testing::TempDir() + "/fused-lane-hang";
    SuiteReport report = runSuiteWidthsReport({spec}, widths, opts, ropts);
    ASSERT_EQ(report.failures.size(), kNumRefSeeds * 2);
    for (const JobFailure &f : report.failures) {
        EXPECT_EQ(f.kind, SimError::Kind::Hang);
        EXPECT_EQ(f.id.width, 2u) << f.id.describe();
        EXPECT_NE(f.id.describe().find(" w2 "), std::string::npos)
            << f.id.describe();
        ASSERT_FALSE(f.bundlePath.empty());
        EXPECT_NE(f.bundlePath.find("-w2-"), std::string::npos)
            << f.bundlePath;
        ReplayParseResult parsed = loadReplayBundle(f.bundlePath);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        EXPECT_EQ(parsed.bundle.width, 2u);
    }
    ReplayOutcome out = replayBundle(
        loadReplayBundle(report.failures[0].bundlePath).bundle);
    EXPECT_TRUE(out.reproduced) << out.kind << ": " << out.message;
}

TEST(Replay, CleanBundleReportsNoReproduction)
{
    // The same job with a sane budget runs clean: replay reports it.
    ReplayBundle b;
    b.benchmark = "bzip2-like";
    b.phase = "simulate";
    b.width = 4;
    b.config = 1;
    b.seed = kRefSeeds[0];
    b.iterations = 1000;
    b.errorKind = "Hang";
    b.errorMessage = "was a hang once";

    ReplayOutcome out = replayBundle(b);
    EXPECT_FALSE(out.failed);
    EXPECT_FALSE(out.reproduced);
    EXPECT_GT(out.stats.cycles, 0u);
}

} // namespace
} // namespace vanguard
