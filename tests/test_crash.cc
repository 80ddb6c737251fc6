/**
 * @file
 * Crash-safety tests: the vanguard-journal v1 ledger (round-trip,
 * corruption tolerance, spec fingerprinting), atomic file writes, the
 * graceful-shutdown drain, checkpoint/resume bit-identity, and the
 * deterministic fault-injection storm exercising retry, isolation,
 * journaling, and resume together.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli_sweep_drill.hh"
#include "core/coordinator.hh"
#include "core/journal.hh"
#include "core/runner.hh"
#include "profile/profile_io.hh"
#include "support/atomic_file.hh"
#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/shutdown.hh"
#include "support/thread_pool.hh"
#include "workloads/suites.hh"

#include <cerrno>
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

namespace vanguard {
namespace {

BenchmarkSpec
quick(const char *name, uint64_t iters)
{
    BenchmarkSpec spec = findBenchmark(name);
    spec.iterations = iters;
    return spec;
}

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Every surviving slot of `got` must be bit-identical to `ref`. */
void
expectIdenticalResults(const SuiteReport &ref, const SuiteReport &got)
{
    ASSERT_EQ(got.results.size(), ref.results.size());
    for (size_t w = 0; w < ref.results.size(); ++w) {
        const SuiteResult &rw = ref.results[w];
        const SuiteResult &gw = got.results[w];
        ASSERT_EQ(gw.rows.size(), rw.rows.size());
        EXPECT_DOUBLE_EQ(gw.geomeanMeanPct, rw.geomeanMeanPct);
        EXPECT_DOUBLE_EQ(gw.geomeanBestPct, rw.geomeanBestPct);
        for (size_t b = 0; b < rw.rows.size(); ++b) {
            const SeedSummary &rr = rw.rows[b];
            const SeedSummary &gr = gw.rows[b];
            EXPECT_EQ(gr.failedSeeds, rr.failedSeeds);
            ASSERT_EQ(gr.perSeed.size(), rr.perSeed.size());
            EXPECT_DOUBLE_EQ(gr.meanSpeedupPct, rr.meanSpeedupPct);
            EXPECT_DOUBLE_EQ(gr.bestSpeedupPct, rr.bestSpeedupPct);
            for (size_t s = 0; s < rr.perSeed.size(); ++s) {
                EXPECT_EQ(gr.perSeed[s].base.cycles,
                          rr.perSeed[s].base.cycles);
                EXPECT_EQ(gr.perSeed[s].exp.cycles,
                          rr.perSeed[s].exp.cycles);
                EXPECT_EQ(gr.perSeed[s].base.branchStalls,
                          rr.perSeed[s].base.branchStalls);
                EXPECT_DOUBLE_EQ(gr.perSeed[s].speedupPct,
                                 rr.perSeed[s].speedupPct);
                EXPECT_DOUBLE_EQ(gr.perSeed[s].aspcb,
                                 rr.perSeed[s].aspcb);
            }
        }
    }
}

TEST(Journal, SimRecordRoundTripsWithFullStats)
{
    JournalRecord rec;
    rec.phase = 'S';
    rec.index = 17;
    rec.ok = true;
    rec.widths = {4};
    rec.lanes.resize(1);
    rec.lanes[0].cycles = 973952;
    rec.lanes[0].dynamicInsts = 647643;
    rec.lanes[0].brMispredicts = 1931;
    rec.lanes[0].halted = true;
    rec.lanes[0].branchStalls[28] = {76630, 2000};
    rec.lanes[0].branchStalls[466] = {73809, 2000};

    std::string line = serializeJournalRecord(rec);
    JournalRecord back;
    ASSERT_TRUE(parseJournalRecord(line, &back)) << line;
    EXPECT_EQ(back.phase, 'S');
    EXPECT_EQ(back.index, 17u);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.lanes.at(0).cycles, 973952u);
    EXPECT_EQ(back.lanes.at(0).dynamicInsts, 647643u);
    EXPECT_EQ(back.lanes.at(0).brMispredicts, 1931u);
    EXPECT_TRUE(back.lanes.at(0).halted);
    EXPECT_EQ(back.lanes.at(0).branchStalls, rec.lanes[0].branchStalls);
}

TEST(Journal, FailRecordRoundTripsMessageAndBundle)
{
    JournalRecord rec;
    rec.phase = 'T';
    rec.index = 3;
    rec.ok = false;
    rec.kind = SimError::Kind::Hang;
    rec.attempts = 2;
    rec.message = "cycle budget exceeded: 100% over";
    rec.bundlePath = "/tmp/b dir/x.vgr"; // space must survive

    std::string line = serializeJournalRecord(rec);
    JournalRecord back;
    ASSERT_TRUE(parseJournalRecord(line, &back)) << line;
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.kind, SimError::Kind::Hang);
    EXPECT_EQ(back.attempts, 2u);
    EXPECT_EQ(back.message, rec.message);
    EXPECT_EQ(back.bundlePath, rec.bundlePath);

    // Empty message/bundle (encoded as a lone "%") round-trips too.
    rec.message.clear();
    rec.bundlePath.clear();
    ASSERT_TRUE(
        parseJournalRecord(serializeJournalRecord(rec), &back));
    EXPECT_TRUE(back.message.empty());
    EXPECT_TRUE(back.bundlePath.empty());
}

TEST(Journal, CorruptLinesAreRejectedNotTrusted)
{
    JournalRecord rec;
    rec.phase = 'S';
    rec.index = 5;
    rec.widths = {4};
    rec.lanes.resize(1);
    rec.lanes[0].cycles = 42;
    std::string line = serializeJournalRecord(rec);

    JournalRecord out;
    // Flip one payload character: the CRC must catch it.
    std::string flipped = line;
    flipped[2] = flipped[2] == '5' ? '6' : '5';
    EXPECT_FALSE(parseJournalRecord(flipped, &out));
    // Truncation (a torn write) fails too.
    EXPECT_FALSE(
        parseJournalRecord(line.substr(0, line.size() / 2), &out));
    EXPECT_FALSE(parseJournalRecord("", &out));
    EXPECT_FALSE(parseJournalRecord("X 1 ok @00000000", &out));
}

TEST(Journal, ParseToleratesCrashDebrisAndCountsDuplicates)
{
    JournalRecord t0;
    t0.phase = 'T';
    t0.index = 0;
    JournalRecord s1;
    s1.phase = 'S';
    s1.index = 1;
    s1.widths = {4};
    s1.lanes.resize(1);
    s1.lanes[0].cycles = 10;
    JournalRecord s1b = s1;
    s1b.lanes[0].cycles = 20;

    std::string text = "vanguard-journal v1\n"
                       "spec 0123456789abcdef\n"
                       "jobs 9\n";
    text += serializeJournalRecord(t0) + "\n";
    text += serializeJournalRecord(s1) + "\n";
    text += "S 2 ok 1 2 3 gar";  // torn final line: no CRC, no \n
    text += "\n";
    text += serializeJournalRecord(s1b) + "\n"; // duplicate: last wins

    JournalContents j = parseJournal(text);
    ASSERT_TRUE(j.ok) << j.error;
    EXPECT_EQ(j.version, 1u);
    EXPECT_EQ(j.specHash, "0123456789abcdef");
    EXPECT_EQ(j.totalJobs, 9u);
    EXPECT_EQ(j.train.size(), 1u);
    EXPECT_EQ(j.sim.size(), 1u);
    EXPECT_EQ(j.sim.at(1).lanes.at(0).cycles, 20u);
    EXPECT_EQ(j.corruptLines, 1u);
    EXPECT_EQ(j.duplicates, 1u);

    // A header-only journal (crash before any record) is valid.
    JournalContents empty = parseJournal(
        "vanguard-journal v1\nspec 0123456789abcdef\njobs 9\n");
    EXPECT_TRUE(empty.ok);
    EXPECT_EQ(empty.records(), 0u);

    // No header at all is not a journal.
    EXPECT_FALSE(parseJournal("").ok);
    EXPECT_FALSE(parseJournal("some other file\n").ok);

    // An unknown future version refuses loudly, naming the version.
    try {
        parseJournal("vanguard-journal v9\nspec 0\njobs 1\n");
        FAIL() << "future journal version accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_NE(e.detail().find("v9"), std::string::npos);
    }
    // Tails that strtoul read as v2 are not versions: a sign, a space,
    // and a value that wraps through `unsigned`.
    for (const char *tail : {"v+2", "v 2", "v4294967298"}) {
        try {
            parseJournal(std::string("vanguard-journal ") + tail +
                         "\nspec 0\njobs 1\n");
            ADD_FAILURE() << tail << " accepted as a version";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Io) << tail;
            EXPECT_NE(e.detail().find(tail), std::string::npos)
                << e.detail();
        }
    }
}

/** Seal a hand-written record body with its CRC, as the writer does. */
std::string
sealed(const std::string &body)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), " @%08x", crc32(body));
    return body + buf;
}

TEST(Journal, SimRecordCarriesOneStatsLanePerWidth)
{
    JournalRecord rec;
    rec.phase = 'S';
    rec.index = 3;
    rec.widths = {2, 4, 8};
    rec.lanes.resize(3);
    for (size_t l = 0; l < 3; ++l) {
        rec.lanes[l].cycles = 1000 * (l + 1);
        rec.lanes[l].bpredCounters = {{"bpred.gshare3.lookups", 7}};
    }
    rec.lanes[2].branchStalls[5] = {9, 3};
    JournalRecord back;
    ASSERT_TRUE(parseJournalRecord(serializeJournalRecord(rec), &back));
    EXPECT_EQ(back.widths, rec.widths);
    ASSERT_EQ(back.lanes.size(), 3u);
    for (size_t l = 0; l < 3; ++l) {
        EXPECT_EQ(back.lanes[l].cycles, rec.lanes[l].cycles);
        EXPECT_EQ(back.lanes[l].bpredCounters, rec.lanes[l].bpredCounters);
        EXPECT_EQ(back.lanes[l].branchStalls, rec.lanes[l].branchStalls);
    }
}

TEST(Journal, HostileSimRecordsAreRejected)
{
    // One well-formed lane, to splice into hand-built records that
    // carry a valid CRC (so only the payload checks can refuse them).
    JournalRecord one;
    one.phase = 'S';
    one.index = 1;
    one.widths = {4};
    one.lanes.resize(1);
    std::string line = serializeJournalRecord(one);
    std::string lane = line.substr(line.find(" lane"));
    lane = lane.substr(0, lane.rfind(" @"));

    JournalRecord out;
    ASSERT_TRUE(parseJournalRecord(sealed("S 1 ok widths 1 4" + lane),
                                   &out));
    // Width-list length: zero, over the cap, or a huge lie.
    EXPECT_FALSE(parseJournalRecord(sealed("S 1 ok widths 0" + lane),
                                    &out));
    std::string many = "S 1 ok widths " +
                       std::to_string(kMaxSweepWidths + 1);
    for (size_t i = 0; i <= kMaxSweepWidths; ++i) {
        many += " 4";
    }
    for (size_t i = 0; i <= kMaxSweepWidths; ++i)
        many += lane;
    EXPECT_FALSE(parseJournalRecord(sealed(many), &out));
    EXPECT_FALSE(parseJournalRecord(
        sealed("S 1 ok widths 18446744073709551615 4" + lane), &out));
    // Width values: zero or beyond the cap.
    EXPECT_FALSE(parseJournalRecord(sealed("S 1 ok widths 1 0" + lane),
                                    &out));
    EXPECT_FALSE(parseJournalRecord(
        sealed("S 1 ok widths 1 " + std::to_string(kMaxWidthValue + 1) +
               lane),
        &out));
    // Truncated stat lists: fewer lanes than widths, a lane cut short,
    // a missing predictor section, an inflated element count.
    EXPECT_FALSE(parseJournalRecord(sealed("S 1 ok widths 2 4 8" + lane),
                                    &out));
    EXPECT_FALSE(parseJournalRecord(
        sealed("S 1 ok widths 1 4" + lane.substr(0, lane.size() / 2)),
        &out));
    EXPECT_FALSE(parseJournalRecord(
        sealed("S 1 ok widths 1 4" + lane.substr(0, lane.find(" bpred"))),
        &out));
    std::string inflated = lane;
    inflated.replace(inflated.find("stalls 0"), 8, "stalls 999999999999");
    EXPECT_FALSE(parseJournalRecord(sealed("S 1 ok widths 1 4" + inflated),
                                    &out));
    // A stray lane beyond the width list is not silently dropped.
    EXPECT_FALSE(parseJournalRecord(
        sealed("S 1 ok widths 1 4" + lane + lane), &out));
}

TEST(Journal, SpecHashPinsTheSweepDefinition)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 2000)};
    VanguardOptions opts;
    std::string base_hash = sweepSpecHash(suite, {4}, opts);
    EXPECT_EQ(base_hash.size(), 16u);
    EXPECT_EQ(base_hash, sweepSpecHash(suite, {4}, opts));

    // Any change to benchmarks, widths, iterations, or options must
    // change the fingerprint (that is what blocks a wrong resume).
    EXPECT_NE(base_hash, sweepSpecHash(suite, {2}, opts));
    EXPECT_NE(base_hash, sweepSpecHash(suite, {4, 8}, opts));
    std::vector<BenchmarkSpec> other = {quick("h264ref-like", 2001)};
    EXPECT_NE(base_hash, sweepSpecHash(other, {4}, opts));
    VanguardOptions tweaked = opts;
    tweaked.predictor = "tage";
    EXPECT_NE(base_hash, sweepSpecHash(suite, {4}, tweaked));
    // Doubles are hashed exactly: a threshold that differs only in the
    // 7th significant digit is a different sweep.
    VanguardOptions near = opts;
    near.selection.minExposed = 0.1234567;
    VanguardOptions nearer = opts;
    nearer.selection.minExposed = 0.1234568;
    EXPECT_NE(sweepSpecHash(suite, {4}, near),
              sweepSpecHash(suite, {4}, nearer));
}

TEST(AtomicFile, WritesAndReplacesWholeFiles)
{
    std::string dir = freshDir("atomic");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/f.txt";

    writeFileAtomic(path, "first\n");
    EXPECT_EQ(readFile(path), "first\n");
    writeFileAtomic(path, "second\n");
    EXPECT_EQ(readFile(path), "second\n");
    // No temp debris left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // An unwritable destination raises structured Io, not a crash.
    try {
        writeFileAtomic(dir + "/no/such/dir/f.txt", "x");
        FAIL() << "writeFileAtomic did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
    }
}

TEST(FaultPlanParse, AcceptsSpecsRejectsGarbage)
{
    FaultPlan p =
        parseFaultPlan("io:0.01,hang:0.005,fault:0.002,seed=42");
    EXPECT_DOUBLE_EQ(p.rateFor(SimError::Kind::Io), 0.01);
    EXPECT_DOUBLE_EQ(p.rateFor(SimError::Kind::Hang), 0.005);
    EXPECT_DOUBLE_EQ(p.rateFor(SimError::Kind::Fault), 0.002);
    EXPECT_EQ(p.seed, 42u);
    EXPECT_TRUE(p.any());

    // The --inject long form with a "faults=" prefix parses the same.
    FaultPlan q = parseFaultPlan("faults=io:0.5,seed=7");
    EXPECT_DOUBLE_EQ(q.rateFor(SimError::Kind::Io), 0.5);
    EXPECT_EQ(q.seed, 7u);

    EXPECT_THROW(parseFaultPlan(""), SimError);
    EXPECT_THROW(parseFaultPlan("bogus:0.1"), SimError);
    EXPECT_THROW(parseFaultPlan("io:1.5"), SimError);
    EXPECT_THROW(parseFaultPlan("hang:abc"), SimError);
    EXPECT_THROW(parseFaultPlan("io"), SimError);
}

TEST(FaultInject, DrawsAreDeterministicPerScope)
{
    FaultPlan plan;
    plan.rateFor(SimError::Kind::Hang) = 0.25;
    plan.seed = 99;
    faultinject::arm(plan);

    // Record which of 64 draws fire inside a fixed scope; the exact
    // pattern must repeat run after run (and differ across scopes).
    auto pattern = [](uint64_t scope_key) {
        std::vector<bool> fired;
        faultinject::Scope s(scope_key);
        for (int i = 0; i < 64; ++i) {
            try {
                faultinject::site("test.site", SimError::Kind::Hang);
                fired.push_back(false);
            } catch (const SimError &e) {
                EXPECT_EQ(e.kind(), SimError::Kind::Hang);
                fired.push_back(true);
            }
        }
        return fired;
    };
    std::vector<bool> a1 = pattern(0xabc);
    std::vector<bool> a2 = pattern(0xabc);
    std::vector<bool> b = pattern(0xdef);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_GT(faultinject::injectedCount(SimError::Kind::Hang), 0u);

    // Disarmed, the same sites are silent no-ops.
    faultinject::disarm();
    faultinject::Scope s(0xabc);
    for (int i = 0; i < 64; ++i) {
        EXPECT_NO_THROW(
            faultinject::site("test.site", SimError::Kind::Hang));
    }
}

TEST(Shutdown, DrainDiscardsQueuedJobsButFinishesInFlight)
{
    clearShutdownRequest();
    EXPECT_FALSE(shutdownRequested());
    requestShutdown(SIGINT);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGINT);

    // With the drain flag already up, a pool discards every queued
    // job but wait() still completes (nothing wedges).
    ThreadPool pool(2, [] { return shutdownRequested(); });
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 0);

    clearShutdownRequest();
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 16);
}

TEST(Shutdown, SpawnedWorkersDrainUnderShutdownLeaveNoZombies)
{
    // The process-isolation twin of the drain test: with the drain
    // flag already latched (as a SIGTERM handler would leave it), a
    // coordinator's spawned workers still shut down cleanly — DRAIN +
    // one SIGTERM per live worker, bounded reap — and no child
    // outlives it, running or zombie.
    clearShutdownRequest();
    requestShutdown(SIGTERM);
    std::vector<int> pids;
    {
        Coordinator::Options o;
        o.workers = 2;
        o.execPath = VANGUARD_CLI_BIN;
        Coordinator fabric(o);
        pids = fabric.workerPids();
        EXPECT_EQ(pids.size(), 2u);
    } // destructor drains
    for (int pid : pids) {
        EXPECT_EQ(::kill(pid, 0), -1)
            << "worker " << pid << " survived the drain";
        EXPECT_EQ(errno, ESRCH);
    }
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a zombie outlived the pool";
    clearShutdownRequest();
}

TEST(CheckpointResume, InterruptedSweepResumesBitIdentical)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 1200),
                                        quick("bzip2-like", 1200)};
    std::vector<unsigned> widths = {4};
    VanguardOptions opts;

    RunnerOptions clean;
    clean.jobs = 4;
    SuiteReport ref = runSuiteWidthsReport(suite, widths, opts, clean);
    ASSERT_TRUE(ref.failures.empty());

    // Interrupt mid-simulate: the third simulation job to *start*
    // requests a drain, exactly as a signal handler would.
    std::string dir = freshDir("ckpt-interrupt");
    clearShutdownRequest();
    std::atomic<int> sims_started{0};
    RunnerOptions interrupted = clean;
    interrupted.checkpointDir = dir;
    interrupted.faultInjection = [&sims_started](const JobIdentity &id) {
        if (std::string(id.phase) == "simulate" &&
            sims_started.fetch_add(1) == 2)
            requestShutdown(SIGTERM);
    };
    SuiteReport cut =
        runSuiteWidthsReport(suite, widths, opts, interrupted);
    EXPECT_TRUE(cut.interrupted);
    EXPECT_TRUE(cut.results.empty()); // nothing assembled
    EXPECT_TRUE(shutdownRequested());

    // The journal holds the completed jobs — and not all of them.
    JournalContents j = loadJournalFile(dir + "/journal.vgj");
    ASSERT_TRUE(j.ok) << j.error;
    EXPECT_EQ(j.train.size(), suite.size());
    EXPECT_GT(j.records(), 0u);
    EXPECT_LT(j.records(), cut.totalJobs);
    EXPECT_EQ(j.duplicates, 0u);
    EXPECT_EQ(j.corruptLines, 0u);

    // Resume (at a different worker count, for good measure): replays
    // the journaled slots, runs the rest, and the assembled report is
    // bit-identical to the uninterrupted reference.
    clearShutdownRequest();
    RunnerOptions resume = clean;
    resume.jobs = 2;
    resume.checkpointDir = dir;
    resume.resume = true;
    SuiteReport got = runSuiteWidthsReport(suite, widths, opts, resume);
    EXPECT_FALSE(got.interrupted);
    EXPECT_TRUE(got.failures.empty());
    EXPECT_GT(got.replayedJobs, 0u);
    EXPECT_LT(got.replayedJobs, got.totalJobs);
    expectIdenticalResults(ref, got);

    // After the resume the journal is complete with no duplicates.
    JournalContents done = loadJournalFile(dir + "/journal.vgj");
    ASSERT_TRUE(done.ok);
    EXPECT_EQ(done.records(), done.totalJobs);
    EXPECT_EQ(done.duplicates, 0u);

    // A second resume replays everything and re-runs nothing.
    SuiteReport again =
        runSuiteWidthsReport(suite, widths, opts, resume);
    EXPECT_EQ(again.replayedJobs, again.totalJobs);
    expectIdenticalResults(ref, again);
}

/**
 * A drain stops between seed jobs: each (benchmark, width, config,
 * seed) is its own pool work item, so once the first simulation
 * requests shutdown only the items already in flight — at most one per
 * worker — finish and checkpoint. The bound is deterministic: no
 * simulation can complete before the drain flag is set. With two
 * workers it is also tighter than one (benchmark, width, config)
 * group's kNumRefSeeds seeds, so a drain that waits for a whole group
 * fails it every time.
 */
TEST(CheckpointResume, DrainStopsBetweenSeedJobs)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 1200),
                                        quick("bzip2-like", 1200)};
    VanguardOptions opts;
    for (unsigned jobs : {2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::string dir = freshDir("ckpt-drain-granularity");
        clearShutdownRequest();
        std::atomic<int> sims_started{0};
        RunnerOptions ropts;
        ropts.jobs = jobs;
        ropts.checkpointDir = dir;
        ropts.faultInjection = [&sims_started](const JobIdentity &id) {
            if (std::string(id.phase) == "simulate" &&
                sims_started.fetch_add(1) == 0)
                requestShutdown(SIGTERM);
        };
        SuiteReport cut =
            runSuiteWidthsReport(suite, {2, 4, 8}, opts, ropts);
        EXPECT_TRUE(cut.interrupted);

        // 2 benchmarks x 2 configs x 3 seeds = 12 fused seed jobs,
        // each timing all three widths in one pass.
        JournalContents j = loadJournalFile(dir + "/journal.vgj");
        ASSERT_TRUE(j.ok) << j.error;
        EXPECT_GT(j.sim.size(), 0u);
        EXPECT_LE(j.sim.size(), size_t{jobs});
        for (const auto &[index, rec] : j.sim) {
            EXPECT_EQ(rec.widths, (std::vector<unsigned>{2, 4, 8}));
            EXPECT_EQ(rec.lanes.size(), 3u);
        }
        EXPECT_LT(j.records(), cut.totalJobs);
        EXPECT_EQ(j.duplicates, 0u);
    }
    clearShutdownRequest();
}

TEST(CheckpointResume, ResumeValidatesJournalAndSpec)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 900)};
    VanguardOptions opts;

    // Resuming from a directory with no journal refuses.
    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.checkpointDir = freshDir("ckpt-none");
    ropts.resume = true;
    try {
        runSuiteWidthsReport(suite, {4}, opts, ropts);
        FAIL() << "resume without a journal succeeded";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
    }

    // A journal written by a different sweep spec refuses too.
    std::string dir = freshDir("ckpt-spec");
    RunnerOptions write = ropts;
    write.checkpointDir = dir;
    write.resume = false;
    SuiteReport first = runSuiteWidthsReport(suite, {4}, opts, write);
    ASSERT_TRUE(first.failures.empty());

    std::vector<BenchmarkSpec> other = {quick("h264ref-like", 901)};
    RunnerOptions bad = write;
    bad.resume = true;
    try {
        runSuiteWidthsReport(other, {4}, opts, bad);
        FAIL() << "resume across different sweeps succeeded";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_NE(e.detail().find("refusing"), std::string::npos);
    }
}

TEST(CheckpointResume, OlderJournalVersionIsRefusedNotReplayed)
{
    // A v2 journal indexes simulate records per (benchmark, width,
    // config, seed); replaying it into the fused layout would put
    // stats in the wrong slots. Even with this sweep's own spec hash,
    // resume must refuse it — and leave it untouched.
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 900)};
    std::vector<unsigned> widths = {2, 4};
    VanguardOptions opts;
    std::string dir = freshDir("ckpt-v2");
    std::string v2 = "vanguard-journal v2\nspec " +
                     sweepSpecHash(suite, widths, opts) + "\njobs 27\n" +
                     sealed("T 0 ok") + "\n" +
                     sealed("S 0 ok 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 "
                            "17 18 19 20 21 22 23 1 0 stalls 0") +
                     "\n";
    std::filesystem::create_directories(dir);
    writeFileAtomic(dir + "/journal.vgj", v2);

    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.checkpointDir = dir;
    ropts.resume = true;
    try {
        runSuiteWidthsReport(suite, widths, opts, ropts);
        FAIL() << "resumed from a v2 journal";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_NE(e.detail().find("v2 journal"), std::string::npos)
            << e.detail();
    }
    EXPECT_EQ(readFile(dir + "/journal.vgj"), v2);
}

TEST(CheckpointResume, RottedProfileCheckpointFallsBackToRetrain)
{
    std::vector<BenchmarkSpec> suite = {quick("bzip2-like", 900)};
    VanguardOptions opts;
    std::string dir = freshDir("ckpt-rot");

    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.checkpointDir = dir;
    SuiteReport ref = runSuiteWidthsReport(suite, {4}, opts, ropts);
    ASSERT_TRUE(ref.failures.empty());

    // Corrupt the TRAIN profile checkpoint; the journal still says ok.
    std::ofstream(dir + "/train-bzip2-like.vgp")
        << "not a profile\n";

    RunnerOptions resume = ropts;
    resume.resume = true;
    SuiteReport got = runSuiteWidthsReport(suite, {4}, opts, resume);
    EXPECT_TRUE(got.failures.empty());
    expectIdenticalResults(ref, got);

    // The retrain healed the checkpoint for the next resume.
    ProfileParseResult healed =
        deserializeProfile(readFile(dir + "/train-bzip2-like.vgp"));
    EXPECT_TRUE(healed.ok);
}

TEST(FaultStorm, DeterministicPartialResultsAndCleanResume)
{
    // A reproducible fault storm across three error kinds: transient
    // Io at job boundaries (exercising retry), Hang in the functional
    // interpreter and the timing model, Fault at commit. The sweep
    // must complete with correct partial results, identically on
    // every run at any worker count, and the journal must resume
    // cleanly once the storm stops.
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 1200),
                                        quick("bzip2-like", 1200),
                                        quick("gobmk-like", 1200)};
    std::vector<unsigned> widths = {4};
    VanguardOptions opts;

    RunnerOptions clean;
    clean.jobs = 4;
    SuiteReport ref = runSuiteWidthsReport(suite, widths, opts, clean);
    ASSERT_TRUE(ref.failures.empty());

    FaultPlan plan = parseFaultPlan(
        "io:0.25,hang:0.0015,fault:0.0015,seed=7");

    auto storm = [&](unsigned jobs, const std::string &dir) {
        faultinject::arm(plan);
        RunnerOptions ropts;
        ropts.jobs = jobs;
        ropts.checkpointDir = dir;
        SuiteReport r = runSuiteWidthsReport(suite, widths, opts,
                                             ropts);
        faultinject::disarm();
        return r;
    };
    std::string dir1 = freshDir("storm-1");
    SuiteReport s1 = storm(4, dir1);
    SuiteReport s2 = storm(2, freshDir("storm-2"));

    // The storm actually exercised all three armed kinds.
    EXPECT_GT(faultinject::injectedCount(SimError::Kind::Io), 0u);
    EXPECT_GT(faultinject::injectedCount(SimError::Kind::Hang), 0u);
    EXPECT_GT(faultinject::injectedCount(SimError::Kind::Fault), 0u);

    // Some jobs failed; some survived; every failure is one of the
    // injected kinds and every message names its site.
    EXPECT_FALSE(s1.failures.empty());
    bool any_survivor = false;
    for (const SeedSummary &row : s1.results[0].rows)
        any_survivor |= !row.perSeed.empty();
    EXPECT_TRUE(any_survivor) << renderFailureTable(s1.failures);
    for (const JobFailure &f : s1.failures) {
        EXPECT_TRUE(f.kind == SimError::Kind::Io ||
                    f.kind == SimError::Kind::Hang ||
                    f.kind == SimError::Kind::Fault)
            << SimError::kindName(f.kind);
        EXPECT_NE(f.message.find("injected"), std::string::npos);
    }

    // Bit-identical storms at different worker counts: same failures
    // (identity, kind, attempts), same surviving results.
    ASSERT_EQ(s1.failures.size(), s2.failures.size());
    for (size_t i = 0; i < s1.failures.size(); ++i) {
        EXPECT_EQ(s1.failures[i].id.index, s2.failures[i].id.index);
        EXPECT_EQ(std::string(s1.failures[i].id.phase),
                  std::string(s2.failures[i].id.phase));
        EXPECT_EQ(s1.failures[i].kind, s2.failures[i].kind);
        EXPECT_EQ(s1.failures[i].attempts, s2.failures[i].attempts);
        EXPECT_EQ(s1.failures[i].message, s2.failures[i].message);
    }
    expectIdenticalResults(s1, s2);

    // Surviving slots are bit-identical to the storm-free reference.
    for (size_t b = 0; b < suite.size(); ++b) {
        const SeedSummary &rr = ref.results[0].rows[b];
        const SeedSummary &sr = s1.results[0].rows[b];
        for (const BenchmarkOutcome &o : sr.perSeed) {
            bool matched = false;
            for (const BenchmarkOutcome &c : rr.perSeed) {
                matched |= o.base.cycles == c.base.cycles &&
                           o.exp.cycles == c.exp.cycles;
            }
            EXPECT_TRUE(matched) << suite[b].name;
        }
    }

    // Storm over: resume the journal with the injector disarmed. The
    // run completes; journaled failures replay verbatim (they are
    // deterministic facts about the storm run), missing slots re-run
    // clean, and nothing new fails.
    JournalContents j = loadJournalFile(dir1 + "/journal.vgj");
    ASSERT_TRUE(j.ok) << j.error;
    RunnerOptions resume;
    resume.jobs = 4;
    resume.checkpointDir = dir1;
    resume.resume = true;
    SuiteReport healed =
        runSuiteWidthsReport(suite, widths, opts, resume);
    EXPECT_FALSE(healed.interrupted);
    EXPECT_LE(healed.failures.size(), s1.failures.size());
    for (const JobFailure &f : healed.failures)
        EXPECT_NE(f.message.find("injected"), std::string::npos);
    // Whatever survived the storm (or was healed by the re-run) is
    // bit-identical to the reference in every surviving slot.
    for (size_t b = 0; b < suite.size(); ++b) {
        const SeedSummary &rr = ref.results[0].rows[b];
        const SeedSummary &hr = healed.results[0].rows[b];
        for (const BenchmarkOutcome &o : hr.perSeed) {
            bool matched = false;
            for (const BenchmarkOutcome &c : rr.perSeed) {
                matched |= o.base.cycles == c.base.cycles &&
                           o.exp.cycles == c.exp.cycles;
            }
            EXPECT_TRUE(matched) << suite[b].name;
        }
    }
}

/**
 * A replay bundle is the failed job's worker frame, so the in-process
 * pool and spawned workers write the same bytes for the same failing
 * sweep, and `vanguard_cli --replay` reproduces the failure from it.
 */
TEST(ReplayCli, BundlesMatchAcrossModesAndReproduce)
{
    std::string dir = freshDir("replay-modes");
    std::filesystem::create_directories(dir);
    std::map<std::string, std::string> bundles[2];
    for (int isolated = 0; isolated < 2; ++isolated) {
        std::string vgr = dir + (isolated ? "/isolated" : "/inproc");
        std::vector<std::string> args = {
            "--benchmark", "bzip2-like", "--iterations", "3000",
            "--all-refs", "--jobs", "2", "--cycle-budget", "2000",
            "--replay-dir", vgr};
        if (isolated)
            args.push_back("--isolate-jobs");
        // Every simulate job hangs: more failures than the default
        // threshold of zero.
        EXPECT_EQ(drill::runToCompletion(args, dir + "/sweep.out",
                                         dir + "/sweep.err"),
                  3)
            << readFile(dir + "/sweep.err");
        for (const auto &e : std::filesystem::directory_iterator(vgr)) {
            if (e.path().extension() == ".vgr")
                bundles[isolated][e.path().filename()] =
                    readFile(e.path());
        }
    }
    ASSERT_EQ(bundles[0].size(), kNumRefSeeds * 2);
    for (const auto &[name, text] : bundles[0])
        EXPECT_EQ(text, bundles[1][name]) << name;
    EXPECT_EQ(bundles[1].size(), bundles[0].size());

    std::string bundle = dir + "/isolated/" + bundles[1].begin()->first;
    EXPECT_EQ(drill::runToCompletion({"--replay", bundle},
                                     dir + "/replay.out",
                                     dir + "/replay.err"),
              0)
        << readFile(dir + "/replay.err");
    EXPECT_NE(readFile(dir + "/replay.out").find("REPRODUCED"),
              std::string::npos)
        << readFile(dir + "/replay.out");
}

/** The drills' launcher refuses to run the CLI when it cannot capture
 *  its output, rather than letting the output spill into the test's. */
TEST(ReplayCli, DrillLaunchFailsLoudlyWithoutItsOutputDirectory)
{
    std::string dir = freshDir("launch-missing");
    EXPECT_EQ(drill::runToCompletion({"--benchmark", "mcf-like"},
                                     dir + "/stdout"),
              126);
    std::filesystem::create_directories(dir);
    EXPECT_EQ(drill::runToCompletion({"--benchmark", "mcf-like"},
                                     dir + "/stdout",
                                     dir + "/missing/stderr"),
              126);
    EXPECT_EQ(readFile(dir + "/stdout"), "");
}

} // namespace
} // namespace vanguard
