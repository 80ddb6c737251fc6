/**
 * @file
 * Worker-pool unit tests (tier1): the ipc frame codec (round-trip,
 * torn frames, CRC corruption, oversize refusal), the worker job /
 * result body codecs with exact hexfloat numeric round-trips, the
 * supervision arithmetic (heartbeat interval, backoff schedule,
 * kill/heartbeat scope keys), and the deterministic worker fault
 * sites. Everything here is in-process — the end-to-end kill drills
 * live in test_worker_kill.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/coordinator.hh"
#include "core/journal.hh"
#include "core/worker_pool.hh"
#include "profile/profile_io.hh"
#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/ipc.hh"
#include "workloads/suites.hh"

#include <unistd.h>

namespace vanguard {
namespace {

/** A connected socketpair that closes both ends on scope exit. */
struct PairFds
{
    int fds[2] = {-1, -1};
    PairFds() { ipc::makeSocketPair(fds); }
    ~PairFds()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
};

TEST(IpcFrame, RoundTripsBinaryAndEmptyPayloads)
{
    PairFds p;
    std::string binary("\x00\x01\xff\n\r\x7f frame", 12);
    ipc::writeFrame(p.fds[0], ipc::kFrameLease, binary);
    ipc::writeFrame(p.fds[0], ipc::kFrameHeartbeat, "");

    ipc::FrameChannel chan(p.fds[1]);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 1000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameLease);
    EXPECT_EQ(f.body, binary);
    ASSERT_EQ(chan.read(&f, 1000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameHeartbeat);
    EXPECT_TRUE(f.body.empty());

    // Nothing queued: the deadline expires as Timeout, not an error.
    EXPECT_EQ(chan.read(&f, 10), ipc::ReadStatus::Timeout);
}

TEST(IpcFrame, TornFrameThenPeerCloseIsEof)
{
    PairFds p;
    // Hand-build a valid frame, then send only half of it and close:
    // a worker killed mid-write. The reader must report Eof, never a
    // partial frame.
    std::string payload = "Jhello";
    uint32_t len = static_cast<uint32_t>(payload.size());
    uint32_t crc = crc32(payload);
    std::string wire;
    for (int i = 0; i < 4; ++i)
        wire += static_cast<char>((len >> (8 * i)) & 0xff);
    for (int i = 0; i < 4; ++i)
        wire += static_cast<char>((crc >> (8 * i)) & 0xff);
    wire += payload;

    ASSERT_EQ(::write(p.fds[0], wire.data(), wire.size() / 2),
              static_cast<ssize_t>(wire.size() / 2));
    ::close(p.fds[0]);
    p.fds[0] = -1;

    ipc::FrameChannel chan(p.fds[1]);
    ipc::Frame f;
    EXPECT_EQ(chan.read(&f, 1000), ipc::ReadStatus::Eof);
}

TEST(IpcFrame, CrcCorruptionAndOversizeAreLoudIoErrors)
{
    {
        PairFds p;
        std::string payload = "Jpayload";
        uint32_t len = static_cast<uint32_t>(payload.size());
        uint32_t crc = crc32(payload) ^ 1; // one bit off
        std::string wire;
        for (int i = 0; i < 4; ++i)
            wire += static_cast<char>((len >> (8 * i)) & 0xff);
        for (int i = 0; i < 4; ++i)
            wire += static_cast<char>((crc >> (8 * i)) & 0xff);
        wire += payload;
        ASSERT_EQ(::write(p.fds[0], wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));

        ipc::FrameChannel chan(p.fds[1]);
        ipc::Frame f;
        try {
            chan.read(&f, 1000);
            FAIL() << "CRC mismatch accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Io);
        }
    }
    {
        PairFds p;
        // A length prefix past kMaxFramePayload is desync: refuse
        // before buffering gigabytes.
        uint32_t len = ipc::kMaxFramePayload + 1;
        std::string wire;
        for (int i = 0; i < 4; ++i)
            wire += static_cast<char>((len >> (8 * i)) & 0xff);
        wire += std::string(4, '\0');
        ASSERT_EQ(::write(p.fds[0], wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));

        ipc::FrameChannel chan(p.fds[1]);
        ipc::Frame f;
        try {
            chan.read(&f, 1000);
            FAIL() << "oversize frame accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Io);
        }
    }
}

TEST(WorkerSupervision, HeartbeatIntervalIsQuarterDeadline)
{
    EXPECT_EQ(heartbeatIntervalMs(10000), 2500u);
    EXPECT_EQ(heartbeatIntervalMs(400), 100u);
    // Degenerate deadlines still beat (never a zero interval).
    EXPECT_EQ(heartbeatIntervalMs(3), 1u);
    EXPECT_EQ(heartbeatIntervalMs(0), 1u);
}

TEST(WorkerSupervision, BackoffDoublesFromBaseAndClampsAtCap)
{
    BackoffPolicy b;
    b.baseMs = 25;
    b.capMs = 1000;
    EXPECT_EQ(b.delayMs(0), 0u); // first spawn is free
    EXPECT_EQ(b.delayMs(1), 25u);
    EXPECT_EQ(b.delayMs(2), 50u);
    EXPECT_EQ(b.delayMs(3), 100u);
    EXPECT_EQ(b.delayMs(6), 800u);
    EXPECT_EQ(b.delayMs(7), 1000u);
    EXPECT_EQ(b.delayMs(100), 1000u); // huge counts cannot overflow
    // Deterministic: same inputs, same schedule.
    for (unsigned n = 0; n < 32; ++n)
        EXPECT_EQ(b.delayMs(n), b.delayMs(n));
}

TEST(WorkerSupervision, KillAndHeartbeatScopesAreStableAndDistinct)
{
    // The scope keys are part of the determinism contract: a fault
    // plan replays identically across runs and worker counts because
    // these are pure functions. Pin exact values so an accidental
    // hash change shows up as a test diff, not a silent repro break.
    EXPECT_EQ(workerKillScope(0, 0), workerKillScope(0, 0));
    EXPECT_NE(workerKillScope(0xabc, 0), workerKillScope(0xabc, 1));
    EXPECT_NE(workerKillScope(0xabc, 0), workerKillScope(0xabd, 0));
    EXPECT_NE(workerHeartbeatScope(0xabc), workerKillScope(0xabc, 0));
    uint64_t pinned = workerKillScope(0x1234, 2);
    EXPECT_EQ(pinned, workerKillScope(0x1234, 2));
}

TEST(WorkerCodec, JobRoundTripsEverySpecOptionAndScopeField)
{
    WorkerJob j;
    j.phase = "simulate";
    j.slot = 41;
    j.scopeKey = 0xdeadbeefcafe1234ull;
    j.scopeStartDraw = 7;
    j.delivery = 2;
    j.config = 0;
    j.seed = 0xfeedface01ull;
    j.collectStalls = true;
    j.widths = {2, 8, 4};
    j.profileText = std::string("vanguard-profile\n\x00\x01raw", 21);

    j.spec = findBenchmark("gcc-like");
    j.spec.iterations = 12345;
    j.spec.noisePU = 1.0 / 3.0;       // not exactly representable in
    j.spec.takenPU = 0.1;             // decimal: hexfloat must carry
    j.specName = j.spec.name;         // them bit-exactly
    j.bindSpecName();

    j.options.width = 8;
    j.options.predictor = "tage";
    j.options.applyDecomposition = false;
    j.options.selection.minExposed = 2.0 / 7.0;
    j.options.selection.minPredictability = 0.3;
    j.options.superblock.biasThreshold = 0.99999999999999989;
    j.options.simCycleBudget = 987654321;

    WorkerJob back;
    std::string err;
    ASSERT_TRUE(parseWorkerJob(serializeWorkerJob(j), &back, &err))
        << err;

    EXPECT_EQ(back.phase, j.phase);
    EXPECT_EQ(back.slot, j.slot);
    EXPECT_EQ(back.scopeKey, j.scopeKey);
    EXPECT_EQ(back.scopeStartDraw, j.scopeStartDraw);
    EXPECT_EQ(back.delivery, j.delivery);
    EXPECT_EQ(back.config, j.config);
    EXPECT_EQ(back.seed, j.seed);
    EXPECT_EQ(back.collectStalls, j.collectStalls);
    EXPECT_EQ(back.widths, j.widths);
    EXPECT_EQ(back.profileText, j.profileText);

    ASSERT_NE(back.spec.name, nullptr);
    EXPECT_STREQ(back.spec.name, j.spec.name);
    EXPECT_EQ(back.spec.fp, j.spec.fp);
    EXPECT_EQ(back.spec.hammocksPU, j.spec.hammocksPU);
    EXPECT_EQ(back.spec.hammocksBP, j.spec.hammocksBP);
    EXPECT_EQ(back.spec.hammocksUP, j.spec.hammocksUP);
    EXPECT_EQ(back.spec.loadsPerSucc, j.spec.loadsPerSucc);
    EXPECT_EQ(back.spec.chainedSuccLoads, j.spec.chainedSuccLoads);
    EXPECT_EQ(back.spec.aluPerSucc, j.spec.aluPerSucc);
    EXPECT_EQ(back.spec.fpPerSucc, j.spec.fpPerSucc);
    EXPECT_EQ(back.spec.storesPerSucc, j.spec.storesPerSucc);
    EXPECT_EQ(back.spec.workingSetKB, j.spec.workingSetKB);
    EXPECT_EQ(back.spec.strideLines, j.spec.strideLines);
    EXPECT_EQ(back.spec.storesEarly, j.spec.storesEarly);
    EXPECT_EQ(back.spec.condChainOps, j.spec.condChainOps);
    EXPECT_EQ(back.spec.coldBlocks, j.spec.coldBlocks);
    EXPECT_EQ(back.spec.coldBlockInsts, j.spec.coldBlockInsts);
    EXPECT_EQ(back.spec.coldPeriod, j.spec.coldPeriod);
    EXPECT_EQ(back.spec.iterations, j.spec.iterations);
    // Bit-exact, not approximately equal: the whole point of the
    // hexfloat encoding.
    EXPECT_EQ(std::memcmp(&back.spec.noisePU, &j.spec.noisePU, 8), 0);
    EXPECT_EQ(std::memcmp(&back.spec.takenPU, &j.spec.takenPU, 8), 0);

    EXPECT_EQ(back.options.width, j.options.width);
    EXPECT_EQ(back.options.predictor, j.options.predictor);
    EXPECT_EQ(back.options.applyDecomposition,
              j.options.applyDecomposition);
    EXPECT_EQ(back.options.simCycleBudget, j.options.simCycleBudget);
    EXPECT_EQ(std::memcmp(&back.options.selection.minExposed,
                          &j.options.selection.minExposed, 8), 0);
    EXPECT_EQ(std::memcmp(&back.options.selection.minPredictability,
                          &j.options.selection.minPredictability, 8),
              0);
    EXPECT_EQ(std::memcmp(&back.options.superblock.biasThreshold,
                          &j.options.superblock.biasThreshold, 8), 0);
}

TEST(WorkerCodec, JobParseRejectsGarbage)
{
    WorkerJob out;
    std::string err;
    EXPECT_FALSE(parseWorkerJob("", &out, &err));
    EXPECT_FALSE(parseWorkerJob("not a job\n", &out, &err));
    // A future version is refused loudly at the header, by name (a
    // version-skewed worker binary must not limp along).
    try {
        parseWorkerJob("vanguard-workerjob v9\n", &out, &err);
        FAIL() << "future workerjob version accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_NE(e.detail().find("v9"), std::string::npos);
    }
    // An unknown top-level key is a desync, not silently dropped.
    EXPECT_FALSE(parseWorkerJob(
        "vanguard-workerjob v1\nphase train\nbogus 1\n", &out, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    // A phase outside the taxonomy is refused.
    EXPECT_FALSE(parseWorkerJob(
        "vanguard-workerjob v1\nphase assemble\n", &out, &err));
    // A blob whose declared length overruns the body is torn.
    EXPECT_FALSE(parseWorkerJob(
        "vanguard-workerjob v1\nphase train\nblob profile 99\nxx",
        &out, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos);
    // An `opt` line is as strict as a top-level key: an unknown name
    // (a retired key among them) or a value that is not one whole
    // token of its type fails, naming the key. So does every line of
    // a result body and of the lease-protocol bodies.
    const std::string head = "vanguard-workerjob v2\nphase train\n";
    const std::string result = "vanguard-workerresult v2\n";
    ASSERT_TRUE(parseWorkerJob(head + "opt dbb-entries 8\n", &out, &err))
        << err;
    EXPECT_EQ(out.options.dbbEntries, 8u);
    auto parses = [](const std::string &body, std::string *e) {
        if (body.rfind("vanguard-workerjob ", 0) == 0) {
            WorkerJob j;
            return parseWorkerJob(body, &j, e);
        }
        if (body.rfind("vanguard-workerresult ", 0) == 0) {
            WorkerResult r;
            return parseWorkerResult(body, &r, e);
        }
        FabricBody f;
        const size_t dash = body.find('-') + 1;
        return parseFabricBody(body, body.substr(dash, body.find(' ') - dash),
                               &f, e);
    };
    for (const auto &[prefix, line, key] :
         std::vector<std::tuple<std::string, std::string, std::string>>{
             {head, "opt no-such-opt 1", "no-such-opt"},
             {head, "opt no-threaded-dispatch 1", "no-threaded-dispatch"},
             {head, "opt sel-min-exposed garbage", "sel-min-exposed"},
             {head, "opt sel-min-exposed 0.5x", "sel-min-exposed"},
             {head, "opt dbb-entries -3", "dbb-entries"},
             {head, "opt dbb-entries x", "dbb-entries"},
             {head, "opt dbb-entries", "dbb-entries"},
             {head, "opt width 4 4", "width"},
             {head, "opt superblock 2", "superblock"},
             {head, "opt sim-max-insts 12k", "sim-max-insts"},
             // Every other line is as strict as an `opt` line.
             {head, "config other", "config"},
             {head, "config exp exp", "config"},
             {head, "seed 12", "seed"},
             {head, "seed 0xzz", "seed"},
             {head, "scope 0x1 2", "scope"},
             {head, "slot -1", "slot"},
             {head, "slot 3x", "slot"},
             {head, "delivery x", "delivery"},
             {head, "scope-start-draw 1.5", "scope-start-draw"},
             {head, "collect-stalls 2", "collect-stalls"},
             {head, "phase", "phase"},
             {head, "blob notes 3", "blob"},
             {head, "spec fp 7", "fp"},
             {head, "spec hammocks 1 2", "hammocks"},
             {head, "spec hammocks 1 2 3 4", "hammocks"},
             {head, "spec noise-pu abc", "noise-pu"},
             {head, "spec iterations -5", "iterations"},
             {head, "spec name", "name"},
             {head, "spec colour 3", "colour"},
             // Result bodies.
             {result, "slot -1", "slot"},
             {result, "slot 3x", "slot"},
             {result, "slot 99999999999999999999999", "slot"},
             {result, "status maybe", "status"},
             {result, "status ok ok", "status"},
             {result, "injected 1 2", "injected"},
             {result, "injected 0 0 0 0 0 0 x", "injected"},
             {result, "kind Bogus", "kind"},
             {result, "kind", "kind"},
             {result, "blob notes 3", "blob"},
             {result, "colour 3", "colour"},
             // Lease-protocol bodies: numbers are whole unsigned tokens
             // (no wrapped "-1", no cut-short "12abc"), each key once,
             // and v1's constant fields are unknown keys now.
             {"vanguard-renew v3\n", "lease -1", "lease"},
             {"vanguard-renew v3\n", "lease 12abc", "lease"},
             {"vanguard-renew v3\n", "lease 99999999999999999999",
              "lease"},
             {"vanguard-renew v3\nlease 1\n", "lease 2", "lease"},
             {"vanguard-renew v3\n", "colour 3", "colour"},
             {"vanguard-workerconfig v3\n", "lease-ms abc", "lease-ms"},
             {"vanguard-workerconfig v3\n", "heartbeat-ms 400",
              "heartbeat-ms"},
             {"vanguard-lease v3\n", "lease-ms 400", "lease-ms"},
             {"vanguard-lease v3\n", "blob notes 3", "blob"},
             {"vanguard-ack v3\n", "lease", "lease"},
             {"vanguard-remote v3\n", "pid 12 13", "pid"}}) {
        err.clear();
        EXPECT_FALSE(parses(prefix + line + "\n", &err)) << line;
        EXPECT_NE(err.find("'" + key + "'"), std::string::npos)
            << line << ": " << err;
    }
    // A lease-protocol body must carry each of its keys and blobs, and
    // speak this build's version: an older or newer peer is refused
    // by name.
    for (const auto &[body, kind, named] :
         std::vector<std::tuple<std::string, std::string, std::string>>{
             {"vanguard-renew v3\n", "renew", "'lease'"},
             {"vanguard-lease v3\nlease 3\n", "lease", "'job'"},
             {"vanguard-refused v3\n", "refused", "'reason'"},
             {"vanguard-lease v1\nlease 3\n", "lease", "'v1'"},
             {"vanguard-lease v2\nlease 3\n", "lease", "'v2'"},
             {"vanguard-lease v4\nlease 3\n", "lease", "v4"},
             {"vanguard-claim v3\n", "lease", "vanguard-lease"}}) {
        FabricBody f;
        err.clear();
        EXPECT_FALSE(parseFabricBody(body, kind, &f, &err)) << body;
        EXPECT_NE(err.find(named), std::string::npos) << body << err;
    }
    {
        FabricBody f;
        ASSERT_TRUE(parseFabricBody("vanguard-workerconfig v3\n"
                                    "lease-ms 400\n"
                                    "blob fault-plan 0\n\n"
                                    "blob net-fault-plan 3\nabc\n",
                                    "workerconfig", &f, &err))
            << err;
        EXPECT_EQ(f.num("lease-ms"), 400u);
        EXPECT_EQ(f.blobs["fault-plan"], "");
        EXPECT_EQ(f.blobs["net-fault-plan"], "abc");
    }
    // The control: the same keys with well-formed values parse.
    WorkerJob j;
    ASSERT_TRUE(parseWorkerJob(head +
                                   "config base\nseed 0xbef1\nscope 0x0\n"
                                   "slot 3\ndelivery 2\n"
                                   "scope-start-draw 4\ncollect-stalls 1\n"
                                   "spec fp 1\nspec hammocks 1 2 3\n"
                                   "spec noise-pu 0x1p-4\n"
                                   "spec iterations 500\n",
                               &j, &err))
        << err;
    EXPECT_EQ(j.config, 0);
    EXPECT_EQ(j.seed, 0xbef1u);
    EXPECT_EQ(j.slot, 3u);
    EXPECT_EQ(j.delivery, 2u);
    EXPECT_EQ(j.scopeStartDraw, 4u);
    EXPECT_TRUE(j.collectStalls);
    EXPECT_TRUE(j.spec.fp);
    EXPECT_EQ(j.spec.hammocksUP, 3u);
    EXPECT_EQ(j.spec.noisePU, 0.0625);
    EXPECT_EQ(j.spec.iterations, 500u);
}

TEST(WorkerCodec, WidthListsAreCappedAndComplete)
{
    const std::string head = "vanguard-workerjob v2\nphase simulate\n";
    WorkerJob out;
    std::string err;
    ASSERT_TRUE(parseWorkerJob(head + "widths 3 2 4 8\n", &out, &err))
        << err;
    EXPECT_EQ(out.widths, (std::vector<unsigned>{2, 4, 8}));

    std::string too_many =
        "widths " + std::to_string(kMaxSweepWidths + 1);
    for (size_t i = 0; i <= kMaxSweepWidths; ++i)
        too_many += " 4";
    for (const std::string &bad :
         {std::string("widths 0\n"), too_many + "\n",
          std::string("widths 18446744073709551615 4\n"),
          std::string("widths 3 2 4\n"),            // truncated list
          std::string("widths 2 4 0\n"),            // zero width
          "widths 1 " + std::to_string(kMaxWidthValue + 1) + "\n",
          std::string("widths 1 x\n"),
          std::string("config exp\n")}) {            // no widths at all
        WorkerJob j;
        EXPECT_FALSE(parseWorkerJob(head + bad, &j, &err)) << bad;
    }

    // A result whose stats record lost a lane is torn, not short.
    WorkerResult r;
    r.ok = true;
    r.slot = 2;
    r.widths = {2, 4};
    r.lanes.resize(2);
    std::string body = serializeWorkerResult(r);
    JournalRecord rec;
    rec.phase = 'S';
    rec.index = 2;
    rec.widths = {2, 4};
    rec.lanes.resize(2);
    std::string good = serializeJournalRecord(rec);
    rec.widths = {2};
    rec.lanes.resize(1);
    std::string one = serializeJournalRecord(rec);
    // Same record with its width count raised but one lane only: the
    // CRC holds (it is recomputed) but the lane list is short.
    std::string short_body = one.substr(0, one.rfind(" @"));
    short_body.replace(short_body.find("widths 1 2"), 10, "widths 2 2 4");
    char crc[16];
    std::snprintf(crc, sizeof(crc), " @%08x", crc32(short_body));
    std::string torn = body;
    torn.replace(torn.find(good), good.size(), short_body + crc);
    // The blob length prefix must match the new record length.
    std::string len_old = "record " + std::to_string(good.size());
    std::string len_new =
        "record " + std::to_string(short_body.size() + std::strlen(crc));
    torn.replace(torn.find(len_old), len_old.size(), len_new);
    WorkerResult back;
    EXPECT_TRUE(parseWorkerResult(body, &back, &err)) << err;
    EXPECT_FALSE(parseWorkerResult(torn, &back, &err));
}

/**
 * A worker runs a fused simulate job exactly as the in-process runner
 * does: one stats lane per width, each equal to the in-process
 * result, and the result survives its own codec.
 */
TEST(JobBody, FusedSimulateJobMatchesInProcessLanes)
{
    BenchmarkSpec spec = findBenchmark("gobmk-like");
    spec.iterations = 300;
    VanguardOptions opts;
    BenchmarkArtifacts art = prepareBenchmark(spec, opts);
    const std::vector<unsigned> widths = {8, 2, 4};
    std::vector<SimStats> want = simulateConfigWidths(
        spec, art.exp, opts, widths, kRefSeeds[1], false);

    WorkerJob job;
    job.phase = "simulate";
    job.slot = 3;
    job.spec = spec;
    job.specName = spec.name;
    job.bindSpecName();
    job.options = opts;
    job.config = 1;
    job.widths = widths;
    job.seed = kRefSeeds[1];
    job.profileText = serializeProfile(art.train.profile);

    JobBodyRunner runner;
    WorkerResult res = runner.run(job);
    ASSERT_TRUE(res.ok) << res.message;
    WorkerResult back;
    std::string err;
    ASSERT_TRUE(
        parseWorkerResult(serializeWorkerResult(res), &back, &err))
        << err;
    EXPECT_EQ(back.widths, widths);
    ASSERT_EQ(back.lanes.size(), widths.size());
    for (size_t l = 0; l < widths.size(); ++l) {
        EXPECT_EQ(back.lanes[l].cycles, want[l].cycles) << widths[l];
        EXPECT_EQ(back.lanes[l].dynamicInsts, want[l].dynamicInsts);
        EXPECT_EQ(back.lanes[l].bpredCounters, want[l].bpredCounters);
    }
    EXPECT_LT(back.lanes[0].cycles, back.lanes[1].cycles); // w8 < w2
}

/**
 * A job frame is outside input: one whose machine has an I$ without
 * sets fails as Config instead of killing the worker with SIGFPE.
 */
TEST(JobBody, UnusableCacheFailsAsConfig)
{
    BenchmarkSpec spec = findBenchmark("gobmk-like");
    spec.iterations = 300;
    WorkerJob job;
    job.phase = "simulate";
    job.spec = spec;
    job.specName = spec.name;
    job.bindSpecName();
    job.options.l1iSizeKB = 0;
    job.config = 0;
    job.widths = {4};
    job.seed = kRefSeeds[0];
    job.profileText =
        serializeProfile(trainBenchmark(spec, job.options).profile);

    JobBodyRunner runner;
    WorkerResult res = runner.run(job);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.kind, SimError::Kind::Config) << res.message;
}

TEST(WorkerCodec, ResultRoundTripsOkFailAndInjectedCounts)
{
    {
        // Simulate success: stats travel through the journal record
        // codec (CRC-guarded, the same bytes a resume replays).
        WorkerResult r;
        r.ok = true;
        r.slot = 9;
        r.widths = {2, 8};
        r.lanes.resize(2);
        r.lanes[0].cycles = 1234567;
        r.lanes[0].dynamicInsts = 99999;
        r.lanes[0].brMispredicts = 321;
        r.lanes[0].halted = true;
        r.lanes[0].branchStalls[17] = {100, 7};
        r.lanes[1].cycles = 765432;
        r.injected[static_cast<size_t>(SimError::Kind::Io)] = 3;

        WorkerResult back;
        std::string err;
        ASSERT_TRUE(
            parseWorkerResult(serializeWorkerResult(r), &back, &err))
            << err;
        EXPECT_TRUE(back.ok);
        EXPECT_EQ(back.slot, 9u);
        EXPECT_EQ(back.widths, r.widths);
        ASSERT_EQ(back.lanes.size(), 2u);
        EXPECT_EQ(back.lanes[0].cycles, r.lanes[0].cycles);
        EXPECT_EQ(back.lanes[0].dynamicInsts, r.lanes[0].dynamicInsts);
        EXPECT_EQ(back.lanes[0].brMispredicts, r.lanes[0].brMispredicts);
        EXPECT_EQ(back.lanes[0].halted, r.lanes[0].halted);
        EXPECT_EQ(back.lanes[0].branchStalls, r.lanes[0].branchStalls);
        EXPECT_EQ(back.lanes[1].cycles, r.lanes[1].cycles);
        EXPECT_EQ(
            back.injected[static_cast<size_t>(SimError::Kind::Io)],
            3u);
    }
    {
        // Train success: the profile blob is opaque bytes.
        WorkerResult r;
        r.ok = true;
        r.slot = 0;
        r.profileText = std::string("p\x00\xffrofile\n", 10);
        WorkerResult back;
        std::string err;
        ASSERT_TRUE(
            parseWorkerResult(serializeWorkerResult(r), &back, &err))
            << err;
        EXPECT_EQ(back.profileText, r.profileText);
    }
    {
        // Failure: kind and message must survive verbatim (the
        // supervisor rethrows them, and the failure table's bytes are
        // part of the identity contract). Newlines and spaces in the
        // message ride the length-prefixed blob unescaped.
        WorkerResult r;
        r.ok = false;
        r.slot = 4;
        r.kind = SimError::Kind::Hang;
        r.message = "cycle budget exceeded\nwith a second line | and "
                    "table chars";
        WorkerResult back;
        std::string err;
        ASSERT_TRUE(
            parseWorkerResult(serializeWorkerResult(r), &back, &err))
            << err;
        EXPECT_FALSE(back.ok);
        EXPECT_EQ(back.kind, SimError::Kind::Hang);
        EXPECT_EQ(back.message, r.message);
    }
    {
        // An ok result with neither profile nor record is desync.
        WorkerResult out;
        std::string err;
        EXPECT_FALSE(parseWorkerResult(
            "vanguard-workerresult v1\nslot 1\nstatus ok\n", &out,
            &err));
    }
}

TEST(WorkerFaults, KillDrawsVaryByDeliveryAndSuppressionIsPerJob)
{
    // The worker.kill site draws one value per (job scope, delivery):
    // a redelivered job draws fresh (a fault-plan kill is a one-shot
    // crash, not a poison job), and the pattern is a pure function of
    // the plan — the contract behind worker-count independence.
    faultinject::arm(parseFaultPlan("internal:0.5,seed=42"));
    auto kills = [](uint64_t job_scope) {
        std::vector<bool> fired;
        for (uint64_t d = 0; d < 16; ++d) {
            faultinject::Scope s(workerKillScope(job_scope, d));
            fired.push_back(faultinject::siteFires(
                "worker.kill", SimError::Kind::Internal));
        }
        return fired;
    };
    std::vector<bool> a1 = kills(0x1111);
    std::vector<bool> a2 = kills(0x1111);
    std::vector<bool> b = kills(0x2222);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_NE(std::count(a1.begin(), a1.end(), true), 0);
    EXPECT_NE(std::count(a1.begin(), a1.end(), true), 16);

    // Heartbeat suppression is all-or-nothing per job: every beat of
    // one job draws under the same scope at draw 0, so either the
    // whole job's heartbeat goes silent (guaranteed watchdog trip) or
    // none of it does.
    faultinject::arm(parseFaultPlan("hang:0.5,seed=9"));
    auto beat = [](uint64_t job_scope) {
        faultinject::Scope s(workerHeartbeatScope(job_scope));
        return faultinject::siteFires("worker.heartbeat",
                                      SimError::Kind::Hang);
    };
    bool found_suppressed = false, found_beating = false;
    for (uint64_t scope = 0; scope < 64; ++scope) {
        bool first = beat(scope);
        for (int k = 0; k < 8; ++k)
            EXPECT_EQ(beat(scope), first) << "beat " << k
                                          << " of job " << scope;
        found_suppressed |= first;
        found_beating |= !first;
    }
    EXPECT_TRUE(found_suppressed);
    EXPECT_TRUE(found_beating);

    // siteFires is a non-throwing, non-counting probe: the injected
    // gauges must not move (they are part of dump identity).
    faultinject::disarm();
}

TEST(WorkerFaults, SiteFiresDoesNotPerturbJobDrawsOrGauges)
{
    faultinject::arm(parseFaultPlan("internal:1.0,seed=1"));
    faultinject::Scope job_scope(0x77);
    uint64_t before_draws = faultinject::currentDrawCount();
    uint64_t before_injected =
        faultinject::injectedCount(SimError::Kind::Internal);
    {
        // The worker draws kill probes under a nested one-off scope,
        // exactly as maybeDeliberateCrash does, so the enclosing job
        // scope's draw sequence is untouched.
        faultinject::Scope probe(workerKillScope(0x77, 0));
        EXPECT_TRUE(faultinject::siteFires(
            "worker.kill", SimError::Kind::Internal));
    }
    // No draw visible to in-body sites was consumed, and no injected
    // gauge moved: both are part of cross-mode dump identity.
    EXPECT_EQ(faultinject::currentDrawCount(), before_draws);
    EXPECT_EQ(faultinject::injectedCount(SimError::Kind::Internal),
              before_injected);
    faultinject::disarm();
}

TEST(WorkerCodec, RttHistogramBoundsAreSharedAndSorted)
{
    // The runner registers engine.worker.job_rtt unconditionally with
    // these bounds so both isolation modes dump identical histogram
    // shapes; the coordinator observes into the same instrument.
    std::vector<uint64_t> bounds = workerRttBoundsMs();
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
}

} // namespace
} // namespace vanguard
