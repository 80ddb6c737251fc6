/**
 * @file
 * The fast-path identity contract (PR 5): the pre-decoded fused cycle
 * loop must be bit-identical — every SimStats field, every exported
 * metric — to the retained reference path, for every predictor, every
 * machine width, every REF seed, and any experiment-engine worker
 * count. The width-fused contract: each lane of one fused
 * simulateWidths() pass is bit-identical to the reference path run
 * solo at that lane's width, and compile output does not depend on
 * the width at all. Plus the DecodedProgram round-trip property:
 * decode is a pure re-encoding of the laid-out program, never a
 * transformation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "core/runner.hh"
#include "core/vanguard.hh"
#include "exec/decoded_program.hh"
#include "support/metrics.hh"
#include "uarch/lanes.hh"
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
        bool force_reference)
{
    BuiltKernel ref = buildKernel(spec, seed);
    auto pred = makePredictor(vopts.predictor, seed);
    SimOptions sopts;
    sopts.maxInsts = vopts.simMaxInsts;
    sopts.cycleBudget = vopts.simCycleBudget;
    sopts.progressWindow = vopts.simProgressWindow;
    sopts.collectBranchStalls = true;
    sopts.forceReference = force_reference;
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

std::vector<BenchmarkSpec>
allKernels(unsigned iterations)
{
    std::vector<BenchmarkSpec> out;
    for (auto suite : {specInt2006, specFp2006, specInt2000, specFp2000}) {
        for (BenchmarkSpec spec : suite()) {
            spec.iterations = iterations;
            out.push_back(spec);
        }
    }
    return out;
}

/** One fused pass over `widths` on a fresh REF input and predictor. */
std::vector<SimStats>
runFused(const BenchmarkSpec &spec, const CompiledConfig &config,
         const VanguardOptions &vopts, uint64_t seed,
         const std::vector<unsigned> &widths)
{
    Memory mem = buildKernelMemory(spec, seed);
    auto pred = makePredictor(vopts.predictor, seed);
    SimOptions sopts;
    sopts.maxInsts = vopts.simMaxInsts;
    sopts.cycleBudget = vopts.simCycleBudget;
    sopts.progressWindow = vopts.simProgressWindow;
    sopts.collectBranchStalls = true;
    if (!config.hoistedMask.empty())
        sopts.hoistedMask = &config.hoistedMask;
    std::vector<MachineConfig> cfgs;
    for (unsigned w : widths) {
        VanguardOptions o = vopts;
        o.width = w;
        cfgs.push_back(o.machine());
    }
    return simulateWidths(config.prog, *config.decoded, mem, *pred, cfgs,
                          sopts);
}

void
expectSameStats(const SimStats &got, const SimStats &want,
                const std::string &tag)
{
    EXPECT_EQ(got.cycles, want.cycles) << tag;
    expectSnapshotsIdentical(got, want, tag);
    EXPECT_EQ(got.halted, want.halted) << tag;
    EXPECT_EQ(got.faulted, want.faulted) << tag;
    EXPECT_TRUE(got.branchStalls == want.branchStalls) << tag;
    EXPECT_TRUE(got.bpredCounters == want.bpredCounters) << tag;
}

/**
 * Every lane of a fused pass equals the reference path run solo at its
 * width — over every kernel of the four suites, both configs, every
 * REF seed, for one, two and three lanes and a lane list that repeats
 * a width.
 */
TEST(FusedLanes, EveryKernelMatchesPerWidthReference)
{
    const std::vector<std::vector<unsigned>> lane_sets = {
        {4}, {8, 2}, {2, 4, 8}, {4, 2, 4}};
    VanguardOptions vopts;
    // 100 trips: enough branch executions for selection (minExecs 64),
    // so the experimental configs carry PREDICT/RESOLVE pairs.
    uint64_t resolve_redirects = 0;
    for (const BenchmarkSpec &spec : allKernels(100)) {
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
        for (const CompiledConfig *config : {&art.base, &art.exp}) {
            for (uint64_t seed : kRefSeeds) {
                std::map<unsigned, SimStats> solo;
                for (unsigned w : {2u, 4u, 8u}) {
                    VanguardOptions o = vopts;
                    o.width = w;
                    solo[w] = runOnce(spec, *config, o, seed, true);
                }
                resolve_redirects += solo[4].resolveRedirects;
                for (const auto &widths : lane_sets) {
                    std::vector<SimStats> lanes =
                        runFused(spec, *config, vopts, seed, widths);
                    ASSERT_EQ(lanes.size(), widths.size());
                    for (size_t l = 0; l < widths.size(); ++l) {
                        expectSameStats(
                            lanes[l], solo[widths[l]],
                            std::string(spec.name) +
                                (config->decomposed ? " [exp]"
                                                    : " [base]") +
                                " seed " + std::to_string(seed) +
                                " lanes " + std::to_string(widths.size()) +
                                " lane w" + std::to_string(widths[l]));
                    }
                }
            }
        }
    }
    EXPECT_GT(resolve_redirects, 0u) << "no decomposed branch ran";
}

/**
 * The same identity on non-default machines, through the engine's
 * simulateConfigWidths (which also owns the ideal predictor's
 * prerecorded outcomes): each width's fused result equals
 * simulateConfig at that width on the forced reference path.
 */
TEST(FusedLanes, NonDefaultMachinesMatchPerWidthReference)
{
    struct Machine
    {
        const char *what;
        void (*apply)(VanguardOptions &);
    };
    const Machine machines[] = {
        {"shadow commit off",
         [](VanguardOptions &o) { o.shadowCommit = false; }},
        {"dbb 4", [](VanguardOptions &o) { o.dbbEntries = 4; }},
        {"next-line I$ prefetch",
         [](VanguardOptions &o) { o.icachePrefetch = true; }},
        {"24KB I$", [](VanguardOptions &o) { o.l1iSizeKB = 24; }},
        {"tage", [](VanguardOptions &o) { o.predictor = "tage"; }},
        {"ideal:0.9", [](VanguardOptions &o) { o.predictor = "ideal:0.9"; }},
    };
    const std::vector<unsigned> widths = {2, 4, 8};
    for (const Machine &m : machines) {
        VanguardOptions vopts;
        m.apply(vopts);
        for (const char *name : {"h264ref-like", "mcf-like", "gcc-like"}) {
            BenchmarkSpec spec = smallSpec(name, 200);
            BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
            for (const CompiledConfig *config : {&art.base, &art.exp}) {
                for (uint64_t seed : kRefSeeds) {
                    std::vector<SimStats> fused = simulateConfigWidths(
                        spec, *config, vopts, widths, seed, true);
                    ASSERT_EQ(fused.size(), widths.size());
                    ASSERT_EQ(setenv("VANGUARD_FORCE_REFERENCE", "1", 1),
                              0);
                    for (size_t l = 0; l < widths.size(); ++l) {
                        VanguardOptions o = vopts;
                        o.width = widths[l];
                        SimStats ref =
                            simulateConfig(spec, *config, o, seed, true);
                        expectSameStats(
                            fused[l], ref,
                            std::string(m.what) + " " + name +
                                (config->decomposed ? " [exp]"
                                                    : " [base]") +
                                " seed " + std::to_string(seed) + " w" +
                                std::to_string(widths[l]));
                    }
                    unsetenv("VANGUARD_FORCE_REFERENCE");
                }
            }
        }
    }
}

/**
 * Saturated per-lane queues: a 2-entry miss buffer with a 24-entry
 * fetch buffer (not a power of two: the modulo slot path), and
 * separately a 1-entry DBB, make every lane stall on its own
 * structures, which the default machine rarely does.
 */
TEST(FusedLanes, TinyQueuesMatchPerWidthReference)
{
    struct Shape
    {
        unsigned mshr, fetchBuffer, dbb;
    };
    uint64_t mshr_stalls = 0;
    uint64_t dbb_stalls = 0;
    for (Shape shape : {Shape{2, 24, 16}, Shape{64, 32, 1}}) {
        auto machine = [shape](unsigned width) {
            MachineConfig cfg = MachineConfig::widthVariant(width);
            cfg.mshrEntries = shape.mshr;
            cfg.fetchBufferEntries = shape.fetchBuffer;
            cfg.dbbEntries = shape.dbb;
            return cfg;
        };
        VanguardOptions vopts;
        for (const char *name : {"mcf-like", "bzip2-like", "milc-like"}) {
            BenchmarkSpec spec = smallSpec(name, 300);
            BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
            for (const CompiledConfig *config : {&art.base, &art.exp}) {
                SimOptions sopts;
                sopts.collectBranchStalls = true;
                if (!config->hoistedMask.empty())
                    sopts.hoistedMask = &config->hoistedMask;
                Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
                auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
                std::vector<SimStats> lanes = simulateWidths(
                    config->prog, *config->decoded, mem, *pred,
                    {machine(2), machine(8), machine(4)}, sopts);
                sopts.forceReference = true;
                size_t l = 0;
                for (unsigned w : {2u, 8u, 4u}) {
                    Memory solo_mem = buildKernelMemory(spec, kRefSeeds[0]);
                    auto solo_pred =
                        makePredictor(vopts.predictor, kRefSeeds[0]);
                    SimStats ref = simulate(config->prog, solo_mem,
                                            *solo_pred, machine(w), sopts);
                    expectSameStats(
                        lanes[l++], ref,
                        std::string(name) +
                            (config->decomposed ? " [exp]" : " [base]") +
                            " w" + std::to_string(w) + " mshr " +
                            std::to_string(shape.mshr) + " dbb " +
                            std::to_string(shape.dbb));
                    mshr_stalls += ref.mshrStalls;
                    dbb_stalls += ref.dbbFullStalls;
                }
            }
        }
    }
    EXPECT_GT(mshr_stalls, 0u);
    EXPECT_GT(dbb_stalls, 0u);
}

TEST(FusedLanes, LanesMayDifferOnlyInWidthAndPorts)
{
    BenchmarkSpec spec = smallSpec("bzip2-like", 50);
    VanguardOptions vopts;
    BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
    auto fusedWith = [&](void (*tweak)(MachineConfig &)) {
        std::vector<MachineConfig> cfgs = {MachineConfig::widthVariant(2),
                                           MachineConfig::widthVariant(8)};
        tweak(cfgs[1]);
        Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
        auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
        return simulateWidths(art.exp.prog, *art.exp.decoded, mem, *pred,
                              cfgs);
    };
    // Width and ports are what lanes exist for.
    EXPECT_EQ(fusedWith([](MachineConfig &c) { c.fpPorts = 1; }).size(),
              2u);
    // Anything the shared pass reads must agree.
    for (void (*tweak)(MachineConfig &) : {
             +[](MachineConfig &c) { c.dbbEntries = 8; },
             +[](MachineConfig &c) { c.shadowCommit = false; },
             +[](MachineConfig &c) { c.l1i.sizeKB = 24; },
             +[](MachineConfig &c) { c.predictor = "tage"; },
             +[](MachineConfig &c) { c.mshrEntries = 8; },
             +[](MachineConfig &c) { c.icacheNextLinePrefetch = true; },
         }) {
        try {
            fusedWith(tweak);
            ADD_FAILURE() << "mismatched lanes were accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Config) << e.what();
        }
    }
    // More lanes than one pass fuses is a config error too.
    std::vector<MachineConfig> five(kMaxFusedLanes + 1,
                                    MachineConfig::widthVariant(4));
    Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
    auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
    EXPECT_THROW(simulateWidths(art.exp.prog, *art.exp.decoded, mem,
                                *pred, five),
                 SimError);
}

/** Two compile artifacts are identical, down to every decoded field. */
void
expectSameCompile(const CompiledConfig &a, const CompiledConfig &b,
                  const std::string &tag)
{
    EXPECT_EQ(a.decomposed, b.decomposed) << tag;
    EXPECT_EQ(a.prog.toString(), b.prog.toString()) << tag;
    EXPECT_EQ(a.hoistedMask, b.hoistedMask) << tag;
    EXPECT_EQ(a.staticInsts, b.staticInsts) << tag;
    const DecodedProgram &da = *a.decoded;
    const DecodedProgram &db = *b.decoded;
    ASSERT_EQ(da.size(), db.size()) << tag;
    EXPECT_EQ(da.lineBytes(), db.lineBytes()) << tag;
    EXPECT_EQ(da.maxStallKey(), db.maxStallKey()) << tag;
    for (size_t i = 0; i < da.size(); ++i) {
        const DecodedInst &x = da.insts()[i];
        const DecodedInst &y = db.insts()[i];
        EXPECT_TRUE(x.pc == y.pc && x.takenPc == y.takenPc &&
                    x.lineTag == y.lineTag && x.imm == y.imm &&
                    x.takenIdx == y.takenIdx && x.id == y.id &&
                    x.stallKey == y.stallKey && x.op == y.op &&
                    x.dst == y.dst && x.src1 == y.src1 &&
                    x.src2 == y.src2 && x.src3 == y.src3 &&
                    x.fu == y.fu && x.latency == y.latency &&
                    x.flags == y.flags)
            << tag << " inst " << i;
    }
}

/**
 * Compiling once per benchmark is only sound because compile output
 * does not depend on the width: every kernel's Program and
 * DecodedProgram come out identical at widths 2, 4 and 8.
 */
TEST(FusedLanes, CompileOutputIsWidthIndependent)
{
    for (const BenchmarkSpec &spec : allKernels(100)) {
        VanguardOptions vopts;
        TrainArtifacts train = trainBenchmark(spec, vopts);
        vopts.width = 2;
        BenchmarkArtifacts w2 = compileBenchmark(spec, train, vopts);
        for (unsigned w : {4u, 8u}) {
            vopts.width = w;
            BenchmarkArtifacts other = compileBenchmark(spec, train, vopts);
            std::string tag =
                std::string(spec.name) + " w" + std::to_string(w);
            expectSameCompile(w2.base, other.base, tag + " [base]");
            expectSameCompile(w2.exp, other.exp, tag + " [exp]");
            EXPECT_EQ(w2.alpbb, other.alpbb);
            EXPECT_EQ(w2.phi, other.phi);
        }
    }
}

/**
 * compileBenchmark shares one kernel build and one superblock pass
 * between its two configurations; each must still equal the
 * standalone compileConfig that replay and the workers run.
 */
TEST(FusedLanes, SharedBenchmarkCompileMatchesStandaloneConfigs)
{
    for (const BenchmarkSpec &spec : allKernels(100)) {
        VanguardOptions vopts;
        TrainArtifacts train = trainBenchmark(spec, vopts);
        BenchmarkArtifacts art = compileBenchmark(spec, train, vopts);
        std::string tag(spec.name);
        expectSameCompile(art.base,
                          compileConfig(spec, train, false, vopts),
                          tag + " [base]");
        expectSameCompile(art.exp, compileConfig(spec, train, true, vopts),
                          tag + " [exp]");
    }
}

/** A heap's or FIFO's contents, in pop order. */
std::vector<uint64_t>
drained(BoundedMinHeap h)
{
    std::vector<uint64_t> out;
    for (; !h.empty(); h.pop_min())
        out.push_back(h.min());
    return out;
}

std::vector<uint64_t>
drained(RingFifo<uint64_t> f)
{
    std::vector<uint64_t> out;
    for (; !f.empty(); f.pop_front())
        out.push_back(f.front());
    return out;
}

/**
 * Every field of two lanes, state and counters. `floor` is the column
 * lanes' base: the issue cycle, the scoreboard and the fetch ring hold
 * cycles that can fall below it, and a rebase reads those back as the
 * floor itself.
 */
void
expectSameLane(const TimingLane &got, const TimingLane &want,
               const std::string &tag, uint64_t floor = 0)
{
    auto lifted = [floor](uint64_t x) { return std::max(x, floor); };
    EXPECT_EQ(got.next_fetch_cycle, want.next_fetch_cycle) << tag;
    EXPECT_EQ(got.cur_fetch_cycle, want.cur_fetch_cycle) << tag;
    EXPECT_EQ(got.fetched_in_cycle, want.fetched_in_cycle) << tag;
    ASSERT_EQ(got.fetch_ring.size(), want.fetch_ring.size()) << tag;
    for (size_t s = 0; s < got.fetch_ring.size(); ++s)
        EXPECT_EQ(got.fetch_ring[s], lifted(want.fetch_ring[s]))
            << tag << " slot " << s;
    EXPECT_EQ(got.cur_issue_cycle, lifted(want.cur_issue_cycle)) << tag;
    EXPECT_EQ(got.slots_used, want.slots_used) << tag;
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(got.ports_used[c], want.ports_used[c]) << tag;
    for (unsigned r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(got.reg_ready[r], lifted(want.reg_ready[r]))
            << tag << " r" << r;
    EXPECT_EQ(drained(got.outstanding_misses),
              drained(want.outstanding_misses))
        << tag;
    EXPECT_EQ(drained(got.dbb_free_cycles), drained(want.dbb_free_cycles))
        << tag;
    EXPECT_EQ(got.stall_cycles_by_id, want.stall_cycles_by_id) << tag;
    EXPECT_EQ(got.fetch_buffer_stalls, want.fetch_buffer_stalls) << tag;
    EXPECT_EQ(got.branch_stall_cycles, want.branch_stall_cycles) << tag;
    EXPECT_EQ(got.dbb_full_stalls, want.dbb_full_stalls) << tag;
    EXPECT_EQ(got.dbb_max_occupancy, want.dbb_max_occupancy) << tag;
    EXPECT_EQ(got.mshr_stalls, want.mshr_stalls) << tag;
    EXPECT_EQ(got.max_done, want.max_done) << tag;
}

std::vector<TimingLane>
makeLanes(const std::vector<MachineConfig> &cfgs, InstId stall_keys)
{
    std::vector<TimingLane> lanes;
    for (const MachineConfig &cfg : cfgs)
        lanes.emplace_back(cfg, stall_keys, true);
    return lanes;
}

/** The reference timing: every event through TimingLane::retire, on
 *  each lane in turn. */
void
retireEachLane(std::vector<TimingLane> &lanes,
               std::span<const LaneEvent> events)
{
    for (TimingLane &ln : lanes) {
        for (size_t seq = 0; seq < events.size(); ++seq)
            ln.retire(events[seq], seq);
    }
}

/** Replay `events` through TimingLane::retire and through the columns
 *  over `cfgs`; lanes must agree field for field. Returns the lanes'
 *  MSHR and DBB stalls. */
template <unsigned N>
std::pair<uint64_t, uint64_t>
expectPoliciesAgree(std::span<const LaneEvent> events,
                    const std::vector<MachineConfig> &cfgs,
                    InstId stall_keys, const std::string &tag)
{
    std::vector<TimingLane> scalar = makeLanes(cfgs, stall_keys);
    std::vector<TimingLane> columns = makeLanes(cfgs, stall_keys);
    retireEachLane(scalar, events);
    ColumnLanes<N> by_column(columns.data());
    replayLaneEvents(by_column, events);
    std::pair<uint64_t, uint64_t> stalls;
    for (unsigned l = 0; l < N; ++l) {
        expectSameLane(columns[l], scalar[l],
                       tag + " lane " + std::to_string(l) + " w" +
                           std::to_string(cfgs[l].width));
        stalls.first += scalar[l].mshr_stalls;
        stalls.second += scalar[l].dbb_full_stalls;
    }
    return stalls;
}

/**
 * The columns time like the reference: one recorded event stream per
 * kernel, config and machine shape, replayed through TimingLane::retire
 * and through ColumnLanes for several lane sets (one-lane sets, padding
 * columns and all, included), leaves every lane in the same state with
 * the same counters. Two tiny shapes (a 24-entry fetch buffer, the
 * modulo slot path, with a 2-entry miss buffer; and a 1-entry DBB)
 * drive the per-lane escapes hard.
 */
TEST(LanePolicies, ColumnsMatchScalarOnRecordedStreams)
{
    const std::vector<std::vector<unsigned>> lane_sets = {
        {2}, {8}, {2, 4, 8}, {8, 2}, {4, 2, 4}, {8, 4, 2, 2}};
    struct Shape
    {
        const char *what;
        unsigned fetchBuffer, dbb, mshr;
    };
    // Every kernel at 100 trips, plus three at 300 trips, where
    // selection converts enough branches for the 1-entry DBB to fill.
    std::vector<BenchmarkSpec> specs = allKernels(100);
    for (const char *name : {"mcf-like", "bzip2-like", "milc-like"})
        specs.push_back(smallSpec(name, 300));
    VanguardOptions vopts;
    uint64_t mshr_stalls = 0;
    uint64_t dbb_stalls = 0;
    for (const BenchmarkSpec &spec : specs) {
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
        for (const CompiledConfig *config : {&art.base, &art.exp}) {
            for (Shape shape : {Shape{"default", 32, 16, 64},
                                Shape{"fetch 24 mshr 2", 24, 16, 2},
                                Shape{"dbb 1", 32, 1, 64}}) {
                auto machine = [&](unsigned width) {
                    VanguardOptions o = vopts;
                    o.width = width;
                    MachineConfig cfg = o.machine();
                    cfg.fetchBufferEntries = shape.fetchBuffer;
                    cfg.dbbEntries = shape.dbb;
                    cfg.mshrEntries = shape.mshr;
                    return cfg;
                };
                std::string tag = std::string(spec.name) + " x" +
                    std::to_string(spec.iterations) +
                    (config->decomposed ? " [exp] " : " [base] ") +
                    shape.what;
                SimOptions sopts;
                sopts.collectBranchStalls = true;
                if (!config->hoistedMask.empty())
                    sopts.hoistedMask = &config->hoistedMask;
                Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
                auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
                std::vector<LaneEvent> events = recordLaneEvents(
                    *config->decoded, mem, *pred, machine(4), sopts);
                InstId keys = config->decoded->maxStallKey();

                // The recording is the run: one lane replayed through
                // TimingLane::retire at the recording's width times it
                // like simulate().
                Memory solo_mem = buildKernelMemory(spec, kRefSeeds[0]);
                auto solo_pred =
                    makePredictor(vopts.predictor, kRefSeeds[0]);
                SimStats solo = simulateWithDecoded(
                    config->prog, *config->decoded, solo_mem, *solo_pred,
                    machine(4), sopts);
                ASSERT_EQ(events.size(), solo.dynamicInsts) << tag;
                std::vector<TimingLane> one = makeLanes({machine(4)}, keys);
                retireEachLane(one, events);
                EXPECT_EQ(one[0].max_done + 1, solo.cycles) << tag;

                for (const std::vector<unsigned> &widths : lane_sets) {
                    std::vector<MachineConfig> cfgs;
                    for (unsigned w : widths)
                        cfgs.push_back(machine(w));
                    std::span<const LaneEvent> ev(events);
                    std::pair<uint64_t, uint64_t> stalls;
                    switch (widths.size()) {
                      case 1:
                        stalls = expectPoliciesAgree<1>(ev, cfgs, keys, tag);
                        break;
                      case 2:
                        stalls = expectPoliciesAgree<2>(ev, cfgs, keys, tag);
                        break;
                      case 3:
                        stalls = expectPoliciesAgree<3>(ev, cfgs, keys, tag);
                        break;
                      case 4:
                        stalls = expectPoliciesAgree<4>(ev, cfgs, keys, tag);
                        break;
                    }
                    mshr_stalls += stalls.first;
                    dbb_stalls += stalls.second;
                }
            }
        }
    }
    EXPECT_GT(mshr_stalls, 0u);
    EXPECT_GT(dbb_stalls, 0u);
}

/**
 * A synthetic stream whose clock runs billions of cycles: a chain of
 * dependent memory-latency loads under longer independent misses (so
 * a 4-entry miss buffer fills), PREDICT/RESOLVE pairs on a 2-entry DBB
 * in every other run of 32 blocks (dense pairs fill the DBB, the gaps
 * let the fetch buffer fill), branches, jumps, folded MOVs and I-cache
 * misses. Every latency is within kMaxLatency.
 */
std::vector<LaneEvent>
farClockStream(size_t blocks)
{
    using Kind = LaneEvent::Kind;
    auto event = [](Kind kind, RegId dst, RegId src1, RegId src2,
                    RegId src3, uint32_t latency) {
        LaneEvent ev;
        ev.kind = kind;
        ev.dst = dst;
        ev.src1 = src1;
        ev.src2 = src2;
        ev.src3 = src3;
        ev.latency = latency;
        ev.fu = static_cast<uint8_t>(FuClass::IntAlu);
        return ev;
    };
    std::vector<LaneEvent> events;
    for (size_t b = 0; b < blocks; ++b) {
        LaneEvent chase = event(Kind::Load, 1, 1, kNoReg, kNoReg, 40000);
        chase.miss = true;
        chase.extra = b % 7 == 0 ? 140 : 0;
        events.push_back(chase);
        for (RegId dst : {RegId{2}, RegId{7}}) {
            LaneEvent far = event(Kind::Load, dst, 3, kNoReg, kNoReg,
                                  kMaxLatency);
            far.miss = dst == 2 || b % 2 == 1;
            events.push_back(far);
        }
        bool decomposed = (b / 32) % 2 == 0;
        if (decomposed) {
            LaneEvent predict = event(Kind::Predict, kNoReg, kNoReg,
                                      kNoReg, kNoReg, 0);
            predict.steer = b % 3 == 0 ? Steer::BtbHit : Steer::None;
            events.push_back(predict);
        }
        events.push_back(event(Kind::Alu, 4, 1, 2, kNoReg, 1));
        if (decomposed) {
            LaneEvent resolve = event(Kind::Resolve, kNoReg, 4, kNoReg,
                                      kNoReg, 0);
            resolve.key = 1;
            resolve.steer = b % 5 == 0 ? Steer::Squash : Steer::None;
            events.push_back(resolve);
        }
        LaneEvent branch = event(Kind::Branch, kNoReg, 2, kNoReg, kNoReg,
                                 0);
        branch.key = 2;
        branch.steer = b % 4 == 0 ? Steer::BtbMiss : Steer::None;
        events.push_back(branch);
        LaneEvent jump = event(Kind::Jump, kNoReg, kNoReg, kNoReg, kNoReg,
                               0);
        jump.steer = Steer::BtbHit;
        jump.extra = b % 11 == 0 ? 12 : 0;
        events.push_back(jump);
        LaneEvent store = event(Kind::Store, kNoReg, 3, 4, kNoReg, 0);
        store.fu = static_cast<uint8_t>(FuClass::Mem);
        events.push_back(store);
        events.push_back(event(Kind::FoldMov, 5, 1, kNoReg, kNoReg, 0));
        LaneEvent fp = event(Kind::Alu3, 6, 5, 4, 7, 4);
        fp.fu = static_cast<uint8_t>(FuClass::Fp);
        events.push_back(fp);
        events.push_back(event(Kind::NoDst, kNoReg, 6, 1, 3, 1));
    }
    return events;
}

/** Replay farClockStream from lanes started at cycle `start` through
 *  TimingLane::retire and the columns; returns the column lanes' least
 *  base. */
template <unsigned N>
uint64_t
expectRebasedColumnsAgree(std::span<const LaneEvent> events,
                          const std::vector<unsigned> &widths,
                          uint64_t start)
{
    std::vector<MachineConfig> cfgs;
    for (unsigned w : widths) {
        MachineConfig cfg = MachineConfig::widthVariant(w);
        cfg.dbbEntries = 2;
        cfg.mshrEntries = 4;
        cfgs.push_back(cfg);
    }
    const InstId keys = 3;
    std::vector<TimingLane> scalar = makeLanes(cfgs, keys);
    std::vector<TimingLane> columns = makeLanes(cfgs, keys);
    for (std::vector<TimingLane> *set : {&scalar, &columns}) {
        for (TimingLane &ln : *set) {
            // Mid-run state: some cycles already lie below the floor
            // (start - 1) the columns will take as their base.
            ln.next_fetch_cycle = ln.cur_fetch_cycle = start;
            ln.cur_issue_cycle = start - 3;
            ln.max_done = ln.last_commit_cycle = start + 10;
            for (unsigned r = 0; r < kNumRegs; ++r)
                ln.reg_ready[r] = start - 20 + r % 16;
            for (uint64_t &slot : ln.fetch_ring)
                slot = start - 2;
            ln.outstanding_misses.push(start + 5);
            ln.dbb_free_cycles.push_back(start + 3);
        }
    }
    retireEachLane(scalar, events);
    ColumnLanes<N> by_column(columns.data());
    replayLaneEvents(by_column, events);
    uint64_t least_base = UINT64_MAX;
    for (unsigned l = 0; l < N; ++l) {
        std::string tag = "lane " + std::to_string(l) + " w" +
            std::to_string(widths[l]) + " of " + std::to_string(N);
        expectSameLane(columns[l], scalar[l], tag, by_column.base(l));
        EXPECT_GT(scalar[l].fetch_buffer_stalls, 0u) << tag;
        EXPECT_GT(scalar[l].mshr_stalls, 0u) << tag;
        EXPECT_GT(scalar[l].dbb_full_stalls, 0u) << tag;
        least_base = std::min(least_base, by_column.base(l));
    }
    return least_base;
}

/**
 * Column lanes count cycles in 32 bits from a per-lane base that moves
 * up (a rebase) whenever a lane passes 2^30 cycles from it. Started
 * near 2^33 cycles and run for over four billion more, the columns
 * still match TimingLane::retire in every counter and max_done, and in
 * every other cycle once it is lifted to the columns' final base.
 */
TEST(LanePolicies, ColumnsStayExactAcrossRebases)
{
    const uint64_t start = (uint64_t{1} << 33) + 777;
    std::vector<LaneEvent> events = farClockStream(120000);
    uint64_t least_base = expectRebasedColumnsAgree<3>(events, {2, 4, 8},
                                                       start);
    // Each rebase lifts the base by at most 2^30 cycles and a little
    // more, so a base above 3 x 2^30 past the start took at least 3.
    EXPECT_GT(least_base - start, 3 * (uint64_t{1} << 30));
    least_base = expectRebasedColumnsAgree<4>(events, {8, 4, 2, 2}, start);
    EXPECT_GT(least_base - start, 3 * (uint64_t{1} << 30));
    least_base = expectRebasedColumnsAgree<1>(events, {2}, start);
    EXPECT_GT(least_base - start, 3 * (uint64_t{1} << 30));
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
