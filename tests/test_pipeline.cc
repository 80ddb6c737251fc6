/**
 * @file
 * Unit tests for the cycle-level in-order timing model: issue-width
 * and FU-port bounds, dependence serialization, load-to-use latency,
 * mispredict redirect cost, decomposed-branch front-end behavior
 * (PREDICT dropped at decode, DBB accounting, resolve redirects),
 * shadow-commit folding, and the predict-outcome prerecorder.
 */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "compiler/layout.hh"
#include "ir/builder.hh"
#include "uarch/pipeline.hh"

namespace vanguard {
namespace {

/** Run fn on a fresh machine; returns stats. */
SimStats
run(Function &fn, const MachineConfig &cfg,
    const std::string &predictor = "gshare3",
    size_t mem_bytes = 1 << 20, const SimOptions &opts = {})
{
    Program prog = linearize(fn);
    Memory mem(mem_bytes);
    auto pred = makePredictor(predictor);
    return simulate(prog, mem, *pred, cfg, opts);
}

/** Loop skeleton: emits `body` then the induction/latch. */
template <typename BodyFn>
Function
loop(uint64_t iters, BodyFn body)
{
    Function fn("loop");
    IRBuilder b(fn);
    b.startBlock("entry");
    BlockId head = fn.addBlock("head");
    BlockId exit = fn.addBlock("exit");
    b.movi(0, 0);
    b.movi(1, static_cast<int64_t>(iters));
    b.jmp(head);
    b.setInsertPoint(head);
    body(b);
    b.addi(0, 0, 1);
    b.cmp(Opcode::CMPLT, 15, 0, 1);
    b.br(15, head, exit);
    b.setInsertPoint(exit);
    b.halt();
    return fn;
}

TEST(Pipeline, IntPortBoundOnIndependentAlu)
{
    Function fn = loop(5000, [](IRBuilder &b) {
        for (int k = 0; k < 16; ++k)
            b.addi(static_cast<RegId>(2 + (k % 8)), 0, k);
    });
    SimStats s = run(fn, MachineConfig::widthVariant(4));
    // 18 int-class ops per iteration through 2 INT ports => >= 9
    // cycles; allow fetch overheads.
    double cyc_per_iter = static_cast<double>(s.cycles) / 5000.0;
    EXPECT_GE(cyc_per_iter, 9.0);
    EXPECT_LE(cyc_per_iter, 13.0);
}

TEST(Pipeline, WiderMachineRaisesThroughput)
{
    Function fn = loop(5000, [](IRBuilder &b) {
        for (int k = 0; k < 12; ++k)
            b.addi(static_cast<RegId>(2 + (k % 12)), 0, k);
    });
    SimStats s2 = run(fn, MachineConfig::widthVariant(2));
    SimStats s4 = run(fn, MachineConfig::widthVariant(4));
    SimStats s8 = run(fn, MachineConfig::widthVariant(8));
    EXPECT_LT(s4.cycles, s2.cycles);
    EXPECT_LT(s8.cycles, s4.cycles);
}

TEST(Pipeline, SerialChainRunsAtOneIpc)
{
    Function fn = loop(5000, [](IRBuilder &b) {
        for (int k = 0; k < 16; ++k)
            b.addi(2, 2, 1);
    });
    SimStats s = run(fn, MachineConfig::widthVariant(4));
    double cyc_per_iter = static_cast<double>(s.cycles) / 5000.0;
    EXPECT_GE(cyc_per_iter, 16.0);
    EXPECT_LE(cyc_per_iter, 20.0);
}

TEST(Pipeline, LoadToUseLatencyVisible)
{
    // Serial pointer-increment chain through one L1-resident cell:
    // ld(4) + add(1) + st... ~7+ cycles per iteration.
    Function fn = loop(5000, [](IRBuilder &b) {
        b.load(2, 3, 0);
        b.addi(2, 2, 1);
        b.store(3, 0, 2);
    });
    SimStats s = run(fn, MachineConfig::widthVariant(4));
    double cyc_per_iter = static_cast<double>(s.cycles) / 5000.0;
    EXPECT_GE(cyc_per_iter, 6.0);
    EXPECT_LE(cyc_per_iter, 9.0);
}

TEST(Pipeline, CacheMissesCostCycles)
{
    // Stream through 8 MB: every line is a fresh miss.
    Function small = loop(3000, [](IRBuilder &b) {
        b.shli(2, 0, 6);
        b.andi(2, 2, (16 << 10) - 1); // 16 KB: L1-resident
        b.load(3, 2, 0);
        b.add(4, 4, 3);
    });
    Function big = loop(3000, [](IRBuilder &b) {
        b.shli(2, 0, 6);
        b.andi(2, 2, (8 << 20) - 1); // 8 MB: cold lines
        b.load(3, 2, 0);
        b.add(4, 4, 3);
    });
    SimStats ss = run(small, MachineConfig::widthVariant(4),
                      "gshare3", 16 << 20);
    SimStats sb = run(big, MachineConfig::widthVariant(4), "gshare3",
                      16 << 20);
    EXPECT_GT(sb.l1dMisses, ss.l1dMisses);
    EXPECT_GT(sb.cycles, ss.cycles * 2);
}

TEST(Pipeline, MispredictsCostRedirects)
{
    // Same loop body; one branch pattern predictable, one random.
    auto make = [](bool random) {
        return loop(6000, [random](IRBuilder &b) {
            if (random) {
                // splitmix-style hash of i: effectively unlearnable
                // (a single multiply's top bit is almost periodic and
                // gshare learns it; the xor-fold breaks that)
                b.op2i(Opcode::MUL, 9, 0,
                       static_cast<int64_t>(0x9e3779b97f4a7c15ULL));
                b.shri(10, 9, 31);
                b.xorOp(9, 9, 10);
                b.op2i(Opcode::MUL, 9, 9,
                       static_cast<int64_t>(0xbf58476d1ce4e5b9ULL));
                b.shri(9, 9, 60);
                b.andi(2, 9, 1);
            } else {
                b.andi(2, 0, 1); // alternating: learnable
            }
            BlockId t = b.function().addBlock();
            BlockId j = b.function().addBlock();
            b.br(2, t, j);
            BlockId cur = b.insertPoint();
            (void)cur;
            b.setInsertPoint(t);
            b.addi(3, 3, 1);
            b.jmp(j);
            b.setInsertPoint(j);
        });
    };
    Function predictable = make(false);
    Function random = make(true);
    // Seed the xorshift register.
    SimStats sp = run(predictable, MachineConfig::widthVariant(4));
    SimStats sr = run(random, MachineConfig::widthVariant(4));
    EXPECT_LT(sp.brMispredicts, 600u);
    EXPECT_GT(sr.brMispredicts, 1500u);
    EXPECT_GT(sr.cycles, sp.cycles);
    EXPECT_GT(sr.mppki(), sp.mppki());
}

/** Hand-decomposed single hammock for front-end tests. */
Function
decomposedLoop(uint64_t iters)
{
    Function fn("dec");
    IRBuilder b(fn);
    b.startBlock("entry");
    BlockId a = fn.addBlock("a");
    BlockId ca = fn.addBlock("ca");
    BlockId ba = fn.addBlock("ba");
    BlockId t = fn.addBlock("t");
    BlockId f = fn.addBlock("f");
    BlockId latch = fn.addBlock("latch");
    BlockId exit = fn.addBlock("exit");
    b.movi(0, 0);
    b.movi(1, static_cast<int64_t>(iters));
    b.jmp(a);
    b.setInsertPoint(a);
    b.andi(2, 0, 1); // alternating outcome
    InstId orig = fn.nextInstId();
    b.predict(ca, ba, orig);
    b.setInsertPoint(ba); // predicted not-taken path
    b.resolve(2, t, f, orig, false);
    b.setInsertPoint(ca); // predicted taken path
    b.cmpi(Opcode::CMPEQ, 3, 2, 0);
    b.resolve(3, f, t, orig, true);
    b.setInsertPoint(t);
    b.addi(4, 4, 1);
    b.jmp(latch);
    b.setInsertPoint(f);
    b.addi(5, 5, 1);
    b.jmp(latch);
    b.setInsertPoint(latch);
    b.addi(0, 0, 1);
    b.cmp(Opcode::CMPLT, 6, 0, 1);
    b.br(6, a, exit);
    b.setInsertPoint(exit);
    b.halt();
    return fn;
}

TEST(Pipeline, PredictsAreDroppedNotIssued)
{
    Function fn = decomposedLoop(4000);
    SimStats s = run(fn, MachineConfig::widthVariant(4));
    EXPECT_EQ(s.predictsExecuted, 4000u);
    EXPECT_EQ(s.resolvesExecuted, 4000u);
    EXPECT_EQ(s.fetched, s.dynamicInsts);
    // PREDICTs fetched but never issued.
    EXPECT_LE(s.issued + s.predictsExecuted, s.dynamicInsts);
}

TEST(Pipeline, PredictorLearnsDecomposedBranch)
{
    // Alternating outcome: after warmup the predictor trained via the
    // DBB should nearly eliminate resolve redirects.
    Function fn = decomposedLoop(6000);
    SimStats s = run(fn, MachineConfig::widthVariant(4));
    EXPECT_LT(s.resolveRedirects, 600u)
        << "DBB-trained predictor should learn the alternation";
    EXPECT_GT(s.dbbMaxOccupancy, 0u);
}

TEST(Pipeline, ResolveRedirectsCostCycles)
{
    Function good = decomposedLoop(6000);
    SimStats sg = run(good, MachineConfig::widthVariant(4));
    // Same program with an UNTRAINABLE outcome: use ideal:0.5.
    Function bad = decomposedLoop(6000);
    SimStats sb =
        run(bad, MachineConfig::widthVariant(4), "ideal:0.5");
    EXPECT_GT(sb.resolveRedirects, sg.resolveRedirects * 3);
    EXPECT_GT(sb.cycles, sg.cycles);
}

TEST(Pipeline, IdealPredictorNeedsPrerecordedOutcomes)
{
    Function fn = decomposedLoop(3000);
    Program prog = linearize(fn);
    Memory mem(1 << 16);
    auto outcomes = prerecordPredictOutcomes(prog, mem, 10'000'000);
    ASSERT_EQ(outcomes.size(), 3000u);
    // Alternating pattern i & 1.
    EXPECT_EQ(outcomes[0], false);
    EXPECT_EQ(outcomes[1], true);
    EXPECT_EQ(outcomes[2], false);

    auto pred = makePredictor("ideal:1.0");
    SimOptions opts;
    opts.predictOutcomes = &outcomes;
    SimStats s =
        simulate(prog, mem, *pred, MachineConfig::widthVariant(4),
                 opts);
    EXPECT_EQ(s.resolveRedirects, 0u) << "perfect prediction";
}

TEST(Pipeline, ShadowCommitFoldsMovs)
{
    Function fn = loop(3000, [](IRBuilder &b) {
        b.addi(tempReg(0), 0, 5);
        b.mov(7, tempReg(0)); // commit MOV: foldable
        b.add(8, 8, 7);
    });
    MachineConfig on = MachineConfig::widthVariant(4);
    on.shadowCommit = true;
    MachineConfig off = on;
    off.shadowCommit = false;
    SimStats son = run(fn, on);
    SimStats soff = run(fn, off);
    EXPECT_EQ(son.foldedCommitMovs, 3000u);
    EXPECT_EQ(soff.foldedCommitMovs, 0u);
    EXPECT_LT(son.issued, soff.issued);
    EXPECT_LE(son.cycles, soff.cycles);
}

TEST(Pipeline, DbbCapacityStallsWhenTiny)
{
    Function fn = decomposedLoop(4000);
    MachineConfig tiny = MachineConfig::widthVariant(4);
    tiny.dbbEntries = 1;
    SimStats s = run(fn, tiny);
    // With one entry the next PREDICT can decode only after the prior
    // RESOLVE executes; with strict alternation that's rarely binding,
    // but occupancy must be capped.
    EXPECT_LE(s.dbbMaxOccupancy, 1u);
}

TEST(Pipeline, ICacheMissesSlowBigFootprints)
{
    // A program larger than the I$ that cycles through all its code.
    Function fn("big");
    IRBuilder b(fn);
    b.startBlock("entry");
    std::vector<BlockId> blocks;
    const unsigned kBlocks = 64;
    for (unsigned i = 0; i < kBlocks; ++i)
        blocks.push_back(fn.addBlock());
    BlockId latch = fn.addBlock("latch");
    BlockId exit = fn.addBlock("exit");
    b.movi(0, 0);
    b.jmp(blocks[0]);
    for (unsigned i = 0; i < kBlocks; ++i) {
        b.setInsertPoint(blocks[i]);
        for (int k = 0; k < 160; ++k)
            b.addi(static_cast<RegId>(2 + (k % 8)), 0, k);
        b.jmp(i + 1 < kBlocks ? blocks[i + 1] : latch);
    }
    b.setInsertPoint(latch);
    b.addi(0, 0, 1);
    b.cmpi(Opcode::CMPLT, 1, 0, 60);
    b.br(1, blocks[0], exit);
    b.setInsertPoint(exit);
    b.halt();
    // ~64*161*4B = 41 KB of code.
    MachineConfig big_ic = MachineConfig::widthVariant(4);
    big_ic.l1i.sizeKB = 64;
    MachineConfig small_ic = MachineConfig::widthVariant(4);
    small_ic.l1i.sizeKB = 16;
    SimStats sb = run(fn, big_ic);
    SimStats ss = run(fn, small_ic);
    EXPECT_GT(ss.icacheMisses, sb.icacheMisses * 5);
    EXPECT_GT(ss.cycles, sb.cycles);
}

TEST(Pipeline, BranchStallCollectionKeyedByOrigBranch)
{
    Function fn = decomposedLoop(2000);
    SimOptions opts;
    opts.collectBranchStalls = true;
    Program prog = linearize(fn);
    Memory mem(1 << 16);
    auto pred = makePredictor("gshare3");
    SimStats s =
        simulate(prog, mem, *pred, MachineConfig::widthVariant(4),
                 opts);
    EXPECT_FALSE(s.branchStalls.empty());
    uint64_t events = 0;
    for (const auto &[id, sc] : s.branchStalls)
        events += sc.second;
    EXPECT_EQ(events, s.branchStallEvents);
}

TEST(Pipeline, HoistedMaskCountsSpeculativeExecs)
{
    Function fn = loop(1000, [](IRBuilder &b) {
        b.addi(2, 0, 1); // pretend this one is a hoisted clone
        b.addi(3, 0, 2);
    });
    // Find the id of the first body inst.
    InstId target = fn.block(1).insts[0].id;
    std::vector<bool> mask(target + 1, false);
    mask[target] = true;
    SimOptions opts;
    opts.hoistedMask = &mask;
    Program prog = linearize(fn);
    Memory mem(1 << 16);
    auto pred = makePredictor("gshare3");
    SimStats s =
        simulate(prog, mem, *pred, MachineConfig::widthVariant(4),
                 opts);
    EXPECT_EQ(s.speculativeExecs, 1000u);
}

TEST(Pipeline, MaxInstsBoundsRun)
{
    Function fn = loop(1'000'000, [](IRBuilder &b) {
        b.addi(2, 2, 1);
    });
    SimOptions opts;
    opts.maxInsts = 5000;
    Program prog = linearize(fn);
    Memory mem(1 << 16);
    auto pred = makePredictor("gshare3");
    SimStats s =
        simulate(prog, mem, *pred, MachineConfig::widthVariant(4),
                 opts);
    EXPECT_EQ(s.dynamicInsts, 5000u);
    EXPECT_FALSE(s.halted);
}

/**
 * A machine the timing model cannot make progress on is a config
 * error at construction, on both paths — never a hang (a zero width
 * or port count would spin computeIssue forever) or an internal
 * assert (a zero-entry DBB).
 */
TEST(Pipeline, UnusableMachineIsAConfigError)
{
    Function fn = loop(100, [](IRBuilder &b) { b.addi(2, 0, 1); });
    for (void (*zero)(MachineConfig &) : {
             +[](MachineConfig &c) { c.width = 0; },
             +[](MachineConfig &c) { c.memPorts = 0; },
             +[](MachineConfig &c) { c.intPorts = 0; },
             +[](MachineConfig &c) { c.fpPorts = 0; },
             +[](MachineConfig &c) { c.fetchBufferEntries = 0; },
             +[](MachineConfig &c) { c.dbbEntries = 0; },
             +[](MachineConfig &c) { c.mshrEntries = 0; },
             // Cache geometry: no sets would divide by zero.
             +[](MachineConfig &c) { c.l1i.sizeKB = 0; },
             +[](MachineConfig &c) { c.l3.sizeKB = 4'000'000'000u; },
             +[](MachineConfig &c) { c.l2.sizeKB = kMaxCacheSizeKB + 1; },
             +[](MachineConfig &c) { c.l1d.lineBytes = 48; },
             +[](MachineConfig &c) { c.l1i.lineBytes = 0; },
             +[](MachineConfig &c) { c.l2.ways = 0; },
             +[](MachineConfig &c) { c.l3.ways = 65; },
             +[](MachineConfig &c) { c.l1d.ways = 3; },
             +[](MachineConfig &c) { c.l1i.lineBytes = 1 << 16; },
             // Front end and latencies: at least one stage, nothing
             // past kMaxLatency.
             +[](MachineConfig &c) { c.frontendStages = 0; },
             +[](MachineConfig &c) { c.frontendStages = kMaxLatency + 1; },
             +[](MachineConfig &c) { c.l1i.latency = kMaxLatency + 1; },
             +[](MachineConfig &c) { c.l1d.latency = kMaxLatency + 1; },
             +[](MachineConfig &c) { c.l2.latency = kMaxLatency + 1; },
             +[](MachineConfig &c) { c.l3.latency = kMaxLatency + 1; },
             +[](MachineConfig &c) { c.memLatency = kMaxLatency + 1; },
         }) {
        MachineConfig cfg;
        zero(cfg);
        for (bool reference : {false, true}) {
            SimOptions opts;
            opts.forceReference = reference;
            try {
                run(fn, cfg, "gshare3", 1 << 20, opts);
                ADD_FAILURE() << "unusable machine accepted";
            } catch (const SimError &e) {
                EXPECT_EQ(e.kind(), SimError::Kind::Config) << e.what();
            }
        }
    }
}

} // namespace
} // namespace vanguard
