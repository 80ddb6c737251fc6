/**
 * @file
 * Unit tests for the critical-path-first list scheduler: dependence
 * preservation, long-chain front-loading, memory-ordering rules,
 * semantic equivalence on random blocks, and order identity with an
 * all-pairs reference scheduler on random blocks and on every block
 * of every suite kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/decompose.hh"
#include "compiler/scheduler.hh"
#include "compiler/superblock.hh"
#include "core/vanguard.hh"
#include "exec/interpreter.hh"
#include "ir/analysis.hh"
#include "ir/builder.hh"
#include "support/rng.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

/**
 * The reference scheduler: the same critical-path-first policy over a
 * DAG with an edge for *every* conflicting pair and a linear scan of
 * the ready list. O(n^2), but each rule is read off directly.
 * Returns the emitted body order (indices into bb.insts).
 */
std::vector<size_t>
referenceOrder(const BasicBlock &bb)
{
    size_t n = bb.bodySize();
    std::vector<std::vector<size_t>> succs(n);
    std::vector<unsigned> preds_left(n, 0);
    std::vector<unsigned> height(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const Instruction &a = bb.insts[i];
        RegSet a_defs = instDefs(a);
        RegSet a_uses = instUses(a);
        for (size_t j = i + 1; j < n; ++j) {
            const Instruction &b = bb.insts[j];
            bool dep = (a_defs & instUses(b)).any() ||   // RAW
                       (a_uses & instDefs(b)).any() ||   // WAR
                       (a_defs & instDefs(b)).any();     // WAW
            if (!dep && a.isMemRef() && b.isMemRef() &&
                (a.isStore() || b.isStore())) {
                dep = true;
            }
            if (dep) {
                succs[i].push_back(j);
                ++preds_left[j];
            }
        }
    }
    for (size_t k = n; k > 0; --k) {
        size_t i = k - 1;
        unsigned best = 0;
        for (size_t s : succs[i])
            best = std::max(best, height[s]);
        height[i] = best + bb.insts[i].latency();
    }

    std::vector<size_t> ready;
    for (size_t i = 0; i < n; ++i)
        if (preds_left[i] == 0)
            ready.push_back(i);
    std::vector<size_t> order;
    while (!ready.empty()) {
        size_t best_pos = 0;
        for (size_t p = 1; p < ready.size(); ++p) {
            size_t i = ready[p];
            size_t b = ready[best_pos];
            if (height[i] > height[b] ||
                (height[i] == height[b] && i < b)) {
                best_pos = p;
            }
        }
        size_t i = ready[best_pos];
        ready.erase(ready.begin() +
                    static_cast<std::ptrdiff_t>(best_pos));
        order.push_back(i);
        for (size_t s : succs[i])
            if (--preds_left[s] == 0)
                ready.push_back(s);
    }
    return order;
}

/** The ids of bb's instructions in the reference schedule's order. */
std::vector<InstId>
referenceIds(const BasicBlock &bb)
{
    std::vector<InstId> want;
    for (size_t i : referenceOrder(bb))
        want.push_back(bb.insts[i].id);
    if (bb.hasTerminator())
        want.push_back(bb.terminator().id);
    return want;
}

std::vector<InstId>
idsOf(const BasicBlock &bb)
{
    std::vector<InstId> ids;
    for (const Instruction &inst : bb.insts)
        ids.push_back(inst.id);
    return ids;
}

/** scheduleBlock emits exactly the reference order for bb. */
::testing::AssertionResult
matchesReference(const BasicBlock &bb)
{
    std::vector<InstId> want = referenceIds(bb);
    BasicBlock got = bb;
    bool changed = scheduleBlock(got, {});
    if (idsOf(got) != want)
        return ::testing::AssertionFailure()
               << "order differs in block " << bb.name;
    bool reordered = false;
    for (size_t i = 0; i < bb.insts.size(); ++i)
        reordered |= bb.insts[i].id != want[i];
    if (changed != reordered)
        return ::testing::AssertionFailure()
               << "wrong 'reordered' result for block " << bb.name;
    return ::testing::AssertionSuccess();
}

/** A random straight-line block over r1..r8 with r0 as base pointer. */
Function
randomBlock(Rng &rng, int length)
{
    Function fn("rnd");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 256); // base pointer
    for (int i = 0; i < length; ++i) {
        RegId dst = static_cast<RegId>(1 + rng.below(8));
        RegId s1 = static_cast<RegId>(1 + rng.below(8));
        RegId s2 = static_cast<RegId>(1 + rng.below(8));
        switch (rng.below(6)) {
          case 0:
            b.add(dst, s1, s2);
            break;
          case 1:
            b.mul(dst, s1, s2);
            break;
          case 2:
            b.movi(dst, static_cast<int64_t>(rng.below(100)));
            break;
          case 3:
            b.load(dst, 0, static_cast<int64_t>(rng.below(16)) * 8);
            break;
          case 4:
            b.store(0, static_cast<int64_t>(rng.below(16)) * 8, s1);
            break;
          default:
            b.xorOp(dst, s1, s2);
            break;
        }
    }
    b.halt();
    return fn;
}

size_t
positionOf(const BasicBlock &bb, InstId id)
{
    for (size_t i = 0; i < bb.insts.size(); ++i)
        if (bb.insts[i].id == id)
            return i;
    ADD_FAILURE() << "instruction " << id << " lost";
    return SIZE_MAX;
}

TEST(Scheduler, KeepsTerminatorLast)
{
    Function fn("t");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    b.movi(1, 2);
    b.add(2, 0, 1);
    b.halt();
    scheduleBlock(fn.block(0), {});
    EXPECT_EQ(fn.block(0).terminator().op, Opcode::HALT);
    EXPECT_EQ(fn.block(0).insts.size(), 4u);
}

TEST(Scheduler, HoistsLoadAboveIndependentAlu)
{
    // [alu chain][load][use-of-load]: the load (long latency feeding
    // a consumer) should move ahead of the short alu ops.
    Function fn("l");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId a1 = b.movi(0, 1);
    InstId a2 = b.addi(0, 0, 1);
    InstId ld = b.load(2, 5, 0);
    InstId use = b.addi(3, 2, 1);
    b.halt();
    (void)a1;
    scheduleBlock(fn.block(0), {});
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, ld), positionOf(bb, a2));
    EXPECT_LT(positionOf(bb, ld), positionOf(bb, use));
}

TEST(Scheduler, RespectsRawDependence)
{
    Function fn("raw");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId def = b.movi(0, 7);
    InstId use = b.addi(1, 0, 1);
    b.halt();
    scheduleBlock(fn.block(0), {});
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, def), positionOf(bb, use));
}

TEST(Scheduler, RespectsWarAndWaw)
{
    Function fn("waw");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId read = b.addi(1, 0, 1);  // reads r0
    InstId write = b.movi(0, 9);    // WAR with read
    InstId write2 = b.movi(0, 11);  // WAW with write
    b.halt();
    scheduleBlock(fn.block(0), {});
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, read), positionOf(bb, write));
    EXPECT_LT(positionOf(bb, write), positionOf(bb, write2));
}

TEST(Scheduler, LoadsReorderButNotPastStores)
{
    Function fn("mem");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId ld1 = b.load(1, 0, 0);
    InstId st = b.store(0, 8, 1);
    InstId ld2 = b.load(2, 0, 16);
    b.halt();
    scheduleBlock(fn.block(0), {});
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, ld1), positionOf(bb, st));
    EXPECT_LT(positionOf(bb, st), positionOf(bb, ld2));
}

TEST(Scheduler, StoresNeverReorder)
{
    Function fn("st");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 64);
    b.movi(1, 1);
    InstId s1 = b.store(0, 0, 1);
    InstId s2 = b.store(0, 0, 0);
    b.halt();
    scheduleBlock(fn.block(0), {});
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, s1), positionOf(bb, s2));
}

TEST(Scheduler, IndependentLoadsMayReorder)
{
    // A load feeding a long chain should beat an unused load.
    Function fn("ll");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId cheap = b.load(1, 0, 0);
    InstId expensive = b.load(2, 0, 64);
    b.op2(Opcode::MUL, 3, 2, 2);
    b.op2(Opcode::MUL, 3, 3, 3);
    b.halt();
    scheduleBlock(fn.block(0), {});
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, expensive), positionOf(bb, cheap));
}

TEST(Scheduler, TinyBlocksUntouched)
{
    Function fn("tiny");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    b.halt();
    EXPECT_FALSE(scheduleBlock(fn.block(0), {}));
}

TEST(Scheduler, FunctionLevelCountsChangedBlocks)
{
    Function fn("fl");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    b.addi(1, 0, 1);  // dependent: no reorder possible
    InstId ld = b.load(2, 5, 0);
    (void)ld;
    b.halt();
    unsigned changed = scheduleFunction(fn, {});
    EXPECT_EQ(changed, 1u); // the load moves up
    EXPECT_EQ(fn.verify(), "");
}

TEST(Scheduler, RandomBlocksPreserveSemantics)
{
    // Property: scheduling any random straight-line block preserves
    // final register state and memory.
    Rng rng(123);
    for (int trial = 0; trial < 50; ++trial) {
        Function fn = randomBlock(rng, 24);
        Function scheduled = fn;
        scheduleFunction(scheduled, {});
        ASSERT_EQ(scheduled.verify(), "");

        Memory ma(1024), mb(1024);
        Interpreter ia(fn, ma), ib(scheduled, mb);
        ia.run();
        ib.run();
        for (unsigned r = 0; r < 16; ++r)
            ASSERT_EQ(ia.reg(static_cast<RegId>(r)),
                      ib.reg(static_cast<RegId>(r)))
                << "trial " << trial << " r" << r;
        ASSERT_TRUE(ma == mb) << "trial " << trial;
    }
}

TEST(Scheduler, RandomBlocksMatchAllPairsReference)
{
    // The same random blocks as above, plus longer ones: the
    // nearest-conflict DAG must emit the all-pairs DAG's order.
    Rng rng(123);
    for (int trial = 0; trial < 50; ++trial)
        ASSERT_TRUE(matchesReference(randomBlock(rng, 24).block(0)))
            << "trial " << trial;
    Rng long_rng(7);
    for (int trial = 0; trial < 20; ++trial)
        ASSERT_TRUE(
            matchesReference(randomBlock(long_rng, 200).block(0)))
            << "long trial " << trial;
}

TEST(Scheduler, FunctionOverMixedBlockSizesMatchesReference)
{
    // scheduleFunction reuses its working storage from block to block:
    // big, tiny and mid-sized blocks in turn must each still get the
    // order the reference gives that block alone.
    Rng rng(31);
    Function fn("mixed");
    IRBuilder b(fn);
    const int lengths[] = {200, 1, 60, 0, 3, 150, 24, 2, 90};
    for (int length : lengths) {
        b.startBlock("");
        b.movi(0, 256); // base pointer
        Function body = randomBlock(rng, length);
        const BasicBlock &src = body.block(0);
        for (size_t i = 1; i < src.bodySize(); ++i)
            b.append(src.insts[i]);
        b.jmp(static_cast<BlockId>(fn.numBlocks()));
    }
    b.startBlock("exit");
    b.halt();
    ASSERT_EQ(fn.verify(), "");

    Function scheduled = fn;
    unsigned changed = scheduleFunction(scheduled, {});
    unsigned reordered = 0;
    for (const BasicBlock &bb : fn.blocks()) {
        std::vector<InstId> got = idsOf(scheduled.block(bb.id));
        EXPECT_EQ(got, referenceIds(bb)) << "block " << bb.id;
        reordered += got != idsOf(bb);
    }
    EXPECT_EQ(changed, reordered);
    EXPECT_GT(reordered, 3u);
}

TEST(Scheduler, SuiteKernelsMatchAllPairsReference)
{
    // Every block the compile pipeline hands the scheduler — baseline
    // and decomposed IR, superblock pass applied — for all 53 suite
    // kernels.
    VanguardOptions opts;
    size_t blocks = 0;
    unsigned converted = 0;
    for (const auto &suite : {specInt2006(), specFp2006(),
                              specInt2000(), specFp2000()}) {
        for (BenchmarkSpec spec : suite) {
            spec.iterations = 1000;
            TrainArtifacts train = trainBenchmark(spec, opts);
            for (bool decomposed : {false, true}) {
                Function fn = buildKernelCode(spec).fn;
                hoistAboveBiasedBranches(fn, train.profile,
                                         opts.superblock);
                if (decomposed)
                    converted += decomposeBranches(fn, train.selected,
                                                   opts.decompose)
                                     .converted;
                for (const BasicBlock &bb : fn.blocks()) {
                    ASSERT_TRUE(matchesReference(bb))
                        << spec.name << (decomposed ? " exp" : " base");
                    ++blocks;
                }
            }
        }
    }
    EXPECT_GT(blocks, 53u * 2 * 40);
    EXPECT_GT(converted, 53u); // the decomposed IR is really exercised
}

} // namespace
} // namespace vanguard
