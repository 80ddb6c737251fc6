/**
 * @file
 * Unit tests for biased-branch (superblock-style) speculation — the
 * Figure-1 upper-left quadrant pass shared by both configurations.
 */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "compiler/superblock.hh"
#include "exec/interpreter.hh"
#include "ir/builder.hh"
#include "profile/profiler.hh"

namespace vanguard {
namespace {

struct BiasedLoop
{
    Function fn{"bl"};
    InstId branch = kNoInst;
    BlockId a = kNoBlock, likely = kNoBlock, unlikely = kNoBlock;
};

/**
 * Loop whose body branch is taken (to `likely`) on 97% of iterations
 * (i % 32 != 0); the likely block computes values dead on the other
 * path.
 */
BiasedLoop
makeBiasedLoop(bool store_in_likely = false)
{
    BiasedLoop out;
    IRBuilder b(out.fn);
    b.startBlock("entry");
    out.a = out.fn.addBlock("A");
    out.likely = out.fn.addBlock("likely");
    out.unlikely = out.fn.addBlock("unlikely");
    BlockId latch = out.fn.addBlock("latch");
    BlockId exit = out.fn.addBlock("exit");

    b.movi(0, 0);      // i
    b.movi(3, 0);      // acc
    b.movi(7, 128);    // pointer
    b.jmp(out.a);

    b.setInsertPoint(out.a);
    b.andi(1, 0, 31);
    b.cmpi(Opcode::CMPNE, 2, 1, 0);
    out.branch = b.br(2, out.likely, out.unlikely);

    b.setInsertPoint(out.likely);
    b.load(4, 7, 0);     // r4 dead on the unlikely path
    b.addi(5, 4, 3);     // r5 dead on the unlikely path
    b.add(3, 3, 5);
    if (store_in_likely)
        b.store(7, 8, 3);
    b.jmp(latch);

    b.setInsertPoint(out.unlikely);
    b.addi(3, 3, 1000);
    b.jmp(latch);

    b.setInsertPoint(latch);
    b.addi(0, 0, 1);
    b.cmpi(Opcode::CMPLT, 6, 0, 200);
    b.br(6, out.a, exit);

    b.setInsertPoint(exit);
    b.halt();
    return out;
}

BranchProfile
profileOf(const Function &fn)
{
    Function copy = fn;
    Memory mem(4096);
    auto pred = makePredictor("gshare3");
    return profileFunction(copy, mem, *pred);
}

TEST(Superblock, HoistsFromDominantSuccessor)
{
    BiasedLoop bl = makeBiasedLoop();
    BranchProfile prof = profileOf(bl.fn);
    size_t a_before = bl.fn.block(bl.a).insts.size();
    SuperblockStats stats = hoistAboveBiasedBranches(bl.fn, prof);
    EXPECT_EQ(stats.branchesSpeculated, 1u);
    EXPECT_GT(stats.instsHoisted, 0u);
    EXPECT_GT(bl.fn.block(bl.a).insts.size(), a_before);
    EXPECT_EQ(bl.fn.verify(), "");
}

TEST(Superblock, HoistedLoadsBecomeSpeculative)
{
    BiasedLoop bl = makeBiasedLoop();
    BranchProfile prof = profileOf(bl.fn);
    hoistAboveBiasedBranches(bl.fn, prof);
    bool found_lds = false;
    for (const auto &inst : bl.fn.block(bl.a).insts)
        found_lds |= inst.op == Opcode::LD_S;
    EXPECT_TRUE(found_lds)
        << "hoisted load must be non-faulting above the branch";
}

TEST(Superblock, PreservesSemantics)
{
    BiasedLoop ref = makeBiasedLoop(true);
    Memory ref_mem(4096);
    Interpreter ref_interp(ref.fn, ref_mem);
    ref_interp.run();

    BiasedLoop txd = makeBiasedLoop(true);
    BranchProfile prof = profileOf(txd.fn);
    hoistAboveBiasedBranches(txd.fn, prof);
    Memory mem(4096);
    Interpreter interp(txd.fn, mem);
    ASSERT_EQ(interp.run().status, RunStatus::Halted);
    for (unsigned r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(ref_interp.reg(static_cast<RegId>(r)),
                  interp.reg(static_cast<RegId>(r)))
            << "r" << r;
    EXPECT_TRUE(ref_mem == mem);
}

TEST(Superblock, SkipsLowBiasBranches)
{
    BiasedLoop bl = makeBiasedLoop();
    // Rewrite the condition to alternate: bias ~0.5.
    for (auto &inst : bl.fn.block(bl.a).insts)
        if (inst.op == Opcode::AND)
            inst.imm = 1;
    BranchProfile prof = profileOf(bl.fn);
    SuperblockStats stats = hoistAboveBiasedBranches(bl.fn, prof);
    EXPECT_EQ(stats.branchesSpeculated, 0u);
}

TEST(Superblock, SkipsWhenDestLiveOnOtherPath)
{
    BiasedLoop bl = makeBiasedLoop();
    // Make r4 (defined in likely) live-in on the unlikely path.
    IRBuilder b(bl.fn);
    auto &unlikely = bl.fn.block(bl.unlikely);
    Instruction use;
    use.op = Opcode::ADD;
    use.id = bl.fn.nextInstId();
    use.dst = 3;
    use.src1 = 3;
    use.src2 = 4;
    unlikely.insts.insert(unlikely.insts.begin(), use);
    ASSERT_EQ(bl.fn.verify(), "");

    BranchProfile prof = profileOf(bl.fn);
    hoistAboveBiasedBranches(bl.fn, prof);
    // r4's def must NOT have been hoisted into A.
    for (const auto &inst : bl.fn.block(bl.a).insts) {
        if (inst.writesDst()) {
            EXPECT_NE(inst.dst, 4);
        }
    }
}

TEST(Superblock, SkipsMultiPredSuccessor)
{
    BiasedLoop bl = makeBiasedLoop();
    // Add a second predecessor to the likely block.
    IRBuilder b(bl.fn);
    BlockId extra = bl.fn.addBlock("extra");
    b.setInsertPoint(extra);
    b.jmp(bl.likely);
    BranchProfile prof = profileOf(bl.fn);
    SuperblockStats stats = hoistAboveBiasedBranches(bl.fn, prof);
    EXPECT_EQ(stats.branchesSpeculated, 0u)
        << "other entries would skip the hoisted code";
}

TEST(Superblock, RespectsMinExecs)
{
    BiasedLoop bl = makeBiasedLoop();
    BranchProfile prof = profileOf(bl.fn);
    SuperblockOptions opts;
    opts.minExecs = 1'000'000; // colder than the loop
    SuperblockStats stats = hoistAboveBiasedBranches(bl.fn, prof, opts);
    EXPECT_EQ(stats.branchesSpeculated, 0u);
}

TEST(Superblock, HoistsFromNotTakenSideWhenDominant)
{
    BiasedLoop bl = makeBiasedLoop();
    // Invert the condition: now fall-through is dominant.
    for (auto &inst : bl.fn.block(bl.a).insts)
        if (inst.op == Opcode::CMPNE)
            inst.op = Opcode::CMPEQ;
    std::swap(bl.fn.block(bl.a).terminator().takenTarget,
              bl.fn.block(bl.a).terminator().fallTarget);
    ASSERT_EQ(bl.fn.verify(), "");
    BranchProfile prof = profileOf(bl.fn);
    SuperblockStats stats = hoistAboveBiasedBranches(bl.fn, prof);
    EXPECT_EQ(stats.branchesSpeculated, 1u);
}

} // namespace
} // namespace vanguard
