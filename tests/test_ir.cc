/**
 * @file
 * Unit tests for the CFG representation, builder, verifier, and the
 * dominance/liveness analyses.
 */

#include <gtest/gtest.h>

#include "ir/analysis.hh"
#include "ir/builder.hh"
#include "ir/function.hh"

namespace vanguard {
namespace {

/** entry -> {T, F} -> join -> halt diamond. */
Function
makeDiamond()
{
    Function fn("diamond");
    IRBuilder b(fn);
    BlockId entry = b.startBlock("entry");
    BlockId t = fn.addBlock("t");
    BlockId f = fn.addBlock("f");
    BlockId join = fn.addBlock("join");
    (void)entry;
    b.movi(0, 1);
    b.cmpi(Opcode::CMPGT, 1, 0, 0);
    b.br(1, t, f);
    b.setInsertPoint(t);
    b.movi(2, 10);
    b.jmp(join);
    b.setInsertPoint(f);
    b.movi(2, 20);
    b.jmp(join);
    b.setInsertPoint(join);
    b.mov(3, 2);
    b.halt();
    return fn;
}

TEST(Function, BuilderProducesValidCfg)
{
    Function fn = makeDiamond();
    EXPECT_EQ(fn.verify(), "");
    EXPECT_EQ(fn.numBlocks(), 4u);
    EXPECT_EQ(fn.instCount(), 9u);
}

TEST(Function, SuccessorsFollowTerminators)
{
    Function fn = makeDiamond();
    auto entry_succs = fn.successors(0);
    ASSERT_EQ(entry_succs.size(), 2u);
    EXPECT_EQ(entry_succs[0], 1u); // taken
    EXPECT_EQ(entry_succs[1], 2u); // fall-through
    EXPECT_EQ(fn.successors(1), std::vector<BlockId>{3});
    EXPECT_TRUE(fn.successors(3).empty());
}

TEST(Function, PredecessorsInvertSuccessors)
{
    Function fn = makeDiamond();
    auto preds = fn.predecessors();
    EXPECT_TRUE(preds[0].empty());
    EXPECT_EQ(preds[1], std::vector<BlockId>{0});
    EXPECT_EQ(preds[2], std::vector<BlockId>{0});
    ASSERT_EQ(preds[3].size(), 2u);
}

TEST(Function, VerifyCatchesMissingTerminator)
{
    Function fn("bad");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    EXPECT_NE(fn.verify().find("missing terminator"),
              std::string::npos);
}

TEST(Function, VerifyCatchesMidBlockTerminator)
{
    Function fn("bad");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.halt();
    b.movi(0, 1);
    b.halt();
    EXPECT_NE(fn.verify().find("terminator in mid-block"),
              std::string::npos);
}

TEST(Function, VerifyCatchesBadTarget)
{
    Function fn("bad");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.jmp(99);
    EXPECT_NE(fn.verify().find("invalid block"), std::string::npos);
}

TEST(Function, VerifyCatchesCondBranchWithoutCondition)
{
    Function fn("bad");
    IRBuilder b(fn);
    BlockId entry = b.startBlock("entry");
    b.br(kNoReg, entry, entry);
    EXPECT_NE(fn.verify().find("without condition"), std::string::npos);
}

TEST(Function, VerifyCatchesDecomposedWithoutOrigBranch)
{
    Function fn("bad");
    IRBuilder b(fn);
    BlockId entry = b.startBlock("entry");
    b.predict(entry, entry, kNoInst);
    EXPECT_NE(fn.verify().find("without origBranch"),
              std::string::npos);
}

/** A one-block function of n MOVIs and a HALT, for verify() faults. */
Function
straightLine(unsigned n)
{
    Function fn("bad");
    IRBuilder b(fn);
    b.startBlock("entry");
    for (unsigned i = 0; i < n; ++i)
        b.movi(static_cast<RegId>(i % 8), i);
    b.halt();
    return fn;
}

TEST(Function, VerifyCatchesDuplicateIds)
{
    Function fn = straightLine(4);
    fn.block(0).insts[3].id = fn.block(0).insts[1].id;
    EXPECT_EQ(fn.verify(), "block entry: duplicate instruction id 1");

    // Parsed IR may carry any id below kNoInst: sparse ids near the
    // top of the range are valid, and a repeat among them is caught.
    Function sparse = straightLine(4);
    auto &insts = sparse.block(0).insts;
    for (size_t i = 0; i < insts.size(); ++i)
        insts[i].id = kNoInst - 1 - static_cast<InstId>(i);
    EXPECT_EQ(sparse.verify(), "");
    insts[4].id = kNoInst - 1;
    EXPECT_EQ(sparse.verify(), "block entry: duplicate instruction id " +
                                   std::to_string(kNoInst - 1));
}

TEST(Function, VerifyCatchesInstructionWithoutId)
{
    Function fn = straightLine(2);
    fn.block(0).insts[1].id = kNoInst;
    EXPECT_EQ(fn.verify(), "block entry: instruction without id");
}

TEST(Function, VerifyCatchesBadRegisters)
{
    Function dst = straightLine(2);
    dst.block(0).insts[0].dst = static_cast<RegId>(kNumRegs);
    EXPECT_EQ(dst.verify(), "block entry: bad dst register");

    Function fn("bad");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.add(1, 2, 3);
    b.halt();
    fn.block(0).insts[0].src2 = static_cast<RegId>(kNumRegs);
    EXPECT_EQ(fn.verify(), "block entry: bad src register");
}

TEST(Function, VerifyReportsTheFirstFaultInProgramOrder)
{
    // Two faults in one block: the earlier instruction's wins, and
    // within one instruction the checks run in a fixed order.
    Function fn = straightLine(4);
    auto &insts = fn.block(0).insts;
    insts[1].dst = static_cast<RegId>(kNumRegs);
    insts[2].id = insts[0].id;
    EXPECT_EQ(fn.verify(), "block entry: bad dst register");
    insts[1].id = kNoInst;
    EXPECT_EQ(fn.verify(), "block entry: instruction without id");

    // A fault in an earlier block wins over one in a later block.
    Function two = makeDiamond();
    two.block(2).insts[0].id = kNoInst;
    two.block(1).insts[0].dst = static_cast<RegId>(kNumRegs);
    EXPECT_EQ(two.verify(), "block t: bad dst register");
}

TEST(Function, AllocUnusedTempRegSkipsUsedOnes)
{
    Function fn("t");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(tempReg(0), 1);
    b.movi(tempReg(1), 2);
    b.halt();
    RegId got = fn.allocUnusedTempReg();
    EXPECT_TRUE(isTempReg(got));
    EXPECT_NE(got, tempReg(0));
    EXPECT_NE(got, tempReg(1));
}

TEST(Analysis, InstUsesAndDefs)
{
    Instruction st;
    st.op = Opcode::ST;
    st.src1 = 1;
    st.src2 = 2;
    EXPECT_TRUE(instUses(st).test(1));
    EXPECT_TRUE(instUses(st).test(2));
    EXPECT_TRUE(instDefs(st).none());

    Instruction sel;
    sel.op = Opcode::SELECT;
    sel.dst = 0;
    sel.src1 = 1;
    sel.src2 = 2;
    sel.src3 = 3;
    EXPECT_EQ(instUses(sel).count(), 3u);
    EXPECT_TRUE(instDefs(sel).test(0));
}

TEST(Analysis, ReversePostOrderStartsAtEntry)
{
    Function fn = makeDiamond();
    auto rpo = reversePostOrder(fn);
    ASSERT_EQ(rpo.size(), 4u);
    EXPECT_EQ(rpo.front(), 0u);
    EXPECT_EQ(rpo.back(), 3u);
}

TEST(Analysis, ReversePostOrderSkipsUnreachable)
{
    Function fn = makeDiamond();
    IRBuilder b(fn);
    BlockId dead = fn.addBlock("dead");
    b.setInsertPoint(dead);
    b.halt();
    auto rpo = reversePostOrder(fn);
    EXPECT_EQ(rpo.size(), 4u); // dead block not visited
}

TEST(Dominance, DiamondDominators)
{
    Function fn = makeDiamond();
    DominatorTree dom(fn);
    EXPECT_EQ(dom.idom(0), 0u);
    EXPECT_EQ(dom.idom(1), 0u);
    EXPECT_EQ(dom.idom(2), 0u);
    EXPECT_EQ(dom.idom(3), 0u); // join dominated by entry, not t/f
    EXPECT_TRUE(dom.dominates(0, 3));
    EXPECT_FALSE(dom.dominates(1, 3));
    EXPECT_TRUE(dom.dominates(2, 2));
}

TEST(Dominance, LoopDominators)
{
    // entry -> header -> body -> header (backedge), header -> exit
    Function fn("loop");
    IRBuilder b(fn);
    b.startBlock("entry");
    BlockId header = fn.addBlock("header");
    BlockId body = fn.addBlock("body");
    BlockId exit = fn.addBlock("exit");
    b.movi(0, 0);
    b.jmp(header);
    b.setInsertPoint(header);
    b.cmpi(Opcode::CMPLT, 1, 0, 10);
    b.br(1, body, exit);
    b.setInsertPoint(body);
    b.addi(0, 0, 1);
    b.jmp(header);
    b.setInsertPoint(exit);
    b.halt();
    ASSERT_EQ(fn.verify(), "");

    DominatorTree dom(fn);
    EXPECT_EQ(dom.idom(body), header);
    EXPECT_EQ(dom.idom(exit), header);
    EXPECT_TRUE(dom.dominates(header, body));
    EXPECT_FALSE(dom.dominates(body, exit));
}

TEST(Liveness, DiamondLiveSets)
{
    Function fn = makeDiamond();
    Liveness live(fn);
    // r2 defined in both arms, used in join: live-in to join only.
    EXPECT_TRUE(live.liveIn(3).test(2));
    EXPECT_FALSE(live.liveIn(1).test(2));
    // r1 (the condition) dies at the branch.
    EXPECT_FALSE(live.liveIn(1).test(1));
    EXPECT_FALSE(live.liveOut(0).test(1));
}

TEST(Liveness, LiveBeforeWalksBackward)
{
    Function fn("lin");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(1, 5);       // idx 0
    b.addi(2, 1, 1);    // idx 1: uses r1
    b.mov(3, 2);        // idx 2: uses r2
    b.halt();
    Liveness live(fn);
    EXPECT_TRUE(live.liveBefore(fn, 0, 1).test(1));
    EXPECT_FALSE(live.liveBefore(fn, 0, 2).test(1));
    EXPECT_TRUE(live.liveBefore(fn, 0, 2).test(2));
}

TEST(Liveness, LoopCarriedValueStaysLive)
{
    Function fn("loop");
    IRBuilder b(fn);
    b.startBlock("entry");
    BlockId header = fn.addBlock("header");
    BlockId exit = fn.addBlock("exit");
    b.movi(0, 0);
    b.jmp(header);
    b.setInsertPoint(header);
    b.addi(0, 0, 1);
    b.cmpi(Opcode::CMPLT, 1, 0, 10);
    b.br(1, header, exit);
    b.setInsertPoint(exit);
    b.mov(2, 0);
    b.halt();
    Liveness live(fn);
    // r0 is live around the loop.
    EXPECT_TRUE(live.liveIn(header).test(0));
    EXPECT_TRUE(live.liveOut(header).test(0));
}

} // namespace
} // namespace vanguard
