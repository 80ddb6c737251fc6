#include "ir/function.hh"

#include <bit>
#include <set>
#include <sstream>

#include "support/logging.hh"

namespace vanguard {

BlockId
Function::addBlock(std::string block_name)
{
    BlockId id = static_cast<BlockId>(blocks_.size());
    BasicBlock bb;
    bb.id = id;
    bb.name = block_name.empty() ? "bb" + std::to_string(id)
                                 : std::move(block_name);
    blocks_.push_back(std::move(bb));
    return id;
}

BasicBlock &
Function::block(BlockId id)
{
    vg_assert(id < blocks_.size(), "bad block id %u", id);
    return blocks_[id];
}

const BasicBlock &
Function::block(BlockId id) const
{
    vg_assert(id < blocks_.size(), "bad block id %u", id);
    return blocks_[id];
}

size_t
Function::instCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb.insts.size();
    return n;
}

std::vector<BlockId>
Function::successors(BlockId id) const
{
    const BasicBlock &bb = block(id);
    if (!bb.hasTerminator())
        return {};
    const Instruction &t = bb.terminator();
    switch (t.op) {
      case Opcode::BR:
      case Opcode::PREDICT:
      case Opcode::RESOLVE:
        return {t.takenTarget, t.fallTarget};
      case Opcode::JMP:
        return {t.takenTarget};
      case Opcode::HALT:
        return {};
      default:
        vg_throw(Invariant, "non-terminator at block end");
    }
}

std::vector<std::vector<BlockId>>
Function::predecessors() const
{
    std::vector<std::vector<BlockId>> preds(blocks_.size());
    for (const auto &bb : blocks_)
        for (BlockId succ : successors(bb.id))
            preds[succ].push_back(bb.id);
    return preds;
}

namespace {

/**
 * Open-addressed set of instruction ids. Its capacity comes from the
 * instruction count, never from the id values: parsed IR may carry any
 * id below kNoInst, so an id-indexed bitmap could be gigabytes.
 * Fibonacci hashing spreads the usual dense ids evenly; the load factor
 * stays below one half, so each insert probes O(1) slots on average.
 */
class InstIdSet
{
  public:
    explicit InstIdSet(size_t count)
    {
        unsigned bits = static_cast<unsigned>(std::bit_width(2 * count | 1));
        slots_.assign(size_t{1} << bits, kNoInst);
        shift_ = 64 - bits;
    }

    /** Add id (never kNoInst); false if it was already present. */
    bool
    insert(InstId id)
    {
        size_t mask = slots_.size() - 1;
        for (size_t i = (id * 0x9E3779B97F4A7C15ull) >> shift_;;
             i = (i + 1) & mask) {
            if (slots_[i] == id)
                return false;
            if (slots_[i] == kNoInst) {
                slots_[i] = id;
                return true;
            }
        }
    }

  private:
    std::vector<InstId> slots_;   ///< kNoInst marks an empty slot
    unsigned shift_ = 0;
};

} // namespace

std::string
Function::verify() const
{
    if (blocks_.empty())
        return "function has no blocks";

    InstIdSet seen_ids(instCount());
    for (const auto &bb : blocks_) {
        auto fail = [&bb](const std::string &what) {
            return "block " + bb.name + ": " + what;
        };
        if (bb.insts.empty())
            return fail("empty block");
        if (!bb.hasTerminator())
            return fail("missing terminator");
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            if (inst.isTerminator() && i != bb.insts.size() - 1)
                return fail("terminator in mid-block at index " +
                            std::to_string(i));
            if (inst.id == kNoInst)
                return fail("instruction without id");
            if (!seen_ids.insert(inst.id))
                return fail("duplicate instruction id " +
                            std::to_string(inst.id));
            if (inst.writesDst() && inst.dst >= kNumRegs)
                return fail("bad dst register");
            for (RegId src : {inst.src1, inst.src2, inst.src3}) {
                if (src != kNoReg && src >= kNumRegs)
                    return fail("bad src register");
            }
            if (inst.isCondBranch() && inst.src1 == kNoReg)
                return fail("conditional branch without condition reg");
            if ((inst.op == Opcode::PREDICT ||
                 inst.op == Opcode::RESOLVE) &&
                inst.origBranch == kNoInst) {
                return fail("decomposed branch without origBranch");
            }
        }
        for (BlockId succ : successors(bb.id)) {
            if (succ == kNoBlock || succ >= blocks_.size())
                return fail("terminator targets invalid block");
        }
    }
    return "";
}

std::string
Function::toString() const
{
    std::ostringstream os;
    os << "function " << name_ << " {\n";
    for (const auto &bb : blocks_) {
        os << bb.name << ":  ; id=" << bb.id << "\n";
        for (const auto &inst : bb.insts)
            os << "    " << inst.toString() << "\n";
    }
    os << "}\n";
    return os.str();
}

RegId
Function::allocUnusedTempReg()
{
    std::set<RegId> used;
    for (const auto &bb : blocks_) {
        for (const auto &inst : bb.insts) {
            if (inst.writesDst())
                used.insert(inst.dst);
            for (RegId src : {inst.src1, inst.src2, inst.src3})
                if (src != kNoReg)
                    used.insert(src);
        }
    }
    for (unsigned probe = 0; probe < kNumTempRegs; ++probe) {
        RegId candidate = tempReg((next_temp_hint_ + probe) %
                                  kNumTempRegs);
        if (!used.count(candidate)) {
            next_temp_hint_ =
                (next_temp_hint_ + probe + 1) % kNumTempRegs;
            return candidate;
        }
    }
    return kNoReg;
}

} // namespace vanguard
