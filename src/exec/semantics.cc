#include "exec/semantics.hh"

#include "support/logging.hh"

namespace vanguard {

namespace {

int64_t
readSrc2(const Instruction &inst, const int64_t *regs)
{
    return inst.hasImmSrc2() ? inst.imm : regs[inst.src2];
}

} // namespace

OpResult
evaluate(const Instruction &inst, const int64_t *regs, const Memory &mem)
{
    OpResult r;
    auto s1 = [&] { return regs[inst.src1]; };

    switch (inst.op) {
      case Opcode::ADD:
        r.value = wrapAdd(s1(), readSrc2(inst, regs));
        break;
      case Opcode::SUB:
        r.value = wrapSub(s1(), readSrc2(inst, regs));
        break;
      case Opcode::AND:
        r.value = s1() & readSrc2(inst, regs);
        break;
      case Opcode::OR:
        r.value = s1() | readSrc2(inst, regs);
        break;
      case Opcode::XOR:
        r.value = s1() ^ readSrc2(inst, regs);
        break;
      case Opcode::SHL:
        r.value = static_cast<int64_t>(
            static_cast<uint64_t>(s1())
            << (static_cast<uint64_t>(readSrc2(inst, regs)) & 63));
        break;
      case Opcode::SHR:
        r.value = static_cast<int64_t>(
            static_cast<uint64_t>(s1()) >>
            (static_cast<uint64_t>(readSrc2(inst, regs)) & 63));
        break;
      case Opcode::MOVI:
        r.value = inst.imm;
        break;
      case Opcode::MOV:
        r.value = s1();
        break;
      case Opcode::SELECT:
        r.value = s1() != 0 ? regs[inst.src2] : regs[inst.src3];
        break;
      case Opcode::CMPEQ:
        r.value = s1() == readSrc2(inst, regs) ? 1 : 0;
        break;
      case Opcode::CMPNE:
        r.value = s1() != readSrc2(inst, regs) ? 1 : 0;
        break;
      case Opcode::CMPLT:
        r.value = s1() < readSrc2(inst, regs) ? 1 : 0;
        break;
      case Opcode::CMPLE:
        r.value = s1() <= readSrc2(inst, regs) ? 1 : 0;
        break;
      case Opcode::CMPGT:
        r.value = s1() > readSrc2(inst, regs) ? 1 : 0;
        break;
      case Opcode::CMPGE:
        r.value = s1() >= readSrc2(inst, regs) ? 1 : 0;
        break;
      case Opcode::MUL:
      case Opcode::FMUL:
        r.value = wrapMul(s1(), readSrc2(inst, regs));
        break;
      case Opcode::DIV:
      case Opcode::FDIV: {
        int64_t denom = readSrc2(inst, regs);
        if (denom == 0) {
            if (inst.op == Opcode::DIV) {
                r.fault = true;
            } else {
                r.value = 0; // FP lane: define x/0 == 0 (no faulting FP)
            }
        } else if (s1() == INT64_MIN && denom == -1) {
            r.value = INT64_MIN; // wrap, matching hardware idiv semantics
        } else {
            r.value = s1() / denom;
        }
        break;
      }
      case Opcode::FADD:
        r.value = wrapAdd(s1(), readSrc2(inst, regs));
        break;
      case Opcode::FSUB:
        r.value = wrapSub(s1(), readSrc2(inst, regs));
        break;
      case Opcode::LD:
      case Opcode::LD_S: {
        uint64_t addr = static_cast<uint64_t>(wrapAdd(s1(), inst.imm));
        r.memAddr = addr;
        if (!mem.inBounds(addr)) {
            if (inst.op == Opcode::LD)
                r.fault = true;
            else
                r.value = 0; // non-faulting speculative load
        } else {
            r.value = mem.read64(addr);
        }
        break;
      }
      case Opcode::ST: {
        uint64_t addr = static_cast<uint64_t>(wrapAdd(s1(), inst.imm));
        r.memAddr = addr;
        r.isStore = true;
        r.storeValue = regs[inst.src2];
        if (!mem.inBounds(addr))
            r.fault = true;
        break;
      }
      case Opcode::BR:
      case Opcode::RESOLVE:
        r.taken = s1() != 0;
        break;
      case Opcode::JMP:
        r.taken = true;
        break;
      case Opcode::PREDICT:
      case Opcode::HALT:
      case Opcode::NOP:
        break;
      default:
        vg_throw(Invariant, "evaluate: bad opcode");
    }
    return r;
}

} // namespace vanguard
