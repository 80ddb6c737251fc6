/**
 * @file
 * The single definition of instruction semantics. Both the functional
 * interpreter (golden model) and the timing simulator's execute stage
 * call evaluate(), so functional and timed execution can never diverge.
 */

#ifndef VANGUARD_EXEC_SEMANTICS_HH
#define VANGUARD_EXEC_SEMANTICS_HH

#include <cstdint>

#include "exec/memory.hh"
#include "isa/instruction.hh"

namespace vanguard {

/** Outcome of evaluating one instruction (no state is mutated). */
struct OpResult
{
    int64_t value = 0;      ///< dst value when the op writes a register
    bool taken = false;     ///< BR/RESOLVE: condition was true
    bool fault = false;     ///< LD/ST out of bounds or DIV by zero
    bool isStore = false;
    uint64_t memAddr = 0;   ///< effective address for memory ops
    int64_t storeValue = 0;
};

/** Simulated integer arithmetic wraps in two's complement. Computing
 *  through uint64_t gives exactly that, where signed overflow would be
 *  undefined behavior. Shared with the fast path (uarch/fast_loop.inc)
 *  so both execution paths wrap the same way. */
inline int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

/**
 * Evaluate an instruction against a register file and memory. Loads
 * read memory; stores compute (addr, value) but do NOT write — the
 * caller applies the store so speculative paths can be squashed.
 *
 * @param inst instruction to evaluate (PREDICT/JMP/HALT/NOP evaluate
 *             to a no-op result).
 * @param regs register file of kNumRegs entries.
 * @param mem  data memory.
 */
OpResult evaluate(const Instruction &inst, const int64_t *regs,
                  const Memory &mem);

} // namespace vanguard

#endif // VANGUARD_EXEC_SEMANTICS_HH
