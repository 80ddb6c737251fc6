/**
 * @file
 * Local list scheduler for in-order superscalar targets.
 *
 * Reorders each basic block's body (the terminator stays last) to
 * minimize in-order issue stalls: long-latency producers (loads, MUL,
 * FP) are moved as early as dependences allow so their latencies
 * overlap with independent work — the compiler half of the paper's
 * "code generated schedules" story. The Decomposed Branch
 * Transformation creates the *blocks* in which this scheduler can
 * finally overlap load latencies across what used to be a branch.
 *
 * Dependences honored: register RAW/WAR/WAW; loads may reorder with
 * loads but never with stores; stores never reorder with each other.
 * Resources are not modelled: the order is critical-path-first
 * (latency-weighted height, ties to program order), independent of
 * the target's issue width and FU ports.
 */

#ifndef VANGUARD_COMPILER_SCHEDULER_HH
#define VANGUARD_COMPILER_SCHEDULER_HH

#include "ir/function.hh"

namespace vanguard {

/** Target description. The critical-path order does not read it;
 *  the fields remain for existing callers. */
struct ScheduleOptions
{
    unsigned width = 4;     ///< target issue width
    unsigned memPorts = 2;
    unsigned intPorts = 2;
    unsigned fpPorts = 4;
};

/** Schedule one block's body in place. Returns true if reordered. */
bool scheduleBlock(BasicBlock &bb, const ScheduleOptions &opts);

/** Schedule every block of fn. Returns number of blocks reordered. */
unsigned scheduleFunction(Function &fn, const ScheduleOptions &opts);

} // namespace vanguard

#endif // VANGUARD_COMPILER_SCHEDULER_HH
