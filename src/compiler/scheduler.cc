#include "compiler/scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "ir/analysis.hh"
#include "support/logging.hh"

namespace vanguard {

namespace {

struct DagNode
{
    std::vector<size_t> succs;
    unsigned preds_left = 0;
    unsigned pathLength = 0;    ///< latency-weighted height to block end
};

static_assert(kNumRegs <= 64, "register sets are walked as one word");

/** Call f(r) for every register in s. */
template <typename F>
void
forEachReg(const RegSet &s, F f)
{
    for (uint64_t bits = s.to_ullong(); bits != 0; bits &= bits - 1)
        f(static_cast<RegId>(std::countr_zero(bits)));
}

} // namespace

bool
scheduleBlock(BasicBlock &bb, const ScheduleOptions &)
{
    size_t n = bb.bodySize();
    if (n < 2)
        return false;

    // Build the dependence DAG over the block body. Each instruction
    // links only to its nearest conflicts: the last def of each source
    // (RAW), the last def of its destination and the reads of it since
    // (WAW, WAR), and for memory ops the last store plus, for a store,
    // the loads since it (stores are ordering points). Every farther
    // conflict is implied through those, so the transitive closure —
    // and with it every height and the emitted order — is the same as
    // linking all conflicting pairs, in time linear in the edges.
    constexpr size_t kNone = SIZE_MAX;
    std::vector<DagNode> dag(n);
    auto add_edge = [&](size_t from, size_t to) {
        dag[from].succs.push_back(to);
        ++dag[to].preds_left;
    };
    std::array<size_t, kNumRegs> last_def;
    last_def.fill(kNone);
    std::array<std::vector<size_t>, kNumRegs> reads_since_def;
    size_t last_store = kNone;
    std::vector<size_t> loads_since_store;

    for (size_t j = 0; j < n; ++j) {
        const Instruction &inst = bb.insts[j];
        RegSet uses = instUses(inst);
        forEachReg(uses, [&](RegId r) {
            if (last_def[r] != kNone)
                add_edge(last_def[r], j);                    // RAW
        });
        forEachReg(instDefs(inst), [&](RegId r) {
            if (last_def[r] != kNone)
                add_edge(last_def[r], j);                    // WAW
            for (size_t u : reads_since_def[r])
                add_edge(u, j);                              // WAR
            last_def[r] = j;
            reads_since_def[r].clear();
        });
        forEachReg(uses, [&](RegId r) {
            reads_since_def[r].push_back(j);
        });
        if (inst.isMemRef()) {
            if (last_store != kNone)
                add_edge(last_store, j);
            if (inst.isStore()) {
                for (size_t l : loads_since_store)
                    add_edge(l, j);
                last_store = j;
                loads_since_store.clear();
            } else {
                loads_since_store.push_back(j);
            }
        }
    }

    // Priority: critical-path height (sum of latencies to the end).
    for (size_t k = n; k > 0; --k) {
        size_t i = k - 1;
        unsigned best = 0;
        for (size_t s : dag[i].succs)
            best = std::max(best, dag[s].pathLength);
        dag[i].pathLength = best + bb.insts[i].latency();
    }

    // Critical-path-first topological ordering.
    //
    // An in-order superscalar issues greedily in program order and
    // blocks at the first not-ready instruction, so the best static
    // order front-loads the *longest dependence chains* (loads, the
    // condition slice's producers). A cycle-packing scheduler — the
    // right choice for VLIW slotting — is actively harmful here: it
    // fills early slots with short ready ops whose operands may arrive
    // late at run time (e.g. a resolution slice waiting on a missing
    // load), and head-of-line blocking then stalls the independent
    // long-latency work queued behind them. Ordering purely by
    // latency-weighted height places speculatively hoisted loads ahead
    // of the branch-resolution slice, which is exactly the overlap the
    // Decomposed Branch Transformation exists to create (paper Sec. 3:
    // "overlap the pushed down contents of block A with the hoisted
    // contents of blocks B and C").
    //
    // The ready list is a max-heap on (pathLength, then lower index).
    auto lower_priority = [&](size_t a, size_t b) {
        if (dag[a].pathLength != dag[b].pathLength)
            return dag[a].pathLength < dag[b].pathLength;
        return a > b;
    };
    std::vector<size_t> ready;
    for (size_t i = 0; i < n; ++i)
        if (dag[i].preds_left == 0)
            ready.push_back(i);
    std::make_heap(ready.begin(), ready.end(), lower_priority);

    std::vector<size_t> order;
    order.reserve(n);
    while (!ready.empty()) {
        std::pop_heap(ready.begin(), ready.end(), lower_priority);
        size_t i = ready.back();
        ready.pop_back();
        order.push_back(i);
        for (size_t s : dag[i].succs) {
            if (--dag[s].preds_left == 0) {
                ready.push_back(s);
                std::push_heap(ready.begin(), ready.end(),
                               lower_priority);
            }
        }
    }
    vg_assert(order.size() == n, "scheduler lost instructions");

    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
        if (order[i] != i) {
            changed = true;
            break;
        }
    }
    if (!changed)
        return false;

    std::vector<Instruction> new_body;
    new_body.reserve(bb.insts.size());
    for (size_t i : order)
        new_body.push_back(bb.insts[i]);
    new_body.push_back(bb.terminator());
    bb.insts = std::move(new_body);
    return true;
}

unsigned
scheduleFunction(Function &fn, const ScheduleOptions &opts)
{
    unsigned changed = 0;
    for (auto &bb : fn.blocks())
        if (scheduleBlock(bb, opts))
            ++changed;
    return changed;
}

} // namespace vanguard
