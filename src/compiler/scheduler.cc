#include "compiler/scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "ir/analysis.hh"
#include "support/logging.hh"

namespace vanguard {

namespace {

static_assert(kNumRegs <= 64, "register sets are walked as one word");

/** Call f(r) for every register in s. */
template <typename F>
void
forEachReg(const RegSet &s, F f)
{
    for (uint64_t bits = s.to_ullong(); bits != 0; bits &= bits - 1)
        f(static_cast<RegId>(std::countr_zero(bits)));
}

/**
 * Working storage for one block's DAG and ordering. scheduleFunction
 * reuses one across all its blocks, so it allocates only while a block
 * outgrows every earlier one; each use resets what it reads.
 */
struct Scratch
{
    std::vector<std::pair<size_t, size_t>> edges; ///< (from, to)
    std::vector<size_t> succBegin;  ///< CSR: succs of i at [i], [i+1]
    std::vector<size_t> succs;
    std::vector<unsigned> predsLeft;
    std::vector<unsigned> pathLength; ///< latency-weighted height
    std::array<std::vector<size_t>, kNumRegs> readsSinceDef;
    std::vector<size_t> loadsSinceStore;
    std::vector<size_t> ready;
    std::vector<size_t> order;
    std::vector<Instruction> body;
};

bool
scheduleBlock(BasicBlock &bb, Scratch &s)
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
    s.edges.clear();
    std::array<size_t, kNumRegs> last_def;
    last_def.fill(kNone);
    for (auto &reads : s.readsSinceDef)
        reads.clear();
    size_t last_store = kNone;
    s.loadsSinceStore.clear();

    for (size_t j = 0; j < n; ++j) {
        const Instruction &inst = bb.insts[j];
        RegSet uses = instUses(inst);
        forEachReg(uses, [&](RegId r) {
            if (last_def[r] != kNone)
                s.edges.emplace_back(last_def[r], j);        // RAW
        });
        forEachReg(instDefs(inst), [&](RegId r) {
            if (last_def[r] != kNone)
                s.edges.emplace_back(last_def[r], j);        // WAW
            for (size_t u : s.readsSinceDef[r])
                s.edges.emplace_back(u, j);                  // WAR
            last_def[r] = j;
            s.readsSinceDef[r].clear();
        });
        forEachReg(uses, [&](RegId r) {
            s.readsSinceDef[r].push_back(j);
        });
        if (inst.isMemRef()) {
            if (last_store != kNone)
                s.edges.emplace_back(last_store, j);
            if (inst.isStore()) {
                for (size_t l : s.loadsSinceStore)
                    s.edges.emplace_back(l, j);
                last_store = j;
                s.loadsSinceStore.clear();
            } else {
                s.loadsSinceStore.push_back(j);
            }
        }
    }

    // Successor lists in CSR form, by counting sort on the source:
    // prefix sums leave succBegin[i] at the end of i's list, and the
    // backward fill walks each one down to its start. Duplicate edges
    // stay, matched by their duplicate predecessor counts.
    s.succBegin.assign(n + 1, 0);
    s.predsLeft.assign(n, 0);
    for (auto [from, to] : s.edges) {
        ++s.succBegin[from];
        ++s.predsLeft[to];
    }
    for (size_t i = 1; i <= n; ++i)
        s.succBegin[i] += s.succBegin[i - 1];
    s.succs.resize(s.edges.size());
    for (auto e = s.edges.rbegin(); e != s.edges.rend(); ++e)
        s.succs[--s.succBegin[e->first]] = e->second;
    auto succs_of = [&s](size_t i) {
        return std::span<const size_t>(s.succs.data() + s.succBegin[i],
                                       s.succBegin[i + 1] -
                                           s.succBegin[i]);
    };

    // Priority: critical-path height (sum of latencies to the end).
    s.pathLength.assign(n, 0);
    for (size_t k = n; k > 0; --k) {
        size_t i = k - 1;
        unsigned best = 0;
        for (size_t succ : succs_of(i))
            best = std::max(best, s.pathLength[succ]);
        s.pathLength[i] = best + bb.insts[i].latency();
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
    // The ready list is a max-heap on (pathLength, then lower index),
    // a strict total order, so the emitted order does not depend on
    // the order in which successors become ready.
    auto lower_priority = [&s](size_t a, size_t b) {
        if (s.pathLength[a] != s.pathLength[b])
            return s.pathLength[a] < s.pathLength[b];
        return a > b;
    };
    s.ready.clear();
    for (size_t i = 0; i < n; ++i)
        if (s.predsLeft[i] == 0)
            s.ready.push_back(i);
    std::make_heap(s.ready.begin(), s.ready.end(), lower_priority);

    s.order.clear();
    while (!s.ready.empty()) {
        std::pop_heap(s.ready.begin(), s.ready.end(), lower_priority);
        size_t i = s.ready.back();
        s.ready.pop_back();
        s.order.push_back(i);
        for (size_t succ : succs_of(i)) {
            if (--s.predsLeft[succ] == 0) {
                s.ready.push_back(succ);
                std::push_heap(s.ready.begin(), s.ready.end(),
                               lower_priority);
            }
        }
    }
    vg_assert(s.order.size() == n, "scheduler lost instructions");

    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
        if (s.order[i] != i) {
            changed = true;
            break;
        }
    }
    if (!changed)
        return false;

    // The terminator stays in place at the end.
    s.body.assign(bb.insts.begin(),
                  bb.insts.begin() + static_cast<ptrdiff_t>(n));
    for (size_t k = 0; k < n; ++k)
        bb.insts[k] = s.body[s.order[k]];
    return true;
}

} // namespace

bool
scheduleBlock(BasicBlock &bb, const ScheduleOptions &)
{
    Scratch scratch;
    return scheduleBlock(bb, scratch);
}

unsigned
scheduleFunction(Function &fn, const ScheduleOptions &)
{
    Scratch scratch;
    unsigned changed = 0;
    for (auto &bb : fn.blocks())
        if (scheduleBlock(bb, scratch))
            ++changed;
    return changed;
}

} // namespace vanguard
