/**
 * @file
 * Per-width timing lanes and the two ways they are timed.
 *
 * TimingLane is the per-width half of the timing model (fetch
 * bandwidth and the fetch-buffer ring, issue slots and ports, the
 * scoreboard, the miss buffer, the DBB free-cycle FIFO, stall counters
 * and watchdog state). Each retired instruction's lane work is one
 * LaneEvent, timed one of two ways:
 *
 *  - TimingLane::retire times it on one lane in 64-bit cycles: the
 *    reference path's timing, and the tests' reference for the columns;
 *  - ColumnLanes<N> (N = 1..4), the fast loop's (uarch/fast_loop.inc)
 *    only lane policy, holds the hot state of every lane as the
 *    columns of one 4 x 32-bit vector, each lane's cycles counted from
 *    its own 64-bit base, so one vector expression advances fetch,
 *    scoreboard and issue for every lane at once. The rest (miss-buffer
 *    heap, DBB FIFO, per-branch stall arrays) stays in TimingLane, in
 *    absolute cycles, and is reached per lane only on the events that
 *    touch it.
 *
 * A run's LaneEvents can be recorded (recordLaneEvents) and replayed
 * both ways (TimingLane::retire, replayLaneEvents), so the tests can
 * hold the columns equal to the reference state for state.
 */

#ifndef VANGUARD_UARCH_LANES_HH
#define VANGUARD_UARCH_LANES_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "exec/decoded_program.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "isa/reg.hh"
#include "support/ring.hh"
#include "uarch/config.hh"

/*
 * The fused step functions are large enough (every handler plus the
 * shared timing tails) that GCC's unit-growth budget stops inlining
 * the per-instruction timing helpers into them, leaving a real call
 * (spills included) per retired instruction.
 * Force the verdict for the helpers that run on every instruction;
 * they are small, single-caller-shaped, and loop-free.
 */
#if defined(__GNUC__) || defined(__clang__)
#define VG_HOT_INLINE inline __attribute__((always_inline))
#else
#define VG_HOT_INLINE inline
#endif

namespace vanguard {

class DirectionPredictor;
class Memory;
struct SimOptions;

/** How a control transfer steers its lane's next fetch. */
enum class Steer : uint8_t
{
    None,     ///< falls through
    BtbHit,   ///< taken, target from the BTB: fetch resumes next cycle
    BtbMiss,  ///< taken, BTB miss: re-steered after decode
    Squash,   ///< mispredicted: fetch resumes when the branch is done
};

/**
 * One retired instruction's lane inputs: the whole argument of
 * TimingLane::retire and of a lane policy's retire(), so a run's lane
 * work can be recorded and replayed.
 */
struct LaneEvent
{
    enum class Kind : uint8_t
    {
        Halt,     ///< fetched, never issues
        Jump,     ///< fetched, never issues; steers fetch
        Predict,  ///< admitted to the DBB at decode; may steer fetch
        Branch,   ///< BR: issues on IntAlu, may steer fetch
        Resolve,  ///< RESOLVE: a Branch that also frees a DBB entry
        FoldMov,  ///< shadow-commit MOV folded at decode: a rename
        Alu,      ///< two sources (src3 unused), writes dst
        Alu3,     ///< three sources, writes dst
        NoDst,    ///< three sources, writes nothing
        Load,     ///< issues on Mem; a miss holds an MSHR
        Store,    ///< issues on Mem, done a cycle later
    };

    LaneEvent() = default;

    /** The operands, FU class, latency and stall key of `d`. */
    LaneEvent(Kind k, unsigned icache_extra, const DecodedInst &d,
              Steer s = Steer::None)
        : kind(k), steer(s), fu(d.fu), src1(d.src1), src2(d.src2),
          src3(d.src3), dst(d.dst), extra(icache_extra),
          latency(d.latency), key(d.stallKey)
    {
    }

    Kind kind = Kind::Halt;
    Steer steer = Steer::None;  ///< Jump/Predict/Branch/Resolve
    uint8_t fu = 0;             ///< FuClass of Alu/Alu3/NoDst
    bool miss = false;          ///< Load: missed L1D, holds an MSHR
    RegId src1 = kNoReg;        ///< FoldMov: the register copied
    RegId src2 = kNoReg;
    RegId src3 = kNoReg;
    RegId dst = kNoReg;
    uint32_t extra = 0;         ///< shared I-cache miss penalty
    uint32_t latency = 0;       ///< execute (Load: load-to-use) latency
    InstId key = kNoInst;       ///< Branch/Resolve stall key
};

/** The cycles TimingLane::retire gave one instruction; one that never
 *  issues reports its decode cycle as both issue and done. */
struct LaneCycles
{
    uint64_t fetch;
    uint64_t issue;
    uint64_t done;
};

/**
 * The per-width half of the timing model; see the file comment. One
 * lane per simulated width; the shared functional/predictor/cache work
 * in TimingCommon (uarch/pipeline.cc) drives them all in lockstep.
 *
 * Queue bounds (all derived from MachineConfig, so the cycle loop
 * never touches the heap):
 *  - dbb_free_cycles <= 2*dbbEntries - 1: a PREDICT drains it below
 *    dbbEntries before inserting, and at most dbbEntries RESOLVEs (the
 *    DBB's own capacity, asserted by its CircularBuffer) can push
 *    before the next PREDICT;
 *  - outstanding_misses <= mshrEntries: the MSHR loop pops below
 *    capacity before any insert. Only the minimum completion cycle is
 *    ever observed, so a flat min-heap is element-for-element
 *    equivalent to the std::multiset it replaces.
 */
struct TimingLane
{
    TimingLane(const MachineConfig &cfg, InstId stall_key_bound,
               bool collect_stalls)
        : fetch_ring(cfg.fetchBufferEntries, 0),
          outstanding_misses(cfg.mshrEntries),
          dbb_free_cycles(2 * size_t{cfg.dbbEntries}),
          fetch_slot_mask(
              (cfg.fetchBufferEntries & (cfg.fetchBufferEntries - 1)) ==
                      0
                  ? cfg.fetchBufferEntries - 1
                  : 0),
          width(cfg.width), frontend_stages(cfg.frontendStages),
          fetch_buffer_entries(cfg.fetchBufferEntries),
          dbb_entries(cfg.dbbEntries), mshr_entries(cfg.mshrEntries)
    {
        port_cap[static_cast<unsigned>(FuClass::IntAlu)] = cfg.intPorts;
        port_cap[static_cast<unsigned>(FuClass::Mem)] = cfg.memPorts;
        port_cap[static_cast<unsigned>(FuClass::Fp)] = cfg.fpPorts;
        port_cap[static_cast<unsigned>(FuClass::None)] = cfg.width;
        // Dense per-branch stall-cycle accumulator, sized once up front
        // so the hot loop never touches the hash map (and does nothing
        // at all when collection is off).
        if (collect_stalls && stall_key_bound != kNoInst)
            stall_cycles_by_id.assign(stall_key_bound + 1, 0);
    }

    /**
     * Fetch one instruction; returns its fetch cycle. `icache_extra`
     * is the shared I-cache miss penalty of this instruction's line
     * (0 on a hit or when the line did not change).
     */
    uint64_t
    fetch(unsigned icache_extra, uint64_t inst_seq)
    {
        uint64_t f = next_fetch_cycle;

        // Fetch buffer back-pressure: slot of inst (seq - N) must have
        // drained.
        if (inst_seq >= fetch_buffer_entries) {
            uint64_t freed = fetch_ring[fetchSlot(inst_seq)];
            if (freed > f) {
                f = freed;
                ++fetch_buffer_stalls;
            }
        }
        f += icache_extra;

        // Bandwidth: width insts per cycle.
        if (f > cur_fetch_cycle) {
            cur_fetch_cycle = f;
            fetched_in_cycle = 0;
        }
        if (fetched_in_cycle >= width) {
            ++cur_fetch_cycle;
            fetched_in_cycle = 0;
        }
        f = cur_fetch_cycle;
        ++fetched_in_cycle;
        next_fetch_cycle = cur_fetch_cycle;
        return f;
    }

    /** The cycle a fetched instruction reaches the issue stage. */
    VG_HOT_INLINE uint64_t
    enterIssue(uint64_t fetch_cycle)
    {
        uint64_t e = fetch_cycle + frontend_stages - 1;
        max_done = std::max(max_done, e);
        return e;
    }

    /** Fetch-ring slot of inst_seq; mask when the buffer is a power of
     *  two (the common 32-entry case), avoiding a division per inst. */
    VG_HOT_INLINE size_t
    fetchSlot(uint64_t inst_seq) const
    {
        return fetch_slot_mask != 0 ? (inst_seq & fetch_slot_mask)
                                    : (inst_seq % fetch_buffer_entries);
    }

    /** Record when an instruction leaves the fetch buffer. */
    VG_HOT_INLINE void
    recordDrain(uint64_t inst_seq, uint64_t leave_cycle)
    {
        fetch_ring[fetchSlot(inst_seq)] = leave_cycle;
    }

    /** Apply a control transfer's Steer (see the enum). */
    VG_HOT_INLINE void
    steer(Steer s, uint64_t fetch_cycle, uint64_t decode_cycle,
          uint64_t done)
    {
        if (s == Steer::Squash)
            next_fetch_cycle = std::max(next_fetch_cycle, done);
        else if (s == Steer::BtbHit)
            next_fetch_cycle = std::max(next_fetch_cycle, fetch_cycle + 1);
        else if (s == Steer::BtbMiss)
            next_fetch_cycle = std::max(next_fetch_cycle, decode_cycle + 1);
    }

    /**
     * DBB admission at decode; stalls the front end while the buffer
     * is full. Returns the (possibly delayed) decode cycle at which the
     * PREDICT actually drains.
     */
    uint64_t
    dbbAdmit(uint64_t decode)
    {
        uint64_t admitted = dbbDrain(decode);
        // A stall holds fetch until the decode slot it waited for. An
        // unstalled PREDICT leaves fetch alone: `decode` is its fetch
        // cycle + 1, and next_fetch_cycle >= that fetch cycle.
        next_fetch_cycle = std::max(next_fetch_cycle, admitted - 1);
        return admitted;
    }

    /** dbbAdmit's FIFO half: the decode cycle at which a DBB entry is
     *  free, without the front-end stall (which the caller applies). */
    uint64_t
    dbbDrain(uint64_t decode)
    {
        while (!dbb_free_cycles.empty() &&
               dbb_free_cycles.front() <= decode) {
            dbb_free_cycles.pop_front();
        }
        while (dbb_free_cycles.size() >= dbb_entries) {
            ++dbb_full_stalls;
            decode = std::max(decode, dbb_free_cycles.front() + 1);
            dbb_free_cycles.pop_front();
        }
        dbb_max_occupancy = std::max<uint64_t>(
            dbb_max_occupancy, dbb_free_cycles.size() + 1);
        return decode;
    }

    /** In-order issue: find the first cycle >= earliest with a free
     *  slot and FU port, and claim them. */
    uint64_t
    computeIssue(uint64_t earliest, FuClass cls)
    {
        uint64_t c = std::max(earliest, cur_issue_cycle);
        unsigned cls_idx = static_cast<unsigned>(cls);
        for (;;) {
            if (c > cur_issue_cycle) {
                cur_issue_cycle = c;
                slots_used = 0;
                std::memset(ports_used, 0, sizeof(ports_used));
            }
            if (slots_used < width &&
                ports_used[cls_idx] < port_cap[cls_idx]) {
                ++slots_used;
                ++ports_used[cls_idx];
                return c;
            }
            ++c;
        }
    }

    VG_HOT_INLINE uint64_t
    srcReady(RegId src1, RegId src2, RegId src3) const
    {
        uint64_t ready = 0;
        if (src1 != kNoReg)
            ready = reg_ready[src1];
        if (src2 != kNoReg && reg_ready[src2] > ready)
            ready = reg_ready[src2];
        if (src3 != kNoReg && reg_ready[src3] > ready)
            ready = reg_ready[src3];
        return ready;
    }

    /**
     * Branch-resolution stall accounting (the paper's ASPCB): cycles
     * between the branch reaching the issue stage and actually
     * issuing — queueing behind older in-flight work plus waiting for
     * its own condition operands. `key` is the branch's accumulator
     * index (BR -> id, RESOLVE -> origBranch); the event count is
     * width-invariant and kept once, in TimingCommon.
     */
    VG_HOT_INLINE void
    noteBranchStall(InstId key, uint64_t issue, uint64_t enter_issue)
    {
        uint64_t stall = issue - enter_issue;
        branch_stall_cycles += stall;
        if (key < stall_cycles_by_id.size())
            stall_cycles_by_id[key] += stall;
    }

    /** MSHR occupancy gating for a load entering issue. */
    uint64_t
    mshrAdmit(uint64_t earliest)
    {
        while (!outstanding_misses.empty() &&
               outstanding_misses.min() <= earliest) {
            outstanding_misses.pop_min();
        }
        while (outstanding_misses.size() >= mshr_entries) {
            ++mshr_stalls;
            earliest = std::max(earliest, outstanding_misses.min());
            outstanding_misses.pop_min();
        }
        return earliest;
    }

    /** Time one retired instruction on this lane; `seq` is its
     *  retirement index. */
    VG_HOT_INLINE LaneCycles
    retire(const LaneEvent &ev, uint64_t seq)
    {
        using Kind = LaneEvent::Kind;
        uint64_t f = fetch(ev.extra, seq);
        uint64_t enter_issue = enterIssue(f);
        switch (ev.kind) {
          case Kind::Halt:
          case Kind::Jump:
          case Kind::FoldMov:
            if (ev.kind == Kind::FoldMov)
                reg_ready[ev.dst] = reg_ready[ev.src1];
            recordDrain(seq, f + 1);
            steer(ev.steer, f, f + 1, 0);
            return {f, f + 1, f + 1};
          case Kind::Predict: {
            uint64_t decode = dbbAdmit(f + 1);
            recordDrain(seq, decode); // dropped after decode
            steer(ev.steer, f, decode, 0);
            return {f, decode, decode};
          }
          case Kind::Branch:
          case Kind::Resolve: {
            uint64_t issue = computeIssue(
                std::max(enter_issue, srcReady(ev.src1, ev.src2, ev.src3)),
                FuClass::IntAlu);
            uint64_t done = issue + 1;
            max_done = std::max(max_done, done);
            recordDrain(seq, issue);
            noteBranchStall(ev.key, issue, enter_issue);
            if (ev.kind == Kind::Resolve)
                dbb_free_cycles.push_back(done);
            steer(ev.steer, f, f + 1, done);
            return {f, issue, done};
          }
          case Kind::Load: {
            uint64_t earliest = mshrAdmit(std::max(
                enter_issue, srcReady(ev.src1, ev.src2, ev.src3)));
            uint64_t issue = computeIssue(earliest, FuClass::Mem);
            uint64_t done = issue + ev.latency;
            if (ev.miss)
                outstanding_misses.push(done);
            reg_ready[ev.dst] = done;
            recordDrain(seq, issue);
            max_done = std::max(max_done, done);
            return {f, issue, done};
          }
          case Kind::Store: {
            uint64_t issue = computeIssue(
                std::max(enter_issue, srcReady(ev.src1, ev.src2, ev.src3)),
                FuClass::Mem);
            // Stores retire through the store buffer; 1 cycle to the
            // pipeline.
            recordDrain(seq, issue);
            max_done = std::max(max_done, issue + 1);
            return {f, issue, issue + 1};
          }
          case Kind::Alu:
          case Kind::Alu3:
          case Kind::NoDst:
            break;
        }
        RegId src3 = ev.kind == Kind::Alu ? kNoReg : ev.src3;
        uint64_t issue = computeIssue(
            std::max(enter_issue, srcReady(ev.src1, ev.src2, src3)),
            static_cast<FuClass>(ev.fu));
        uint64_t done = issue + ev.latency;
        if (ev.kind != Kind::NoDst)
            reg_ready[ev.dst] = done;
        recordDrain(seq, issue);
        max_done = std::max(max_done, done);
        return {f, issue, done};
    }

    // fetch state
    uint64_t next_fetch_cycle = 0;
    uint64_t cur_fetch_cycle = 0;
    unsigned fetched_in_cycle = 0;
    std::vector<uint64_t> fetch_ring;

    // issue state (cur_issue_cycle is also the last issue's cycle)
    uint64_t cur_issue_cycle = 0;
    unsigned slots_used = 0;
    unsigned ports_used[4] = {};
    unsigned port_cap[4] = {};  ///< by FuClass; None -> width
    uint64_t reg_ready[kNumRegs] = {};

    // memory-system state: completion cycles of in-flight misses.
    BoundedMinHeap outstanding_misses;

    // DBB timing state: free cycles of inserted entries, FIFO order.
    RingFifo<uint64_t> dbb_free_cycles;

    // Per-branch stall cycles (only sized when collecting).
    std::vector<uint64_t> stall_cycles_by_id;

    // Width-dependent counters; folded into this lane's SimStats.
    uint64_t fetch_buffer_stalls = 0;
    uint64_t branch_stall_cycles = 0;
    uint64_t dbb_full_stalls = 0;
    uint64_t dbb_max_occupancy = 0;
    uint64_t mshr_stalls = 0;

    // Watchdog state.
    uint64_t max_done = 0;
    uint64_t last_commit_cycle = 0;

    /** fetchBufferEntries-1 when a power of two, else 0 (division
     *  fallback in fetchSlot). */
    const uint64_t fetch_slot_mask;

    // Config fields copied by value so the cycle loop never reloads
    // them through a reference the compiler must assume aliases.
    const unsigned width;
    const unsigned frontend_stages;
    const unsigned fetch_buffer_entries;
    const unsigned dbb_entries;
    const unsigned mshr_entries;
};

/** One 32-bit column per lane (a GCC generic vector). */
typedef int32_t LaneVec __attribute__((vector_size(16)));

/**
 * The lane policy of the fast loop: retire(ev, seq) times one
 * instruction on every lane (`seq` is its retirement index);
 * syncMaxDone(), called after every 16th retirement, makes
 * TimingLane::max_done current for the watchdogs; finish() makes every
 * TimingLane field current. Each lane must equal TimingLane::retire
 * run on it over the same events.
 *
 * Every lane's hot timing state is one column of a 4 x 32-bit vector
 * per field (columns >= N are padding, computed but never read back).
 * Per-lane state that only some events touch — the miss-buffer heap,
 * the DBB free-cycle FIFO, the per-branch stall arrays and the DBB and
 * MSHR counters — stays in TimingLane, in absolute cycles, and is
 * reached lane by lane on those events only; finish() writes the
 * columns back.
 *
 * Invariants that turn every "new cycle?" and "full?" test into an
 * equality compare (each is restated where it is used):
 *  - next_fetch_cycle >= cur_fetch_cycle (only redirects raise it);
 *  - fetched_in_cycle <= width;
 *  - slots_used <= width and ports_used[c] <= port_cap[c].
 * Ports are packed 8 bits per FuClass in one column, which
 * validateLaneConfig's kMaxWidth (2^7 - 1) cap on the width and on
 * every port count makes room for.
 *
 * A cycle column holds the lane's cycle minus the lane's 64-bit base.
 * Every later fetch, issue-stage entry and earliest issue of a lane is
 * at least its cur_fetch_cycle, so a cycle below cur_fetch_cycle - 1
 * can only ever lose a compare or a max: rebase() lifts the base to
 * that floor and clamps whatever lies under it to the floor without
 * changing any later decision. It runs at the 16-retirement gate
 * (syncMaxDone) once some lane's relative max_done passes kRebaseAt.
 * Why no column reaches 2^31 in between: validateLaneConfig caps the
 * front-end depth and every cache and memory latency at kMaxLatency
 * (2^16), so one instruction moves max_done by little more than
 * 3 x 2^16 cycles (I-cache penalty, front end, latency), and a gate
 * finds max_done under 2^30 + 2^22. An instruction a whole fetch
 * buffer older has left the fetch buffer by the current fetch cycle
 * (issued, if it issues: the fetch ring holds that cycle), so with
 * validateLaneConfig's kMaxFetchBufferEntries (256) cap max_done runs
 * less than 2^26 cycles ahead of cur_fetch_cycle: a rebase always
 * brings it back under kRebaseAt. The fetch-buffer and branch-stall counters are
 * deltas, drained into TimingLane at every gate: 16 branch stalls,
 * each under 2^26, stay below 2^31.
 */
template <unsigned N>
class ColumnLanes
{
    static_assert(N >= 1 && N <= 4, "4 x 32-bit columns");

  public:
    /** Load every lane's state into the columns, based at its floor
     *  cur_fetch_cycle - 1 (padding copies lane 0, so it computes like
     *  a live lane and never stalls oddly). Each lane's max_done must
     *  lie within kRebaseAt of its floor, as in any state a run
     *  reaches. */
    explicit ColumnLanes(TimingLane *lanes)
        : lanes_(lanes), ring_(lanes[0].fetch_buffer_entries),
          fetch_slot_mask_(lanes[0].fetch_slot_mask),
          fetch_buffer_entries_(lanes[0].fetch_buffer_entries),
          stall_keys_(lanes[0].stall_cycles_by_id.size())
    {
        for (unsigned l = 0; l < 4; ++l) {
            const TimingLane &ln = lanes[l < N ? l : 0];
            base_[l] = ln.cur_fetch_cycle > 0 ? ln.cur_fetch_cycle - 1 : 0;
            next_fetch_[l] = column(l, ln.next_fetch_cycle);
            cur_fetch_[l] = column(l, ln.cur_fetch_cycle);
            fetched_[l] = static_cast<int32_t>(ln.fetched_in_cycle);
            issue_[l] = column(l, ln.cur_issue_cycle);
            slots_[l] = static_cast<int32_t>(ln.slots_used);
            ports_[l] = 0;
            for (unsigned c = 0; c < 4; ++c) {
                ports_[l] |=
                    static_cast<int32_t>(ln.ports_used[c] << (8 * c));
                port_cap_[c][l] =
                    static_cast<int32_t>(ln.port_cap[c] << (8 * c));
            }
            max_done_[l] = column(l, ln.max_done);
            width_[l] = static_cast<int32_t>(ln.width);
            for (unsigned r = 0; r < kNumRegs; ++r)
                reg_ready_[r][l] = column(l, ln.reg_ready[r]);
            for (size_t s = 0; s < ring_.size(); ++s)
                ring_[s].v[l] = column(l, ln.fetch_ring[s]);
            // Padding never holds a miss, so it never needs admission.
            miss_min_[l] = kNone;
            miss_count_[l] = 0;
            mshr_cap_[l] = static_cast<int32_t>(ln.mshr_entries);
        }
        for (unsigned l = 0; l < N; ++l)
            refreshMisses(l);
        fetch_stalls_ = splat(0);
        branch_stalls_ = splat(0);
        enter_offset_ =
            splat(static_cast<int32_t>(lanes[0].frontend_stages) - 1);
        // Registers past kNumRegs (kNoReg) are never written: reading
        // one yields 0, which is what srcReady() skips it as.
        for (unsigned r = kNumRegs; r < 256; ++r)
            reg_ready_[r] = splat(0);
    }

    VG_HOT_INLINE void
    retire(const LaneEvent &ev, uint64_t seq)
    {
        LaneVec &ring = ring_[slot(seq)].v;
        LaneVec f = fetch(ev.extra, seq, ring);
        LaneVec enter = f + enter_offset_;
        // Every issuing kind updates max_done with its `done`, which is
        // at least `enter`; only the others take `enter` itself.
        switch (ev.kind) {
          case Kind::Halt:
          case Kind::Jump:
          case Kind::FoldMov:
            if (ev.kind == Kind::FoldMov)
                reg_ready_[ev.dst] = reg_ready_[ev.src1];
            max_done_ = vmax(max_done_, enter);
            ring = f + 1;
            steer(ev.steer, f, f + 1, f);
            return;
          case Kind::Predict: {
            max_done_ = vmax(max_done_, enter);
            LaneVec decode = f + 1;
            for (unsigned l = 0; l < N; ++l)
                decode[l] =
                    column(l, lanes_[l].dbbDrain(cycle(l, decode[l])));
            // TimingLane::dbbAdmit's front-end stall; a no-op for lanes
            // that did not stall (next_fetch >= f == decode - 1).
            next_fetch_ = vmax(next_fetch_, decode - 1);
            ring = decode; // dropped after decode
            steer(ev.steer, f, decode, f);
            return;
          }
          case Kind::Branch:
          case Kind::Resolve: {
            LaneVec issue = computeIssue(vmax(enter, srcReady(ev)),
                                         FuClass::IntAlu);
            LaneVec done = issue + 1;
            max_done_ = vmax(max_done_, done);
            ring = issue;
            LaneVec stall = issue - enter;
            branch_stalls_ += stall;
            if (ev.key < stall_keys_) {
                for (unsigned l = 0; l < N; ++l)
                    lanes_[l].stall_cycles_by_id[ev.key] +=
                        static_cast<uint64_t>(stall[l]);
            }
            if (ev.kind == Kind::Resolve) {
                for (unsigned l = 0; l < N; ++l)
                    lanes_[l].dbb_free_cycles.push_back(cycle(l, done[l]));
            }
            steer(ev.steer, f, f + 1, done);
            return;
          }
          case Kind::Load: {
            LaneVec earliest = vmax(enter, srcReady(ev));
            // A lane needs MSHR admission when its oldest miss is done
            // by `earliest` or its buffer is full (count <= capacity).
            if (any((miss_min_ <= earliest) |
                    (miss_count_ == mshr_cap_))) {
                for (unsigned l = 0; l < N; ++l) {
                    earliest[l] = column(
                        l, lanes_[l].mshrAdmit(cycle(l, earliest[l])));
                    refreshMisses(l);
                }
            }
            LaneVec issue = computeIssue(earliest, FuClass::Mem);
            LaneVec done = issue + static_cast<int32_t>(ev.latency);
            if (ev.miss) {
                for (unsigned l = 0; l < N; ++l) {
                    lanes_[l].outstanding_misses.push(cycle(l, done[l]));
                    refreshMisses(l);
                }
            }
            reg_ready_[ev.dst] = done;
            ring = issue;
            max_done_ = vmax(max_done_, done);
            return;
          }
          case Kind::Store: {
            LaneVec issue =
                computeIssue(vmax(enter, srcReady(ev)), FuClass::Mem);
            // Stores retire through the store buffer; 1 cycle to the
            // pipeline.
            ring = issue;
            max_done_ = vmax(max_done_, issue + 1);
            return;
          }
          case Kind::Alu:
          case Kind::Alu3:
          case Kind::NoDst: {
            LaneVec ready = ev.kind == Kind::Alu
                ? vmax(reg_ready_[ev.src1], reg_ready_[ev.src2])
                : srcReady(ev);
            LaneVec issue = computeIssue(vmax(enter, ready),
                                         static_cast<FuClass>(ev.fu));
            LaneVec done = issue + static_cast<int32_t>(ev.latency);
            if (ev.kind != Kind::NoDst)
                reg_ready_[ev.dst] = done;
            ring = issue;
            max_done_ = vmax(max_done_, done);
            return;
          }
        }
    }

    /** The 16-retirement gate: rebase if a lane needs it, publish
     *  max_done for the watchdogs and drain the counter columns. */
    VG_HOT_INLINE void
    syncMaxDone()
    {
        if (any(max_done_ > splat(kRebaseAt)))
            rebase();
        for (unsigned l = 0; l < N; ++l)
            lanes_[l].max_done = cycle(l, max_done_[l]);
        drainCounters();
    }

    /** Write every column back into its TimingLane; a cycle clamped by
     *  a rebase reads back as base(l). */
    void
    finish()
    {
        drainCounters();
        for (unsigned l = 0; l < N; ++l) {
            TimingLane &ln = lanes_[l];
            ln.next_fetch_cycle = cycle(l, next_fetch_[l]);
            ln.cur_fetch_cycle = cycle(l, cur_fetch_[l]);
            ln.fetched_in_cycle = static_cast<unsigned>(fetched_[l]);
            ln.cur_issue_cycle = cycle(l, issue_[l]);
            ln.slots_used = static_cast<unsigned>(slots_[l]);
            for (unsigned c = 0; c < 4; ++c)
                ln.ports_used[c] =
                    (static_cast<uint32_t>(ports_[l]) >> (8 * c)) &
                    kPortField;
            ln.max_done = cycle(l, max_done_[l]);
            for (unsigned r = 0; r < kNumRegs; ++r)
                ln.reg_ready[r] = cycle(l, reg_ready_[r][l]);
            for (size_t s = 0; s < ring_.size(); ++s)
                ln.fetch_ring[s] = cycle(l, ring_[s].v[l]);
        }
    }

    /** Lane l's base: its cycle columns count from here. */
    uint64_t base(unsigned l) const { return base_[l]; }

  private:
    using Kind = LaneEvent::Kind;

    static constexpr int32_t kNone = INT32_MAX;
    static constexpr int32_t kRebaseAt = int32_t{1} << 30;
    // A port field is 8 bits wide but holds at most 2^7 - 1, so the
    // packed column stays non-negative and never overflows.
    static constexpr unsigned kPortField = 0x7f;
    static_assert(kMaxWidth <= kPortField, "a port cap fills its field");
    static_assert(kMaxFetchBufferEntries <= 256, "see the class comment");

    /** Lane l's absolute cycle `x` as a column value (clamped at the
     *  lane's base). */
    VG_HOT_INLINE int32_t
    column(unsigned l, uint64_t x) const
    {
        return x > base_[l] ? static_cast<int32_t>(x - base_[l]) : 0;
    }

    /** Lane l's column value `x` as an absolute cycle. */
    VG_HOT_INLINE uint64_t
    cycle(unsigned l, int32_t x) const
    {
        return base_[l] + static_cast<uint32_t>(x);
    }

    static VG_HOT_INLINE LaneVec
    splat(int32_t x)
    {
        return LaneVec{x, x, x, x};
    }

    static VG_HOT_INLINE LaneVec
    vmax(LaneVec a, LaneVec b)
    {
        return a > b ? a : b;
    }

    /** True when any column of a compare mask is set. */
    static VG_HOT_INLINE bool
    any(LaneVec mask)
    {
        uint64_t halves[2];
        std::memcpy(halves, &mask, sizeof(halves));
        return (halves[0] | halves[1]) != 0;
    }

    VG_HOT_INLINE size_t
    slot(uint64_t seq) const
    {
        return fetch_slot_mask_ != 0 ? (seq & fetch_slot_mask_)
                                     : (seq % fetch_buffer_entries_);
    }

    VG_HOT_INLINE LaneVec
    srcReady(const LaneEvent &ev) const
    {
        return vmax(vmax(reg_ready_[ev.src1], reg_ready_[ev.src2]),
                    reg_ready_[ev.src3]);
    }

    /** TimingLane::fetch for every column; `ring` is seq's slot. */
    VG_HOT_INLINE LaneVec
    fetch(unsigned extra, uint64_t seq, const LaneVec &ring)
    {
        LaneVec f = next_fetch_;
        if (seq >= fetch_buffer_entries_) {
            LaneVec freed = ring;
            LaneVec stalled = freed > f;
            f = stalled ? freed : f;
            fetch_stalls_ -= stalled; // masks are -1
        }
        f += static_cast<int32_t>(extra);
        // next_fetch >= cur_fetch, so f >= cur_fetch: a new fetch cycle
        // is f != cur_fetch, and cur_fetch becomes f either way.
        fetched_ &= f == cur_fetch_;
        // fetched <= width, so "fetched >= width" is equality.
        LaneVec full = fetched_ == width_;
        f -= full;
        fetched_ = (fetched_ & ~full) + 1;
        cur_fetch_ = f;
        next_fetch_ = f;
        return f;
    }

    /** TimingLane::computeIssue for every column. */
    VG_HOT_INLINE LaneVec
    computeIssue(LaneVec earliest, FuClass fu)
    {
        unsigned cls = static_cast<unsigned>(fu);
        // c >= cur_issue, so a new issue cycle is c != cur_issue.
        LaneVec c = vmax(earliest, issue_);
        LaneVec same = c == issue_;
        LaneVec slots = slots_ & same;
        LaneVec ports = ports_ & same;
        // slots <= width and ports[cls] <= cap[cls]: "no free slot or
        // port" is an equality; the next cycle always has both.
        LaneVec field =
            splat(static_cast<int32_t>(kPortField << (8 * cls)));
        LaneVec full =
            (slots == width_) | ((ports & field) == port_cap_[cls]);
        c -= full;
        slots = (slots & ~full) + 1;
        ports = (ports & ~full) + splat(int32_t{1} << (8 * cls));
        slots_ = slots;
        ports_ = ports;
        issue_ = c;
        return c;
    }

    VG_HOT_INLINE void
    steer(Steer s, LaneVec f, LaneVec decode, LaneVec done)
    {
        if (s == Steer::Squash)
            next_fetch_ = vmax(next_fetch_, done);
        else if (s == Steer::BtbHit)
            next_fetch_ = vmax(next_fetch_, f + 1);
        else if (s == Steer::BtbMiss)
            next_fetch_ = vmax(next_fetch_, decode + 1);
    }

    /** Reload lane l's miss-buffer gate from its heap (a miss done
     *  before the base reads as the base: it still gates admission). */
    VG_HOT_INLINE void
    refreshMisses(unsigned l)
    {
        const BoundedMinHeap &h = lanes_[l].outstanding_misses;
        miss_min_[l] = h.empty() ? kNone : column(l, h.min());
        miss_count_[l] = static_cast<int32_t>(h.size());
    }

    /** Lift every column's base to cur_fetch_cycle - 1, clamping what
     *  lies below it (see the class comment). */
    void
    rebase()
    {
        LaneVec floor = vmax(cur_fetch_ - 1, splat(0));
        auto lower = [&floor](LaneVec &x) {
            x = vmax(x - floor, splat(0));
        };
        lower(next_fetch_);
        lower(cur_fetch_);
        lower(issue_);
        lower(max_done_);
        for (unsigned r = 0; r < kNumRegs; ++r)
            lower(reg_ready_[r]);
        for (Slot &s : ring_)
            lower(s.v);
        for (unsigned l = 0; l < 4; ++l)
            base_[l] += static_cast<uint32_t>(floor[l]);
        for (unsigned l = 0; l < N; ++l)
            refreshMisses(l);
    }

    /** Add the counter columns to their TimingLane fields and zero
     *  them. */
    VG_HOT_INLINE void
    drainCounters()
    {
        for (unsigned l = 0; l < N; ++l) {
            lanes_[l].fetch_buffer_stalls +=
                static_cast<uint32_t>(fetch_stalls_[l]);
            lanes_[l].branch_stall_cycles +=
                static_cast<uint32_t>(branch_stalls_[l]);
        }
        fetch_stalls_ = splat(0);
        branch_stalls_ = splat(0);
    }

    TimingLane *lanes_;
    uint64_t base_[4];

    // fetch
    LaneVec next_fetch_, cur_fetch_, fetched_, fetch_stalls_;
    // issue, packed ports, scoreboard
    LaneVec issue_, slots_, ports_, max_done_, branch_stalls_;
    // miss-buffer gate: earliest completion (kNone if empty) and count
    LaneVec miss_min_, miss_count_;
    // per-lane constants
    LaneVec width_, mshr_cap_, enter_offset_;
    LaneVec port_cap_[4];  ///< cap[c] << 8c
    LaneVec reg_ready_[256]; ///< by RegId; kNoReg and up read 0
    // The fetch ring, one column per slot.
    struct Slot
    {
        LaneVec v;
    };
    std::vector<Slot> ring_;

    const uint64_t fetch_slot_mask_;
    const unsigned fetch_buffer_entries_;
    const size_t stall_keys_;
};

/**
 * Retire a recorded stream through column lanes on the fast loop's
 * schedule (syncMaxDone after every 16th retirement), then finish.
 */
template <unsigned N>
void
replayLaneEvents(ColumnLanes<N> &lanes, std::span<const LaneEvent> events)
{
    for (size_t seq = 0; seq < events.size(); ++seq) {
        lanes.retire(events[seq], seq);
        if (((seq + 1) & 15) == 0)
            lanes.syncMaxDone();
    }
    lanes.finish();
}

/**
 * Run the fast path once on `cfg` and return the LaneEvent of every
 * retired instruction, in order: the inputs the column lanes and
 * TimingLane::retire consume for this program, seed and shared machine.
 */
std::vector<LaneEvent> recordLaneEvents(const DecodedProgram &decoded,
                                        Memory &mem,
                                        DirectionPredictor &predictor,
                                        const MachineConfig &cfg,
                                        const SimOptions &opts);

} // namespace vanguard

#endif // VANGUARD_UARCH_LANES_HH
