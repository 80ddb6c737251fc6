#include "uarch/pipeline.hh"

#include <cstdlib>
#include <cstring>
#include <span>

/*
 * Compile-time availability of the computed-goto (threaded-code)
 * dispatcher for the fast path. GCC/Clang builds default to on; the
 * CMake option VANGUARD_THREADED=OFF defines it to 0 and any other
 * compiler falls back to the portable switch. Runtime opt-out (the
 * SimOptions::noThreadedDispatch flag or VANGUARD_THREADED=0 in the
 * environment) selects the switch dispatcher inside a threaded build
 * without recompiling.
 */
#ifndef VANGUARD_THREADED_DISPATCH
#if defined(__GNUC__) || defined(__clang__)
#define VANGUARD_THREADED_DISPATCH 1
#else
#define VANGUARD_THREADED_DISPATCH 0
#endif
#endif

#include "bpred/btb.hh"
#include "bpred/dispatch.hh"
#include "exec/decoded_program.hh"
#include "exec/semantics.hh"
#include "support/fault_inject.hh"
#include "support/logging.hh"
#include "support/ring.hh"

/*
 * The fused step functions are large enough (every handler plus the
 * replicated threaded-dispatch tails) that GCC's unit-growth budget
 * stops inlining the per-instruction timing helpers into them,
 * leaving a real call (spills included) per retired instruction.
 * Force the verdict for the helpers that run on every instruction;
 * they are small, single-caller-shaped, and loop-free.
 */
#if defined(__GNUC__) || defined(__clang__)
#define VG_HOT_INLINE inline __attribute__((always_inline))
#else
#define VG_HOT_INLINE inline
#endif

namespace vanguard {

namespace {

/**
 * Largest stall-accounting key any BR/RESOLVE in prog reports (BR ->
 * its own id, RESOLVE -> origBranch), or kNoInst when there is none.
 * Sizes the dense per-branch stall accumulators; both execution paths
 * must size them identically for bit-identical SimStats.
 */
InstId
stallKeyBound(const Program &prog)
{
    InstId max_id = kNoInst;
    for (size_t i = 0; i < prog.size(); ++i) {
        const Instruction &inst = prog.at(i).inst;
        InstId key = kNoInst;
        if (inst.op == Opcode::BR)
            key = inst.id;
        else if (inst.op == Opcode::RESOLVE)
            key = inst.origBranch;
        if (key != kNoInst && (max_id == kNoInst || key > max_id))
            max_id = key;
    }
    return max_id;
}

/**
 * Reject machine shapes the timing model cannot make progress on: a
 * zero issue width or port count spins computeIssue forever, and a
 * zero-entry fetch buffer, DBB or miss buffer breaks the queue bounds
 * below.
 */
void
validateLaneConfig(const MachineConfig &cfg)
{
    struct Field
    {
        const char *name;
        unsigned value;
    };
    for (const Field &f :
         {Field{"width", cfg.width}, Field{"memPorts", cfg.memPorts},
          Field{"intPorts", cfg.intPorts}, Field{"fpPorts", cfg.fpPorts},
          Field{"fetchBufferEntries", cfg.fetchBufferEntries},
          Field{"dbbEntries", cfg.dbbEntries},
          Field{"mshrEntries", cfg.mshrEntries}}) {
        if (f.value == 0)
            vg_throw(Config, "machine config: %s must be at least 1",
                     f.name);
    }
}

/**
 * Lanes share one functional, predictor and cache pass, so their
 * machines may differ only in what that pass never reads: the issue
 * width and the execution-port counts.
 */
const MachineConfig &
validateLanes(std::span<const MachineConfig> cfgs)
{
    if (cfgs.empty() || cfgs.size() > kMaxFusedLanes)
        vg_throw(Config, "fused simulation takes 1..%u lanes, got %zu",
                 kMaxFusedLanes, cfgs.size());
    for (const MachineConfig &cfg : cfgs) {
        validateLaneConfig(cfg);
        MachineConfig same = cfg;
        same.width = cfgs[0].width;
        same.memPorts = cfgs[0].memPorts;
        same.intPorts = cfgs[0].intPorts;
        same.fpPorts = cfgs[0].fpPorts;
        if (!(same == cfgs[0]))
            vg_throw(Config,
                     "fused lanes may differ only in width and ports "
                     "(width %u lane differs from width %u lane)",
                     cfg.width, cfgs[0].width);
    }
    return cfgs[0];
}

/**
 * The per-width half of the timing model: everything a cycle decision
 * reads or writes that depends on the issue width — fetch bandwidth
 * and the fetch-buffer ring, issue slots and ports, the scoreboard,
 * the miss buffer, the DBB free-cycle FIFO, the lane's stall counters
 * and its watchdog state. One lane per simulated width; the shared
 * functional/predictor/cache work in TimingCommon drives them all in
 * lockstep.
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

    /** Steer fetch for a taken (correctly-predicted) control transfer;
     *  `btb_hit` comes from the shared BTB probe. */
    VG_HOT_INLINE void
    takenRedirect(bool btb_hit, uint64_t fetch_cycle,
                  uint64_t decode_cycle)
    {
        next_fetch_cycle =
            std::max(next_fetch_cycle,
                     btb_hit ? fetch_cycle + 1 : decode_cycle + 1);
    }

    /** Squash-and-redirect after a mispredict resolves at `done`. */
    VG_HOT_INLINE void
    mispredictRedirect(uint64_t done)
    {
        next_fetch_cycle = std::max(next_fetch_cycle, done);
    }

    /**
     * DBB admission at decode; stalls the front end while the buffer
     * is full. Returns the (possibly delayed) decode cycle at which the
     * PREDICT actually drains.
     */
    uint64_t
    dbbAdmit(uint64_t decode)
    {
        while (!dbb_free_cycles.empty() &&
               dbb_free_cycles.front() <= decode) {
            dbb_free_cycles.pop_front();
        }
        while (dbb_free_cycles.size() >= dbb_entries) {
            ++dbb_full_stalls;
            decode = std::max(decode, dbb_free_cycles.front() + 1);
            dbb_free_cycles.pop_front();
            next_fetch_cycle = std::max(next_fetch_cycle, decode - 1);
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
        uint64_t c = std::max(earliest, prev_issue_cycle);
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
                prev_issue_cycle = c;
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

    // fetch state
    uint64_t next_fetch_cycle = 0;
    uint64_t cur_fetch_cycle = 0;
    unsigned fetched_in_cycle = 0;
    std::vector<uint64_t> fetch_ring;

    // issue state
    uint64_t prev_issue_cycle = 0;
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

/**
 * Cycle-accounting machinery shared by both execution paths: the
 * width-invariant machine state (caches, BTB, DBB entries, the current
 * fetch line, the width-invariant counters) plus one TimingLane per
 * simulated width. The two subclasses differ only in how the
 * committed instruction stream is produced — ReferenceModel interprets
 * Instruction records through a ProgramExecutor with std::function
 * hooks (the retained pre-decode baseline, always one lane),
 * FastModel runs a fused decode/execute/time loop over a
 * DecodedProgram for a compile-time lane count — so every cycle-level
 * decision lives here or in TimingLane exactly once and bit-identity
 * between the paths holds by construction.
 *
 * Why lanes can share one pass: the committed stream, the predictor's
 * inputs (predict/update order and outcomes), and the cache and BTB
 * access sequences are all functions of program order alone, never of
 * cycle numbers, so every width sees the same ones.
 */
class TimingCommon
{
  protected:
    TimingCommon(DirectionPredictor &predictor,
                 std::span<const MachineConfig> cfgs,
                 const SimOptions &opts, InstId stall_key_bound)
        : predictor_(predictor), cfg_(validateLanes(cfgs)), opts_(opts),
          hier_(cfg_), btb_(cfg_.btbIndexBits), dbb_(cfg_.dbbEntries),
          line_mask_(~uint64_t{cfg_.l1i.lineBytes - 1}),
          shadow_commit_(cfg_.shadowCommit)
    {
        lanes_.reserve(cfgs.size());
        for (const MachineConfig &cfg : cfgs)
            lanes_.emplace_back(cfg, stall_key_bound,
                                opts_.collectBranchStalls);
        if (opts_.collectBranchStalls && stall_key_bound != kNoInst)
            stall_events_by_id_.assign(stall_key_bound + 1, 0);
    }

    // --- shared halves of the per-instruction helpers ------------------

    /** Fetch-side work common to every lane: the fetched count and the
     *  I-cache access on each new line. Returns the miss penalty every
     *  lane adds to this instruction's fetch cycle. */
    unsigned
    fetchLine(uint64_t line)
    {
        ++stats_.fetched;
        if (line == cur_fetch_line_)
            return 0;
        ++stats_.icacheLineAccesses;
        unsigned extra = hier_.instAccess(line);
        if (extra > 0)
            ++stats_.icacheMisses;
        cur_fetch_line_ = line;
        return extra;
    }

    /** BTB probe + fill for a taken control transfer; the line
     *  changes. Returns whether the BTB held the right target. */
    bool
    btbRedirect(uint64_t pc, uint64_t target)
    {
        uint64_t btb_target = 0;
        bool hit = btb_.lookup(pc, btb_target) && btb_target == target;
        btb_.insert(pc, target);
        cur_fetch_line_ = ~uint64_t{0};
        return hit;
    }

    /** Per-branch stall event count (width-invariant). */
    VG_HOT_INLINE void
    noteBranchStallEvent(InstId key)
    {
        ++stats_.branchStallEvents;
        if (key < stall_events_by_id_.size())
            ++stall_events_by_id_[key];
    }

    /** Charge one data-side hierarchy access and count per-level. */
    MemAccessResult
    dataAccess(uint64_t addr)
    {
        MemAccessResult res = hier_.dataAccess(addr);
        ++stats_.l1dAccesses;
        if (res.level >= 2)
            ++stats_.l1dMisses;
        if (res.level >= 3)
            ++stats_.l2Misses;
        if (res.level >= 4)
            ++stats_.l3Misses;
        return res;
    }

    void
    traceRecord(uint64_t pc, Opcode op, uint64_t fetch, uint64_t issue,
                uint64_t done, bool issued, bool redirected)
    {
        if (opts_.trace != nullptr) {
            // Unconditional: the window itself counts overflow so the
            // Gantt footer can report how much it dropped.
            opts_.trace->record(
                {pc, op, fetch, issue, done, issued, redirected});
        }
    }

    // --- forward-progress watchdogs -----------------------------------

    /**
     * Cycle-budget and progress-window checks for one lane after a
     * commit: a runaway program (cycle budget) or a timing-model bug
     * that stops retiring work (progress window) surfaces as a
     * structured Hang naming the lane's width, instead of wedging the
     * experiment pool.
     */
    VG_HOT_INLINE void
    checkWatchdogs(TimingLane &ln, uint64_t pc)
    {
        if (opts_.cycleBudget != 0 && ln.max_done > opts_.cycleBudget)
            budgetThrow(ln, pc);
        if (opts_.progressWindow != 0 &&
            ln.max_done - ln.last_commit_cycle > opts_.progressWindow)
            progressThrow(ln, pc);
        ln.last_commit_cycle = ln.max_done;
    }

    [[noreturn]] void
    budgetThrow(const TimingLane &ln, uint64_t pc)
    {
        vg_throw(Hang,
                 "width %u: cycle budget exceeded: %llu cycles > budget "
                 "%llu after %llu retired insts (pc 0x%llx)",
                 ln.width, static_cast<unsigned long long>(ln.max_done),
                 static_cast<unsigned long long>(opts_.cycleBudget),
                 static_cast<unsigned long long>(stats_.dynamicInsts),
                 static_cast<unsigned long long>(pc));
    }

    [[noreturn]] void
    progressThrow(const TimingLane &ln, uint64_t pc)
    {
        vg_throw(Hang,
                 "width %u: no retired-instruction progress: clock "
                 "advanced %llu cycles across one commit (window %llu, "
                 "pc 0x%llx)",
                 ln.width,
                 static_cast<unsigned long long>(ln.max_done -
                                                 ln.last_commit_cycle),
                 static_cast<unsigned long long>(opts_.progressWindow),
                 static_cast<unsigned long long>(pc));
    }

    // --- end-of-run reporting -----------------------------------------

    /** One SimStats per lane: the shared counters plus that lane's
     *  width-dependent ones. */
    std::vector<SimStats>
    finalizeStats()
    {
        // Export the predictor's internal counters under a sanitized
        // "bpred.<name>." prefix so they ride along with the run's
        // stats (and survive journal round-trips like every other
        // counter).
        MetricSnapshot snap;
        predictor_.exportMetrics(
            snap, "bpred." + sanitizeMetricKey(predictor_.name()) + ".");
        stats_.bpredCounters.reserve(snap.entries.size());
        for (const auto &e : snap.entries)
            stats_.bpredCounters.emplace_back(e.path, e.value);

        size_t touched = 0;
        for (uint64_t events : stall_events_by_id_)
            touched += events != 0;

        std::vector<SimStats> out;
        out.reserve(lanes_.size());
        for (const TimingLane &ln : lanes_) {
            SimStats s = stats_;
            s.cycles = ln.max_done + 1;
            s.fetchBufferStalls = ln.fetch_buffer_stalls;
            s.branchStallCycles = ln.branch_stall_cycles;
            s.dbbFullStalls = ln.dbb_full_stalls;
            s.dbbMaxOccupancy = ln.dbb_max_occupancy;
            s.mshrStalls = ln.mshr_stalls;
            // One pass builds the per-branch map callers expect;
            // sized to the touched-entry count so it never rehashes.
            if (opts_.collectBranchStalls) {
                s.branchStalls.reserve(touched);
                for (InstId id = 0; id < stall_events_by_id_.size();
                     ++id) {
                    if (stall_events_by_id_[id] != 0) {
                        s.branchStalls.emplace(
                            id, std::make_pair(ln.stall_cycles_by_id[id],
                                               stall_events_by_id_[id]));
                    }
                }
            }
            out.push_back(std::move(s));
        }
        return out;
    }

    DirectionPredictor &predictor_;
    const MachineConfig &cfg_;
    const SimOptions &opts_;

    MemoryHierarchy hier_;
    BranchTargetBuffer btb_;
    DecomposedBranchBuffer dbb_;
    SimStats stats_;  ///< width-invariant counters (lane fields unused)
    std::vector<TimingLane> lanes_;

    uint64_t cur_fetch_line_ = ~uint64_t{0};

    // Per-branch stall events (only sized when collecting).
    std::vector<uint64_t> stall_events_by_id_;

    /** Config-derived I-line mask, computed once (not per fetch). */
    const uint64_t line_mask_;
    const bool shadow_commit_;

    uint64_t predict_seq_ = 0;
    DbbEntry pending_predict_;
};

/**
 * The retained reference path: a ProgramExecutor interprets
 * Instruction records and drives the timing model through StepInfo,
 * with std::function predict/store hooks and virtual predictor
 * dispatch — the pre-decode execution model this PR's fast path is
 * benchmarked against and held bit-identical to. Runs that need the
 * executor's taps (lockstep oracle, pipeline trace) always take this
 * path.
 */
class ReferenceModel : public TimingCommon
{
  public:
    ReferenceModel(const Program &prog, Memory &mem,
                   DirectionPredictor &predictor,
                   const MachineConfig &cfg, const SimOptions &opts)
        : TimingCommon(predictor, std::span(&cfg, 1), opts,
                       stallKeyBound(prog)),
          prog_(prog), exec_(prog, mem)
    {
        exec_.setPredictHook([this](const LaidInst &li) {
            return onPredictFetch(li);
        });
        if (opts_.lockstep != nullptr) {
            exec_.setStoreHook([this](uint64_t addr, int64_t value) {
                opts_.lockstep->onStore(addr, value);
            });
        }
    }

    SimStats run();

  private:
    /** Predict hook: called by the executor when a PREDICT is reached;
     *  the returned direction is the architectural path. */
    bool
    onPredictFetch(const LaidInst &li)
    {
        PredMeta meta;
        bool dir;
        if (opts_.predictOutcomes != nullptr) {
            vg_assert(predict_seq_ < opts_.predictOutcomes->size(),
                      "prerecorded predict outcomes exhausted");
            dir = predictor_.predictWithOracle(
                li.pc, (*opts_.predictOutcomes)[predict_seq_], meta);
        } else {
            dir = predictor_.predict(li.pc, meta);
        }
        ++predict_seq_;
        pending_predict_ = {li.pc, meta, dir, true};
        return dir;
    }

    void timeInst(const ProgramExecutor::StepInfo &info,
                  uint64_t inst_seq);

    const Program &prog_;
    ProgramExecutor exec_;
};

void
ReferenceModel::timeInst(const ProgramExecutor::StepInfo &info,
                         uint64_t inst_seq)
{
    const LaidInst &li = *info.inst;
    const Instruction &inst = li.inst;
    TimingLane &ln = lanes_[0];

    uint64_t f = ln.fetch(fetchLine(li.pc & line_mask_), inst_seq);
    uint64_t decode = f + 1;
    uint64_t enter_issue = ln.enterIssue(f);

    switch (inst.op) {
      case Opcode::HALT:
        ln.recordDrain(inst_seq, decode);
        traceRecord(li.pc, inst.op, f, decode, decode, false, false);
        stats_.halted = true;
        return;

      case Opcode::JMP:
        // Direct jumps are handled in the front end; no issue slot.
        ln.recordDrain(inst_seq, decode);
        ln.takenRedirect(btbRedirect(li.pc, li.takenPc), f, decode);
        traceRecord(li.pc, inst.op, f, decode, decode, false, false);
        return;

      case Opcode::PREDICT: {
        ++stats_.predictsExecuted;
        decode = ln.dbbAdmit(decode);
        dbb_.insert(pending_predict_.predictPc, pending_predict_.meta,
                    pending_predict_.predictedTaken);
        ln.recordDrain(inst_seq, decode); // dropped after decode
        if (info.taken)
            ln.takenRedirect(btbRedirect(li.pc, li.takenPc), f, decode);
        traceRecord(li.pc, inst.op, f, decode, decode, false, false);
        return;
      }

      case Opcode::BR: {
        ++stats_.condBranches;
        PredMeta meta;
        bool pred =
            predictor_.predictWithOracle(li.pc, info.taken, meta);
        predictor_.updateHistory(info.taken);
        predictor_.update(li.pc, info.taken, meta);

        uint64_t earliest =
            std::max(enter_issue,
                     ln.srcReady(inst.src1, inst.src2, inst.src3));
        uint64_t issue = ln.computeIssue(earliest, FuClass::IntAlu);
        uint64_t done = issue + 1;
        ln.max_done = std::max(ln.max_done, done);
        ++stats_.issued;
        ln.recordDrain(inst_seq, issue);
        ln.noteBranchStall(inst.id, issue, enter_issue);
        noteBranchStallEvent(inst.id);

        bool mispredicted = pred != info.taken;
        if (mispredicted) {
            ++stats_.brMispredicts;
            ln.mispredictRedirect(done);
            cur_fetch_line_ = ~uint64_t{0};
            if (info.taken)
                btb_.insert(li.pc, li.takenPc);
        } else if (info.taken) {
            ln.takenRedirect(btbRedirect(li.pc, li.takenPc), f, decode);
        }
        traceRecord(li.pc, inst.op, f, issue, done, true, mispredicted);
        return;
      }

      case Opcode::RESOLVE: {
        ++stats_.resolvesExecuted;
        // Associate with the oldest outstanding PREDICT (paper: the
        // tail-pointer index captured at decode) and train through it.
        DbbEntry entry = dbb_.resolveOldest();
        bool outcome = info.taken ? !inst.resolvePathTaken
                                  : inst.resolvePathTaken;
        if (entry.valid) {
            predictor_.updateHistory(outcome);
            predictor_.update(entry.predictPc, outcome, entry.meta);
        }

        uint64_t earliest =
            std::max(enter_issue,
                     ln.srcReady(inst.src1, inst.src2, inst.src3));
        uint64_t issue = ln.computeIssue(earliest, FuClass::IntAlu);
        uint64_t done = issue + 1;
        ln.max_done = std::max(ln.max_done, done);
        ++stats_.issued;
        ln.recordDrain(inst_seq, issue);
        ln.noteBranchStall(inst.origBranch, issue, enter_issue);
        noteBranchStallEvent(inst.origBranch);
        ln.dbb_free_cycles.push_back(done);

        if (info.taken) {
            // The PREDICT was wrong: redirect to correction code.
            ++stats_.resolveRedirects;
            ln.mispredictRedirect(done);
            cur_fetch_line_ = ~uint64_t{0};
        }
        traceRecord(li.pc, inst.op, f, issue, done, true, info.taken);
        return;
      }

      default:
        break;
    }

    // Shadow-commit folding: temp->arch MOVs become rename updates.
    if (shadow_commit_ && inst.op == Opcode::MOV &&
        isTempReg(inst.src1) && isArchReg(inst.dst)) {
        ln.reg_ready[inst.dst] = ln.reg_ready[inst.src1];
        ++stats_.foldedCommitMovs;
        ln.recordDrain(inst_seq, decode);
        traceRecord(li.pc, inst.op, f, decode, decode, false, false);
        return;
    }

    if (opts_.hoistedMask != nullptr && inst.id != kNoInst &&
        inst.id < opts_.hoistedMask->size() &&
        (*opts_.hoistedMask)[inst.id]) {
        ++stats_.speculativeExecs;
    }

    uint64_t earliest =
        std::max(enter_issue,
                 ln.srcReady(inst.src1, inst.src2, inst.src3));
    FuClass cls = inst.fuClass();
    uint64_t done;

    if (inst.isLoad()) {
        earliest = ln.mshrAdmit(earliest);
        uint64_t issue = ln.computeIssue(earliest, cls);
        MemAccessResult res = dataAccess(info.memAddr);
        done = issue + res.latency;
        if (res.level >= 2)
            ln.outstanding_misses.push(done);
        ln.reg_ready[inst.dst] = done;
        ln.recordDrain(inst_seq, issue);
    } else if (inst.isStore()) {
        uint64_t issue = ln.computeIssue(earliest, cls);
        dataAccess(info.memAddr);
        // Stores retire through the store buffer; 1 cycle to the
        // pipeline.
        done = issue + 1;
        ln.recordDrain(inst_seq, issue);
    } else {
        uint64_t issue = ln.computeIssue(earliest, cls);
        done = issue + inst.latency();
        if (inst.writesDst())
            ln.reg_ready[inst.dst] = done;
        ln.recordDrain(inst_seq, issue);
    }
    ++stats_.issued;
    ln.max_done = std::max(ln.max_done, done);
    traceRecord(li.pc, inst.op, f, ln.prev_issue_cycle, done, true,
                false);
}

SimStats
ReferenceModel::run()
{
    uint64_t inst_seq = 0;
    while (!exec_.halted() && stats_.dynamicInsts < opts_.maxInsts) {
        auto info = exec_.step();
        if (info.inst == nullptr)
            break;
        ++stats_.dynamicInsts;
        if (info.fault) {
            stats_.faulted = true;
            vg_throw(Fault,
                     "simulated program faulted at pc 0x%llx (inst %u, "
                     "%llu insts retired)",
                     static_cast<unsigned long long>(info.inst->pc),
                     info.inst->inst.id,
                     static_cast<unsigned long long>(
                         stats_.dynamicInsts));
        }
        timeInst(info, inst_seq);
        ++inst_seq;

        // Deterministic fault-injection sites, gated so an armed
        // injector costs one relaxed load per commit and a draw only
        // every 4096 insts (keyed by inst_seq, so the faulting point
        // is reproducible at any worker count).
        if (faultinject::armed() && (inst_seq & 4095) == 0) {
            faultinject::site("pipeline.cycle", SimError::Kind::Hang);
            faultinject::site("pipeline.commit",
                              SimError::Kind::Fault);
        }

        checkWatchdogs(lanes_[0], info.inst->pc);

        if (stats_.halted)
            break;
    }
    if (opts_.lockstep != nullptr && stats_.halted)
        opts_.lockstep->onHalt(exec_.regs());
    return std::move(finalizeStats()[0]);
}

/**
 * True when VANGUARD_THREADED in the environment asks for the switch
 * dispatcher ("0", "OFF", or "off"); mirrors the spelling of CMake's
 * VANGUARD_THREADED option so one name controls both build and run.
 */
bool
threadedDisabledByEnv()
{
    const char *env = std::getenv("VANGUARD_THREADED");
    if (env == nullptr)
        return false;
    return env[0] == '0' || std::strcmp(env, "OFF") == 0 ||
           std::strcmp(env, "off") == 0;
}

/**
 * The fast path: a fused decode/execute/time loop over a
 * DecodedProgram for N timing lanes (N a compile-time count, so the
 * per-lane loops unroll). Architectural state (registers, memory) is
 * advanced inline by a single switch that replicates
 * exec/semantics.cc exactly — including the DIV wrap/fault, LD_S
 * zero-fill, and shift-mask edge cases — and every cycle-accounting
 * decision goes through the same TimingCommon/TimingLane helpers as
 * the reference path. Each instruction's semantic, predictor and
 * cache work runs once; only its timing tail runs per lane. Predictor
 * calls go through the sealed PredictorDispatch (direct, inlineable
 * calls for every factory predictor) in the same per-instruction
 * order the reference path makes them, so predictions, history, and
 * telemetry counters are bit-identical.
 */
template <unsigned N>
class FastModel : public TimingCommon
{
  public:
    FastModel(const DecodedProgram &decoded, Memory &mem,
              DirectionPredictor &predictor,
              std::span<const MachineConfig> cfgs, const SimOptions &opts)
        : TimingCommon(predictor, cfgs, opts, decoded.maxStallKey()),
          code_(decoded.insts()), code_size_(decoded.size()),
          mem_(mem), pdx_(predictor),
          use_line_tags_(decoded.lineBytes() == cfg_.l1i.lineBytes),
          use_threaded_(VANGUARD_THREADED_DISPATCH != 0 &&
                        !opts.noThreadedDispatch &&
                        !threadedDisabledByEnv())
    {
        vg_assert(cfgs.size() == N, "lane count mismatch");
        // Expand the per-InstId hoisted mask to a per-instruction-index
        // byte array: the id -> bit lookup is static, so hoisting it
        // out of the cycle loop cannot change what is counted. Always
        // sized so the hot loop indexes unconditionally.
        hoisted_.assign(code_size_, 0);
        if (opts_.hoistedMask != nullptr) {
            const std::vector<bool> &mask = *opts_.hoistedMask;
            for (size_t i = 0; i < code_size_; ++i) {
                InstId id = code_[i].id;
                if (id != kNoInst && id < mask.size() && mask[id])
                    hoisted_[i] = 1;
            }
        }
    }

    std::vector<SimStats>
    run()
    {
#if VANGUARD_THREADED_DISPATCH
        if (use_threaded_)
            runThreaded();
        else
            runSwitch();
#else
        runSwitch();
#endif
        return finalizeStats();
    }

  private:
    void runSwitch();
#if VANGUARD_THREADED_DISPATCH
    void runThreaded();
#endif

    [[noreturn]] void
    badOpcodeThrow(Opcode op, uint64_t pc, size_t idx)
    {
        vg_throw(Invariant,
                 "evaluate: bad opcode %u at pc 0x%llx (idx %zu)",
                 static_cast<unsigned>(op),
                 static_cast<unsigned long long>(pc), idx);
    }
    VG_HOT_INLINE int64_t
    src2Value(const DecodedInst &d) const
    {
        return d.hasImmSrc2() ? d.imm : regs_[d.src2];
    }

    [[noreturn]] void
    faultThrow(const DecodedInst &d)
    {
        stats_.faulted = true;
        vg_throw(Fault,
                 "simulated program faulted at pc 0x%llx (inst %u, "
                 "%llu insts retired)",
                 static_cast<unsigned long long>(d.pc), d.id,
                 static_cast<unsigned long long>(stats_.dynamicInsts));
    }

    bool
    predictLookup(uint64_t pc)
    {
        // Fill pending_predict_ in place (one fresh-meta write instead
        // of a fresh local plus an 80-byte struct copy per PREDICT).
        pending_predict_.meta = PredMeta{};
        bool dir;
        if (opts_.predictOutcomes != nullptr) {
            vg_assert(predict_seq_ < opts_.predictOutcomes->size(),
                      "prerecorded predict outcomes exhausted");
            dir = pdx_.predictWithOracle(
                pc, (*opts_.predictOutcomes)[predict_seq_],
                pending_predict_.meta);
        } else {
            dir = pdx_.predict(pc, pending_predict_.meta);
        }
        ++predict_seq_;
        pending_predict_.predictPc = pc;
        pending_predict_.predictedTaken = dir;
        pending_predict_.valid = true;
        return dir;
    }

    const DecodedInst *code_;
    size_t code_size_;
    Memory &mem_;
    PredictorDispatch pdx_;
    int64_t regs_[kNumRegs] = {};
    std::vector<uint8_t> hoisted_;  ///< by instruction index
    const bool use_line_tags_;
    const bool use_threaded_;
};

template <unsigned N>
void
FastModel<N>::runSwitch()
{
#define VG_THREADED 0
#include "uarch/fast_loop.inc"
#undef VG_THREADED
}

#if VANGUARD_THREADED_DISPATCH
template <unsigned N>
void
FastModel<N>::runThreaded()
{
#define VG_THREADED 1
#include "uarch/fast_loop.inc"
#undef VG_THREADED
}
#endif

template <unsigned N>
std::vector<SimStats>
runFast(const DecodedProgram &decoded, Memory &mem,
        DirectionPredictor &predictor, std::span<const MachineConfig> cfgs,
        const SimOptions &opts)
{
    FastModel<N> model(decoded, mem, predictor, cfgs, opts);
    return model.run();
}

/** Dispatch a runtime lane count to its compile-time FastModel. */
std::vector<SimStats>
runFastLanes(const DecodedProgram &decoded, Memory &mem,
             DirectionPredictor &predictor,
             std::span<const MachineConfig> cfgs, const SimOptions &opts)
{
    static_assert(kMaxFusedLanes == 4, "instantiate every lane count");
    switch (cfgs.size()) {
      case 1:
        return runFast<1>(decoded, mem, predictor, cfgs, opts);
      case 2:
        return runFast<2>(decoded, mem, predictor, cfgs, opts);
      case 3:
        return runFast<3>(decoded, mem, predictor, cfgs, opts);
      case 4:
        return runFast<4>(decoded, mem, predictor, cfgs, opts);
      default:
        vg_throw(Invariant, "no FastModel for %zu lanes", cfgs.size());
    }
}

/**
 * True when VANGUARD_FORCE_REFERENCE is set (non-empty, not "0") in
 * the environment — the process-wide kill switch that routes every
 * simulation through the retained reference path.
 */
bool
referenceForcedByEnv()
{
    const char *env = std::getenv("VANGUARD_FORCE_REFERENCE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** True when this run may take the fused fast path. */
bool
fastEligible(const SimOptions &opts)
{
    if (opts.forceReference || opts.lockstep != nullptr ||
        opts.trace != nullptr) {
        return false;
    }
    return !referenceForcedByEnv();
}

} // namespace

SimStats
simulate(const Program &prog, Memory &mem,
         DirectionPredictor &predictor, const MachineConfig &cfg,
         const SimOptions &opts)
{
    if (fastEligible(opts)) {
        DecodedProgram decoded =
            DecodedProgram::decode(prog, cfg.l1i.lineBytes);
        return std::move(runFastLanes(decoded, mem, predictor,
                                      std::span(&cfg, 1), opts)[0]);
    }
    ReferenceModel model(prog, mem, predictor, cfg, opts);
    return model.run();
}

SimStats
simulateWithDecoded(const Program &prog, const DecodedProgram &decoded,
                    Memory &mem, DirectionPredictor &predictor,
                    const MachineConfig &cfg, const SimOptions &opts)
{
    return std::move(
        simulateWidths(prog, decoded, mem, predictor, {cfg}, opts)[0]);
}

std::vector<SimStats>
simulateWidths(const Program &prog, const DecodedProgram &decoded,
               Memory &mem, DirectionPredictor &predictor,
               const std::vector<MachineConfig> &cfgs,
               const SimOptions &opts)
{
    validateLanes(cfgs);
    if (cfgs.size() > maxFusedLanes(opts)) {
        vg_throw(Config,
                 "%zu lanes requested but this run fuses at most %zu "
                 "(the reference path is single-lane)",
                 cfgs.size(), maxFusedLanes(opts));
    }
    if (fastEligible(opts))
        return runFastLanes(decoded, mem, predictor, cfgs, opts);
    ReferenceModel model(prog, mem, predictor, cfgs.at(0), opts);
    return {model.run()};
}

size_t
maxFusedLanes(const SimOptions &opts)
{
    return fastEligible(opts) ? kMaxFusedLanes : 1;
}

bool
threadedDispatchAvailable()
{
    return VANGUARD_THREADED_DISPATCH != 0;
}

MetricSnapshot
simStatsSnapshot(const SimStats &stats)
{
    MetricSnapshot snap;
    snap.add("uarch.pipeline.cycles", stats.cycles);
    snap.add("uarch.pipeline.dynamicInsts", stats.dynamicInsts);
    snap.add("uarch.pipeline.fetched", stats.fetched);
    snap.add("uarch.pipeline.issued", stats.issued);
    snap.add("uarch.pipeline.condBranches", stats.condBranches);
    snap.add("uarch.pipeline.brMispredicts", stats.brMispredicts);
    snap.add("uarch.pipeline.predictsExecuted", stats.predictsExecuted);
    snap.add("uarch.pipeline.resolvesExecuted", stats.resolvesExecuted);
    snap.add("uarch.pipeline.resolveRedirects", stats.resolveRedirects);
    snap.add("uarch.pipeline.branchStallCycles",
             stats.branchStallCycles);
    snap.add("uarch.pipeline.branchStallEvents",
             stats.branchStallEvents);
    snap.add("uarch.pipeline.fetchBufferStalls",
             stats.fetchBufferStalls);
    snap.add("uarch.pipeline.speculativeExecs", stats.speculativeExecs);
    snap.add("uarch.pipeline.foldedCommitMovs", stats.foldedCommitMovs);
    snap.add("uarch.icache.lineAccesses", stats.icacheLineAccesses);
    snap.add("uarch.icache.misses", stats.icacheMisses);
    snap.add("uarch.l1d.accesses", stats.l1dAccesses);
    snap.add("uarch.l1d.misses", stats.l1dMisses);
    snap.add("uarch.l2.misses", stats.l2Misses);
    snap.add("uarch.l3.misses", stats.l3Misses);
    snap.add("uarch.dbb.fullStalls", stats.dbbFullStalls);
    snap.add("uarch.dbb.maxOccupancy", stats.dbbMaxOccupancy,
             MetricSnapshot::Agg::Max);
    snap.add("uarch.mshr.stalls", stats.mshrStalls);
    for (const auto &kv : stats.bpredCounters)
        snap.add(kv.first, kv.second);
    return snap;
}

std::vector<bool>
prerecordPredictOutcomes(const Program &prog, const Memory &mem,
                         uint64_t max_insts)
{
    Memory scratch = mem; // functional pre-pass must not disturb state
    ProgramExecutor exec(prog, scratch);
    std::vector<bool> outcomes;
    outcomes.reserve(4096); // grows by doubling; skip the small steps

    exec.setPredictHook([&](const LaidInst &) {
        outcomes.push_back(false); // placeholder; filled at RESOLVE
        return false;
    });

    // PREDICTs whose original-branch outcome is still unknown. Bounded
    // only by program shape (not MachineConfig), so the ring grows
    // geometrically if a kernel ever keeps more in flight; steady
    // state allocates nothing.
    RingFifo<size_t> pending(64, /*growable=*/true);
    uint64_t steps = 0;
    size_t predict_count = 0;
    while (!exec.halted() && steps < max_insts) {
        auto info = exec.step();
        if (info.inst == nullptr)
            break;
        ++steps;
        if (info.inst->inst.op == Opcode::PREDICT) {
            pending.push_back(predict_count++);
        } else if (info.inst->inst.op == Opcode::RESOLVE) {
            vg_assert(!pending.empty(),
                      "RESOLVE without outstanding PREDICT");
            bool outcome = info.taken
                ? !info.inst->inst.resolvePathTaken
                : info.inst->inst.resolvePathTaken;
            outcomes[pending.front()] = outcome;
            pending.pop_front();
        }
    }
    return outcomes;
}

} // namespace vanguard
