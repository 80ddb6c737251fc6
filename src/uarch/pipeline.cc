#include "uarch/pipeline.hh"

#include <bit>
#include <climits>
#include <cstdlib>
#include <span>

#include "bpred/btb.hh"
#include "bpred/dispatch.hh"
#include "exec/decoded_program.hh"
#include "exec/semantics.hh"
#include "support/fault_inject.hh"
#include "support/logging.hh"
#include "support/ring.hh"
#include "uarch/lanes.hh"

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
 * below. A cache level without sets would divide by zero in Cache, and
 * the fetch-line mask assumes power-of-two lines. A zero-stage front
 * end would enter issue a cycle before fetch, and latencies past
 * kMaxLatency would let the clock outrun the column lanes' range; so
 * would a fetch buffer past kMaxFetchBufferEntries. A width or port
 * count past kMaxWidth overflows a lane's packed port field.
 */
void
validateLaneConfig(const MachineConfig &cfg)
{
    for (auto [name, c] : {std::pair{"l1i", &cfg.l1i},
                           std::pair{"l1d", &cfg.l1d},
                           std::pair{"l2", &cfg.l2},
                           std::pair{"l3", &cfg.l3}}) {
        if (c->sizeKB == 0 || c->sizeKB > kMaxCacheSizeKB)
            vg_throw(Config, "machine config: %s size %u KB outside "
                     "1..%u", name, c->sizeKB, kMaxCacheSizeKB);
        if (!std::has_single_bit(c->lineBytes))
            vg_throw(Config, "machine config: %s line size %u B is not "
                     "a power of two", name, c->lineBytes);
        if (c->ways == 0 || c->ways > 64)
            vg_throw(Config, "machine config: %s ways %u outside 1..64",
                     name, c->ways);
        uint64_t lines = uint64_t{c->sizeKB} * 1024 / c->lineBytes;
        if (lines == 0 || lines % c->ways != 0)
            vg_throw(Config, "machine config: %s %llu lines do not "
                     "form whole %u-way sets", name,
                     static_cast<unsigned long long>(lines), c->ways);
        if (c->latency > kMaxLatency)
            vg_throw(Config, "machine config: %s latency %u cycles "
                     "above %u", name, c->latency, kMaxLatency);
    }
    if (cfg.memLatency > kMaxLatency)
        vg_throw(Config, "machine config: memLatency %u cycles above %u",
                 cfg.memLatency, kMaxLatency);
    if (cfg.frontendStages == 0 || cfg.frontendStages > kMaxLatency)
        vg_throw(Config, "machine config: frontendStages %u outside "
                 "1..%u", cfg.frontendStages, kMaxLatency);
    struct Field
    {
        const char *name;
        unsigned value;
        unsigned max;
    };
    for (const Field &f :
         {Field{"width", cfg.width, kMaxWidth},
          Field{"memPorts", cfg.memPorts, kMaxWidth},
          Field{"intPorts", cfg.intPorts, kMaxWidth},
          Field{"fpPorts", cfg.fpPorts, kMaxWidth},
          Field{"fetchBufferEntries", cfg.fetchBufferEntries,
                kMaxFetchBufferEntries},
          Field{"dbbEntries", cfg.dbbEntries, UINT_MAX},
          Field{"mshrEntries", cfg.mshrEntries, UINT_MAX}}) {
        if (f.value == 0)
            vg_throw(Config, "machine config: %s must be at least 1",
                     f.name);
        if (f.value > f.max)
            vg_throw(Config, "machine config: %s %u above %u", f.name,
                     f.value, f.max);
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
     *  lane adds to this instruction's fetch cycle. The same-line case
     *  is forced inline: the fused loops grew past the point where GCC
     *  still split it off by itself, and a call per instruction cost
     *  the one-lane loop 10-25%. */
    VG_HOT_INLINE unsigned
    fetchLine(uint64_t line)
    {
        ++stats_.fetched;
        if (line == cur_fetch_line_)
            return 0;
        return fetchNewLine(line);
    }

    unsigned
    fetchNewLine(uint64_t line)
    {
        ++stats_.icacheLineAccesses;
        unsigned extra = hier_.instAccess(line);
        if (extra > 0)
            ++stats_.icacheMisses;
        cur_fetch_line_ = line;
        return extra;
    }

    /** The Steer of a correctly predicted taken control transfer:
     *  probes and fills the shared BTB; the line changes. */
    Steer
    takenSteer(uint64_t pc, uint64_t target)
    {
        uint64_t btb_target = 0;
        bool hit = btb_.lookup(pc, btb_target) && btb_target == target;
        btb_.insert(pc, target);
        cur_fetch_line_ = ~uint64_t{0};
        return hit ? Steer::BtbHit : Steer::BtbMiss;
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

/**
 * The shared work of one retired instruction (predictor, BTB, DBB,
 * caches, counters), then its LaneEvent timed by TimingLane::retire.
 * Every register-writing ALU op is an Alu3 event: the reference reads
 * all three sources of every op.
 */
void
ReferenceModel::timeInst(const ProgramExecutor::StepInfo &info,
                         uint64_t inst_seq)
{
    using Kind = LaneEvent::Kind;
    const LaidInst &li = *info.inst;
    const Instruction &inst = li.inst;

    LaneEvent ev;
    ev.extra = fetchLine(li.pc & line_mask_);
    ev.src1 = inst.src1;
    ev.src2 = inst.src2;
    ev.src3 = inst.src3;
    ev.dst = inst.dst;
    bool issued = false;
    bool redirected = false;

    switch (inst.op) {
      case Opcode::HALT:
        ev.kind = Kind::Halt;
        stats_.halted = true;
        break;

      case Opcode::JMP:
        // Direct jumps are handled in the front end; no issue slot.
        ev.kind = Kind::Jump;
        ev.steer = takenSteer(li.pc, li.takenPc);
        break;

      case Opcode::PREDICT:
        ++stats_.predictsExecuted;
        dbb_.insert(pending_predict_.predictPc, pending_predict_.meta,
                    pending_predict_.predictedTaken);
        ev.kind = Kind::Predict;
        if (info.taken)
            ev.steer = takenSteer(li.pc, li.takenPc);
        break;

      case Opcode::BR: {
        ++stats_.condBranches;
        PredMeta meta;
        bool pred =
            predictor_.predictWithOracle(li.pc, info.taken, meta);
        predictor_.updateHistory(info.taken);
        predictor_.update(li.pc, info.taken, meta);
        noteBranchStallEvent(inst.id);

        ev.kind = Kind::Branch;
        ev.key = inst.id;
        redirected = pred != info.taken;
        if (redirected) {
            ++stats_.brMispredicts;
            ev.steer = Steer::Squash;
            cur_fetch_line_ = ~uint64_t{0};
            if (info.taken)
                btb_.insert(li.pc, li.takenPc);
        } else if (info.taken) {
            ev.steer = takenSteer(li.pc, li.takenPc);
        }
        issued = true;
        break;
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
        noteBranchStallEvent(inst.origBranch);

        ev.kind = Kind::Resolve;
        ev.key = inst.origBranch;
        if (info.taken) {
            // The PREDICT was wrong: redirect to correction code.
            ++stats_.resolveRedirects;
            ev.steer = Steer::Squash;
            cur_fetch_line_ = ~uint64_t{0};
        }
        redirected = info.taken;
        issued = true;
        break;
      }

      default:
        // Shadow-commit folding: temp->arch MOVs become rename updates.
        if (shadow_commit_ && inst.op == Opcode::MOV &&
            isTempReg(inst.src1) && isArchReg(inst.dst)) {
            ev.kind = Kind::FoldMov;
            ++stats_.foldedCommitMovs;
            break;
        }
        if (opts_.hoistedMask != nullptr && inst.id != kNoInst &&
            inst.id < opts_.hoistedMask->size() &&
            (*opts_.hoistedMask)[inst.id]) {
            ++stats_.speculativeExecs;
        }
        if (inst.isLoad()) {
            MemAccessResult res = dataAccess(info.memAddr);
            ev.kind = Kind::Load;
            ev.latency = res.latency;
            ev.miss = res.level >= 2;
        } else if (inst.isStore()) {
            dataAccess(info.memAddr);
            ev.kind = Kind::Store;
        } else {
            ev.kind = inst.writesDst() ? Kind::Alu3 : Kind::NoDst;
            ev.fu = static_cast<uint8_t>(inst.fuClass());
            ev.latency = inst.latency();
        }
        issued = true;
        break;
    }

    if (issued)
        ++stats_.issued;
    LaneCycles t = lanes_[0].retire(ev, inst_seq);
    traceRecord(li.pc, inst.op, t.fetch, t.issue, t.done, issued,
                redirected);
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
 * The fast path: a fused decode/execute/time loop over a
 * DecodedProgram for N timing lanes (N a compile-time count, so the
 * per-lane loops unroll). Architectural state (registers, memory) is
 * advanced inline by a single switch that replicates
 * exec/semantics.cc exactly — including the DIV wrap/fault, LD_S
 * zero-fill, and shift-mask edge cases — and every cycle-accounting
 * decision goes through the same TimingCommon helpers and the same
 * TimingLane rules as the reference path. Each instruction's semantic,
 * predictor and cache work runs once; its timing goes to the column
 * lanes (uarch/lanes.hh), one vector column per lane. Predictor calls go
 * through the sealed PredictorDispatch (direct, inlineable calls for
 * every factory predictor) in the same per-instruction order the
 * reference path makes them, so predictions, history, and telemetry
 * counters are bit-identical.
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
          use_line_tags_(decoded.lineBytes() == cfg_.l1i.lineBytes)
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
        ColumnLanes<N> lanes(lanes_.data());
        runLoop(lanes);
        lanes.finish();
        return finalizeStats();
    }

    /** One run of the loop with a lane policy: the columns, or the
     *  recorder recordLaneEvents drives it with. */
    template <class Lanes> void runLoop(Lanes &lanes);

  private:
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

    VG_HOT_INLINE bool
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
};

// fast_loop.inc is the loop body; its policy parameter is `lanes`.
template <unsigned N>
template <class Lanes>
void
FastModel<N>::runLoop(Lanes &lanes)
{
#include "uarch/fast_loop.inc"
}

template <unsigned N>
std::vector<SimStats>
runFast(const DecodedProgram &decoded, Memory &mem,
        DirectionPredictor &predictor, std::span<const MachineConfig> cfgs,
        const SimOptions &opts)
{
    FastModel<N> model(decoded, mem, predictor, cfgs, opts);
    return model.run();
}

/** A lane policy that times nothing and records every event. */
class RecordingLanes
{
  public:
    explicit RecordingLanes(std::vector<LaneEvent> &out) : out_(out) {}

    void retire(const LaneEvent &ev, uint64_t) { out_.push_back(ev); }
    void syncMaxDone() {}

  private:
    std::vector<LaneEvent> &out_;
};

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
    validateLaneConfig(cfg); // before decode reads the line size
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

std::vector<LaneEvent>
recordLaneEvents(const DecodedProgram &decoded, Memory &mem,
                 DirectionPredictor &predictor, const MachineConfig &cfg,
                 const SimOptions &opts)
{
    validateLaneConfig(cfg);
    std::vector<LaneEvent> events;
    FastModel<1> model(decoded, mem, predictor, std::span(&cfg, 1), opts);
    RecordingLanes recorder(events);
    model.runLoop(recorder);
    return events;
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
