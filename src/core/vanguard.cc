#include "core/vanguard.hh"

#include <algorithm>
#include <memory>

#include "bpred/factory.hh"
#include "exec/interpreter.hh"
#include "compiler/hoist.hh"
#include "compiler/layout.hh"
#include "compiler/scheduler.hh"
#include "profile/profiler.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/tracing.hh"

namespace vanguard {

MachineConfig
VanguardOptions::machine() const
{
    MachineConfig cfg = MachineConfig::widthVariant(width);
    cfg.predictor = predictor;
    cfg.shadowCommit = shadowCommit;
    cfg.dbbEntries = dbbEntries;
    cfg.l1i.sizeKB = l1iSizeKB;
    cfg.icacheNextLinePrefetch = icachePrefetch; // wire prefetch knob
    return cfg;
}

TrainArtifacts
trainBenchmark(const BenchmarkSpec &spec, const VanguardOptions &opts)
{
    TrainArtifacts out;
    BuiltKernel train = buildKernel(spec, kTrainSeed);
    auto predictor = makePredictor(opts.predictor, kTrainSeed);
    ProfileOptions popts;
    popts.maxInsts = opts.profileMaxInsts;
    {
        // Ambient tracer (set by the engine around each job) gets a
        // sub-span for the expensive inner step; null-safe no-op.
        TraceSpan span(currentTracer(), "train.profile");
        out.profile =
            profileFunction(train.fn, *train.mem, *predictor, popts);
    }
    out.selected = selectBranches(train.fn, out.profile,
                                  opts.selection);
    return out;
}

TrainArtifacts
trainFromProfile(const BenchmarkSpec &spec, BranchProfile profile,
                 const VanguardOptions &opts)
{
    TrainArtifacts out;
    out.profile = std::move(profile);
    out.selected = selectBranches(buildKernelCode(spec).fn, out.profile,
                                  opts.selection);
    return out;
}

namespace {

/** The superblock pass: the one IR step both configurations share. */
Function
hoistedKernel(Function fn, const TrainArtifacts &train,
              const VanguardOptions &opts)
{
    if (opts.applySuperblock) {
        TraceSpan pass(currentTracer(), "compile.superblock");
        hoistAboveBiasedBranches(fn, train.profile, opts.superblock);
    }
    return fn;
}

/** The rest of one configuration's pipeline, from the hoisted kernel:
 *  optional decomposition, scheduling, layout and decode. */
CompiledConfig
finishConfig(Function fn, const TrainArtifacts &train, bool decomposed,
             const VanguardOptions &opts, DecomposeStats *dstats_out)
{
    Tracer *tracer = currentTracer();
    TraceSpan span(tracer, "compile.config",
                   Tracer::args({{"decomposed",
                                  decomposed ? "1" : "0"}}));
    CompiledConfig out;
    out.decomposed = decomposed;

    DecomposeStats dstats;
    if (decomposed) {
        TraceSpan pass(tracer, "compile.decompose");
        dstats = decomposeBranches(fn, train.selected, opts.decompose);
        if (!dstats.hoistedIds.empty()) {
            InstId max_id = *std::max_element(
                dstats.hoistedIds.begin(), dstats.hoistedIds.end());
            out.hoistedMask.assign(max_id + 1, false);
            for (InstId id : dstats.hoistedIds)
                out.hoistedMask[id] = true;
        }
    }
    if (dstats_out != nullptr)
        *dstats_out = dstats;

    // The critical-path order does not depend on the target.
    {
        TraceSpan pass(tracer, "compile.schedule");
        scheduleFunction(fn, {});
    }
    {
        TraceSpan pass(tracer, "compile.linearize");
        out.prog = linearize(fn);
    }
    out.staticInsts = out.prog.size();
    // Decode once per compile artifact; every REF-seed run of this
    // configuration, at every width, shares the flat form read-only.
    TraceSpan pass(tracer, "compile.decode");
    out.decoded = std::make_shared<const DecodedProgram>(
        DecodedProgram::decode(out.prog, opts.machine().l1i.lineBytes));
    return out;
}

} // namespace

CompiledConfig
compileConfig(const BenchmarkSpec &spec, const TrainArtifacts &train,
              bool decomposed, const VanguardOptions &opts,
              DecomposeStats *dstats_out)
{
    // The code is the same for every input; only the memory image
    // differs between TRAIN and the REF seeds.
    return finishConfig(hoistedKernel(buildKernelCode(spec).fn, train,
                                      opts),
                        train, decomposed, opts, dstats_out);
}

std::vector<SimStats>
simulateConfigWidths(const BenchmarkSpec &spec,
                     const CompiledConfig &config,
                     const VanguardOptions &opts,
                     const std::vector<unsigned> &widths,
                     uint64_t ref_seed, bool collect_branch_stalls)
{
    SimOptions common;
    common.maxInsts = opts.simMaxInsts;
    common.cycleBudget = opts.simCycleBudget;
    common.progressWindow = opts.simProgressWindow;
    common.collectBranchStalls = collect_branch_stalls;
    if (!config.hoistedMask.empty())
        common.hoistedMask = &config.hoistedMask;

    std::vector<MachineConfig> machines;
    machines.reserve(widths.size());
    for (unsigned w : widths) {
        VanguardOptions o = opts;
        o.width = w;
        machines.push_back(o.machine());
    }
    std::shared_ptr<const DecodedProgram> decoded = config.decoded;
    if (decoded == nullptr && !machines.empty()) {
        decoded = std::make_shared<const DecodedProgram>(
            DecodedProgram::decode(config.prog,
                                   machines[0].l1i.lineBytes));
    }

    // One fused pass per group of widths; each group replays the REF
    // input from scratch (fresh memory image and predictor), exactly
    // as a solo run at each width would. The lockstep oracle checks
    // one timing run at a time, so it is single-lane.
    Tracer *tracer = currentTracer();
    size_t group = opts.lockstep ? 1 : maxFusedLanes(common);
    std::vector<SimStats> out;
    out.reserve(widths.size());
    for (size_t first = 0; first < machines.size(); first += group) {
        std::vector<MachineConfig> lanes(
            machines.begin() + static_cast<ptrdiff_t>(first),
            machines.begin() + static_cast<ptrdiff_t>(
                                   std::min(first + group,
                                            machines.size())));

        // The compiled code is input-independent; the REF input is the
        // memory image (patterns, data, and the noise PRNG seed),
        // which is exactly the SPEC train-vs-ref divergence we want.
        Memory mem = [&] {
            TraceSpan span(tracer, "sim.memory");
            return buildKernelMemory(spec, ref_seed);
        }();
        auto predictor = makePredictor(opts.predictor, ref_seed);
        SimOptions sopts = common;

        // Lockstep oracle: a golden functional run of the *original*
        // kernel (the transformation contract: any compiled
        // configuration retires the same store stream and final arch
        // registers). The timing run below is then checked against it
        // online.
        std::unique_ptr<LockstepChecker> checker;
        if (opts.lockstep) {
            TraceSpan span(tracer, "sim.golden");
            KernelCode original = buildKernelCode(spec);
            Memory golden_mem = mem; // the timing run mutates mem
            FastInterpreter oracle(original.fn, golden_mem);
            oracle.recordStores(true);
            RunResult gr = oracle.run(opts.simMaxInsts * 2);
            if (gr.status == RunStatus::Fault) {
                vg_throw(Fault,
                         "lockstep golden run faulted at inst %u",
                         gr.faultingInst);
            }
            LockstepOracle golden;
            golden.stores = oracle.storeLog();
            golden.halted = gr.status == RunStatus::Halted;
            for (unsigned r = 0; r < kNumArchRegs; ++r)
                golden.archRegs[r] = oracle.reg(static_cast<RegId>(r));
            checker =
                std::make_unique<LockstepChecker>(std::move(golden));
            sopts.lockstep = checker.get();
        }

        std::vector<bool> outcomes;
        bool needs_oracle = opts.predictor.rfind("ideal:", 0) == 0;
        if (needs_oracle && config.decomposed) {
            TraceSpan span(tracer, "sim.prerecord");
            outcomes = prerecordPredictOutcomes(config.prog, mem,
                                                opts.simMaxInsts * 2);
            sopts.predictOutcomes = &outcomes;
        }

        TraceSpan span(tracer, "sim.timing");
        for (SimStats &s : simulateWidths(config.prog, *decoded, mem,
                                          *predictor, lanes, sopts))
            out.push_back(std::move(s));
    }
    return out;
}

SimStats
simulateConfig(const BenchmarkSpec &spec, const CompiledConfig &config,
               const VanguardOptions &opts, uint64_t ref_seed,
               bool collect_branch_stalls)
{
    return std::move(simulateConfigWidths(spec, config, opts,
                                          {opts.width}, ref_seed,
                                          collect_branch_stalls)[0]);
}

namespace {

/** Static loads per hot basic block of the untransformed kernel. */
double
avgLoadsPerBlock(const Function &fn, BlockId first_cold)
{
    uint64_t loads = 0;
    uint64_t blocks = 0;
    for (const auto &bb : fn.blocks()) {
        if (first_cold != kNoBlock && bb.id >= first_cold)
            continue;
        ++blocks;
        for (const auto &inst : bb.insts)
            if (inst.isLoad())
                ++loads;
    }
    return blocks == 0
        ? 0.0
        : static_cast<double>(loads) / static_cast<double>(blocks);
}

/** Mean hoistable fraction over the successors of selected branches. */
double
avgHoistableFraction(const Function &fn,
                     const std::vector<InstId> &selected)
{
    std::vector<double> fracs;
    for (InstId id : selected) {
        for (const auto &bb : fn.blocks()) {
            if (bb.hasTerminator() && bb.terminator().id == id &&
                bb.terminator().op == Opcode::BR) {
                const Instruction &br = bb.terminator();
                fracs.push_back(
                    hoistableFraction(fn.block(br.takenTarget)));
                fracs.push_back(
                    hoistableFraction(fn.block(br.fallTarget)));
                break;
            }
        }
    }
    return mean(fracs) * 100.0;
}

} // namespace

BenchmarkArtifacts
compileBenchmark(const BenchmarkSpec &spec, TrainArtifacts train,
                 const VanguardOptions &opts)
{
    // One kernel build and one superblock pass serve the static-shape
    // metrics (read before any transformation) and both configurations.
    BenchmarkArtifacts art;
    KernelCode code = buildKernelCode(spec);
    art.alpbb = avgLoadsPerBlock(code.fn, code.firstColdBlock);
    art.phi = avgHoistableFraction(code.fn, train.selected);
    Function hoisted = hoistedKernel(std::move(code.fn), train, opts);
    art.base = finishConfig(hoisted, train, false, opts, nullptr);
    art.exp = finishConfig(std::move(hoisted), train,
                           opts.applyDecomposition, opts, nullptr);

    art.train = std::move(train);
    return art;
}

BenchmarkArtifacts
prepareBenchmark(const BenchmarkSpec &spec, const VanguardOptions &opts)
{
    return compileBenchmark(spec, trainBenchmark(spec, opts), opts);
}

BenchmarkOutcome
assembleOutcome(const BenchmarkSpec &spec, const BenchmarkArtifacts &art,
                SimStats base_stats, SimStats exp_stats)
{
    BenchmarkOutcome out;
    out.name = spec.name;
    out.selectedBranches = art.train.selected.size();
    out.base = std::move(base_stats);
    out.exp = std::move(exp_stats);

    out.speedupPct =
        speedupPercent(speedupRatio(out.base.cycles, out.exp.cycles));

    out.baseStaticInsts = art.base.staticInsts;
    out.expStaticInsts = art.exp.staticInsts;
    out.piscs = art.base.staticInsts == 0
        ? 0.0
        : 100.0 *
              (static_cast<double>(art.exp.staticInsts) -
               static_cast<double>(art.base.staticInsts)) /
              static_cast<double>(art.base.staticInsts);

    out.pbc =
        convertedBranchFraction(art.train.profile, art.train.selected);
    out.mppkiBase = out.base.mppki();
    out.pdih = out.exp.dynamicInsts == 0
        ? 0.0
        : 100.0 * static_cast<double>(out.exp.speculativeExecs) /
              static_cast<double>(out.exp.dynamicInsts);
    out.issuedIncreasePct = out.base.issued == 0
        ? 0.0
        : 100.0 *
              (static_cast<double>(out.exp.issued) -
               static_cast<double>(out.base.issued)) /
              static_cast<double>(out.base.issued);

    // ASPCB: baseline issue-stall per selected branch.
    uint64_t stall_cycles = 0;
    uint64_t stall_events = 0;
    for (InstId id : art.train.selected) {
        auto it = out.base.branchStalls.find(id);
        if (it != out.base.branchStalls.end()) {
            stall_cycles += it->second.first;
            stall_events += it->second.second;
        }
    }
    out.aspcb = stall_events == 0
        ? 0.0
        : static_cast<double>(stall_cycles) /
              static_cast<double>(stall_events);

    out.alpbb = art.alpbb;
    out.phi = art.phi;
    return out;
}

BenchmarkOutcome
evaluateWithArtifacts(const BenchmarkSpec &spec,
                      const BenchmarkArtifacts &art,
                      const VanguardOptions &opts, uint64_t ref_seed)
{
    SimStats base = simulateConfig(spec, art.base, opts, ref_seed,
                                   /*collect_branch_stalls=*/true);
    SimStats exp = simulateConfig(spec, art.exp, opts, ref_seed);
    return assembleOutcome(spec, art, std::move(base), std::move(exp));
}

BenchmarkOutcome
evaluateBenchmark(const BenchmarkSpec &spec, const VanguardOptions &opts,
                  uint64_t ref_seed)
{
    BenchmarkArtifacts art = prepareBenchmark(spec, opts);
    return evaluateWithArtifacts(spec, art, opts, ref_seed);
}

} // namespace vanguard
