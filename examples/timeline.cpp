/**
 * @file
 * Pipeline timeline viewer: the transformation's mechanism, made
 * visible cycle by cycle. Runs a one-hammock kernel in baseline and
 * decomposed form and prints the in-order pipeline's Gantt chart for
 * a steady-state window.
 *
 * In the baseline you can see the br's long F......I gap (waiting for
 * the condition load) with the successor loads queued behind it; in
 * the decomposed version the speculative ld.s issue inside that gap.
 */

#include <cstdio>

#include "bpred/factory.hh"
#include "compiler/decompose.hh"
#include "compiler/layout.hh"
#include "compiler/scheduler.hh"
#include "core/vanguard.hh"
#include "uarch/trace.hh"
#include "workloads/suites.hh"

using namespace vanguard;

namespace {

void
showTimeline(const char *label, const BenchmarkSpec &spec,
             bool decomposed)
{
    VanguardOptions opts;
    TrainArtifacts train = trainBenchmark(spec, opts);
    CompiledConfig cc = compileConfig(spec, train, decomposed, opts);

    // Trace the first few thousand instructions and display a window a
    // few hundred iterations in (the trace records from cycle zero).
    PipelineTrace trace(30000);
    SimOptions sopts;
    sopts.trace = &trace;
    Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
    auto pred = makePredictor(opts.predictor);
    simulate(cc.prog, mem, *pred, opts.machine(), sopts);

    // Print a slice from inside the trace, aligned to a block start.
    PipelineTrace window(40);
    const auto &all = trace.entries();
    // A few iterations in: the I$ is warm, the issue backlog is still
    // shallow, and the condition-feeding data load misses — the
    // resolution-stall window the transformation targets.
    size_t start = 28000;
    while (start < all.size() && all[start].op != Opcode::MUL)
        ++start;
    for (size_t i = start; i < all.size() && window.wants(); ++i)
        window.record(all[i]);

    std::printf("=== %s ===\n%s\n", label, window.render(170).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchmarkSpec spec =
        findBenchmark(argc > 1 ? argv[1] : "h264ref-like");
    spec.iterations = 2000;
    spec.hammocksPU = 1;
    spec.hammocksBP = 0;
    spec.hammocksUP = 0;
    spec.coldBlocks = 0;
    spec.loadsPerSucc = 3;
    spec.workingSetKB = 16; // L1-resident: short, readable stalls
    spec.condChainOps = 2;

    std::printf("one-hammock %s, 4-wide in-order\n\n", spec.name);
    showTimeline("baseline: successor loads wait for the branch",
                 spec, false);
    showTimeline("decomposed: ld.s issue in the resolution shadow",
                 spec, true);
    return 0;
}
