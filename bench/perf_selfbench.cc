/**
 * @file
 * google-benchmark view of the simulator self-benchmark
 * (core/selfbench.hh): one benchmark per (workload, execution-path)
 * pair of the pinned matrix at the default width/predictor, reporting
 * simulated instructions per second as items/s. This is an engineering
 * benchmark of the simulator itself, not a paper exhibit; the
 * schema-versioned JSON trajectory (BENCH_PR5.json) comes from
 * `vanguard_cli --selfbench`, which runs the full matrix.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bpred/factory.hh"
#include "core/vanguard.hh"
#include "uarch/pipeline.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

constexpr unsigned kIterations = 6000;

/** Train+compile once per workload and share across all timed runs
 *  (exactly how a sweep amortizes compile artifacts over seeds). */
const BenchmarkArtifacts &
artifactsFor(const std::string &workload)
{
    static std::map<std::string, BenchmarkArtifacts> cache;
    auto it = cache.find(workload);
    if (it == cache.end()) {
        BenchmarkSpec spec = findBenchmark(workload);
        spec.iterations = kIterations;
        VanguardOptions vopts;
        it = cache.emplace(workload, prepareBenchmark(spec, vopts))
                 .first;
    }
    return it->second;
}

void
BM_Simulate(benchmark::State &state, const std::string &workload,
            bool force_reference)
{
    BenchmarkSpec spec = findBenchmark(workload);
    spec.iterations = kIterations;
    VanguardOptions vopts;
    const BenchmarkArtifacts &art = artifactsFor(workload);

    uint64_t insts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
        auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
        SimOptions sopts;
        sopts.maxInsts = vopts.simMaxInsts;
        sopts.cycleBudget = vopts.simCycleBudget;
        sopts.progressWindow = vopts.simProgressWindow;
        sopts.forceReference = force_reference;
        if (!art.exp.hoistedMask.empty())
            sopts.hoistedMask = &art.exp.hoistedMask;
        state.ResumeTiming();

        SimStats s = simulateWithDecoded(art.exp.prog, *art.exp.decoded,
                                         mem, *pred,
                                         vopts.machine(), sopts);
        benchmark::DoNotOptimize(s.cycles);
        insts += s.dynamicInsts;
    }
    // items/s == simulated instructions per second.
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}

#define SELFBENCH_PAIR(name, workload)                                      \
    BENCHMARK_CAPTURE(BM_Simulate, name##_fast, std::string(workload),      \
                      false)                                                \
        ->Unit(benchmark::kMillisecond);                                    \
    BENCHMARK_CAPTURE(BM_Simulate, name##_reference,                        \
                      std::string(workload), true)                          \
        ->Unit(benchmark::kMillisecond)

SELFBENCH_PAIR(bzip2, "bzip2-like");
SELFBENCH_PAIR(h264ref, "h264ref-like");
SELFBENCH_PAIR(mcf, "mcf-like");

} // namespace
} // namespace vanguard

BENCHMARK_MAIN();
