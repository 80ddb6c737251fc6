/**
 * @file
 * Tests for the parallel experiment engine: the thread pool's
 * draining/exception semantics and the determinism contract — the
 * parallel suite runner must be bit-identical to a serial
 * (VANGUARD_JOBS=1) pass at any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "support/thread_pool.hh"
#include "support/tracing.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

BenchmarkSpec
quick(const char *name, uint64_t iters)
{
    BenchmarkSpec spec = findBenchmark(name);
    spec.iterations = iters;
    return spec;
}

TEST(ThreadPool, DrainsMoreJobsThanWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workerCount(), 3u);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);

    // The pool stays usable after a wait().
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 250);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> slots(128);
    pool.parallelFor(slots.size(),
                     [&slots](size_t i) { ++slots[i]; });
    for (size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i].load(), 1) << "slot " << i;
}

TEST(ThreadPool, PropagatesJobExceptions)
{
    ThreadPool pool(2);
    std::atomic<int> survivors{0};
    pool.submit([] { throw std::runtime_error("job failed"); });
    for (int i = 0; i < 20; ++i)
        pool.submit([&survivors] { ++survivors; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // A failure neither wedges the queue nor poisons the pool.
    EXPECT_EQ(survivors.load(), 20);
    pool.submit([&survivors] { ++survivors; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(survivors.load(), 21);
}

TEST(ThreadPool, LowestKeyFirstFifoWithinAKey)
{
    ThreadPool pool(1);
    // Hold the only worker so every keyed job is queued before any
    // of them runs.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.submit([open] { open.wait(); });
    std::mutex mutex;
    std::vector<int> order;
    auto job = [&](int tag) {
        return [&, tag] {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(tag);
        };
    };
    pool.submit(job(30), 3);
    pool.submit(job(10), 1);
    pool.submit(job(20), 2);
    pool.submit(job(11), 1);
    pool.submit(job(0));
    pool.submit(job(12), 1);
    gate.set_value();
    pool.wait();
    EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 12, 20, 30}));
}

TEST(ThreadPool, WaitCoversJobsSubmittedByJobs)
{
    ThreadPool pool(3);
    std::atomic<int> leaves{0};
    for (int root = 0; root < 8; ++root) {
        pool.submit([&pool, &leaves, root] {
            for (int k = 0; k < 4; ++k) {
                pool.submit([&pool, &leaves] {
                    pool.submit([&leaves] { ++leaves; }, 0);
                }, static_cast<uint64_t>(root));
            }
        }, static_cast<uint64_t>(root));
    }
    pool.wait();
    EXPECT_EQ(leaves.load(), 32);
}

TEST(ThreadPool, ResolveWorkerCountPolicy)
{
    // Explicit request wins over everything.
    EXPECT_EQ(ThreadPool::resolveWorkerCount(5), 5u);

    ::setenv("VANGUARD_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::resolveWorkerCount(), 3u);
    EXPECT_EQ(ThreadPool::resolveWorkerCount(2), 2u);

    // Zero or garbage falls back to hardware_concurrency (>= 1).
    ::setenv("VANGUARD_JOBS", "0", 1);
    EXPECT_GE(ThreadPool::resolveWorkerCount(), 1u);
    ::setenv("VANGUARD_JOBS", "banana", 1);
    EXPECT_GE(ThreadPool::resolveWorkerCount(), 1u);
    ::unsetenv("VANGUARD_JOBS");
    EXPECT_GE(ThreadPool::resolveWorkerCount(), 1u);

    // The environment is clamped to the one published ceiling.
    ::setenv("VANGUARD_JOBS", "1000000", 1);
    EXPECT_EQ(ThreadPool::resolveWorkerCount(),
              ThreadPool::maxWorkerCount());
    ::unsetenv("VANGUARD_JOBS");
    EXPECT_GE(ThreadPool::maxWorkerCount(), 4u);
}

/** Field-by-field identity of two suite sweeps. */
void
expectIdentical(const std::vector<SuiteResult> &a,
                const std::vector<SuiteResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t w = 0; w < a.size(); ++w) {
        EXPECT_DOUBLE_EQ(a[w].geomeanMeanPct, b[w].geomeanMeanPct);
        EXPECT_DOUBLE_EQ(a[w].geomeanBestPct, b[w].geomeanBestPct);
        ASSERT_EQ(a[w].rows.size(), b[w].rows.size());
        for (size_t r = 0; r < a[w].rows.size(); ++r) {
            const SeedSummary &x = a[w].rows[r];
            const SeedSummary &y = b[w].rows[r];
            EXPECT_EQ(x.name, y.name);
            EXPECT_DOUBLE_EQ(x.meanSpeedupPct, y.meanSpeedupPct);
            EXPECT_DOUBLE_EQ(x.bestSpeedupPct, y.bestSpeedupPct);
            ASSERT_EQ(x.perSeed.size(), y.perSeed.size());
            for (size_t s = 0; s < x.perSeed.size(); ++s) {
                const BenchmarkOutcome &p = x.perSeed[s];
                const BenchmarkOutcome &q = y.perSeed[s];
                EXPECT_EQ(p.base.cycles, q.base.cycles);
                EXPECT_EQ(p.exp.cycles, q.exp.cycles);
                EXPECT_EQ(p.base.issued, q.base.issued);
                EXPECT_EQ(p.exp.issued, q.exp.issued);
                EXPECT_EQ(p.base.branchStalls, q.base.branchStalls);
                EXPECT_DOUBLE_EQ(p.speedupPct, q.speedupPct);
                EXPECT_DOUBLE_EQ(p.aspcb, q.aspcb);
                EXPECT_DOUBLE_EQ(p.pdih, q.pdih);
                EXPECT_DOUBLE_EQ(p.alpbb, q.alpbb);
                EXPECT_DOUBLE_EQ(p.phi, q.phi);
            }
        }
    }
}

TEST(Runner, ParallelIsBitIdenticalToSingleWorker)
{
    std::vector<BenchmarkSpec> suite = {quick("h264ref-like", 1200),
                                        quick("bzip2-like", 1200)};
    std::vector<unsigned> widths = {2, 4};
    VanguardOptions opts;

    RunnerOptions serial;
    serial.jobs = 1;
    RunnerOptions parallel;
    parallel.jobs = 4;

    auto a = runSuiteWidths(suite, widths, opts, serial);
    auto b = runSuiteWidths(suite, widths, opts, parallel);
    expectIdentical(a, b);
}

TEST(Runner, EnvForcedSingleWorkerMatchesParallel)
{
    std::vector<BenchmarkSpec> suite = {quick("sjeng-like", 1000)};
    std::vector<unsigned> widths = {4};
    VanguardOptions opts;

    ::setenv("VANGUARD_JOBS", "1", 1);
    auto serial = runSuiteWidths(suite, widths, opts, {});
    ::setenv("VANGUARD_JOBS", "4", 1);
    auto parallel = runSuiteWidths(suite, widths, opts, {});
    ::unsetenv("VANGUARD_JOBS");
    expectIdentical(serial, parallel);
}

/** Value of `"key":"..."` in a span's args JSON ("" if absent). */
std::string
argValue(const std::string &args, const std::string &key)
{
    std::string tag = "\"" + key + "\":\"";
    size_t at = args.find(tag);
    if (at == std::string::npos)
        return "";
    at += tag.size();
    return args.substr(at, args.find('"', at) - at);
}

TEST(Runner, AtMostJobsPlusOneBenchmarksHoldPrograms)
{
    // A benchmark holds its compiled programs from the end of its
    // compile to the end of its last simulate job. The job graph runs
    // each benchmark's jobs ahead of later trains, so that live set
    // stays at jobs + 1 however long the suite is.
    std::vector<BenchmarkSpec> suite;
    for (const BenchmarkSpec &spec : specInt2006()) {
        suite.push_back(spec);
        suite.back().iterations = 300;
        if (suite.size() == 9)
            break;
    }
    ASSERT_GE(suite.size(), 8u);
    for (unsigned jobs : {1u, 2u, 4u}) {
        Tracer tracer;
        RunnerOptions ropts;
        ropts.jobs = jobs;
        ropts.tracer = &tracer;
        SuiteReport report =
            runSuiteWidthsReport(suite, {2, 4}, VanguardOptions{}, ropts);
        ASSERT_TRUE(report.failures.empty());

        std::map<std::string, uint64_t> compiled_at;
        std::map<std::string, uint64_t> last_sim_end;
        size_t sim_spans = 0;
        for (const auto &track : tracer.snapshotByThread()) {
            std::vector<const TraceEvent *> open;
            for (const TraceEvent &e : track) {
                if (e.phase == 'B') {
                    open.push_back(&e);
                    continue;
                }
                if (e.phase != 'E' || open.empty())
                    continue;
                const TraceEvent &b = *open.back();
                open.pop_back();
                std::string bench = argValue(b.argsJson, "benchmark");
                if (b.name == "compile") {
                    compiled_at[bench] = e.tsMicros;
                } else if (b.name == "simulate") {
                    ++sim_spans;
                    last_sim_end[bench] =
                        std::max(last_sim_end[bench], e.tsMicros);
                }
            }
        }
        ASSERT_EQ(compiled_at.size(), suite.size());
        ASSERT_EQ(last_sim_end.size(), suite.size());
        ASSERT_EQ(sim_spans, suite.size() * kNumRefSeeds * 2);
        // The live count only rises when a compile ends.
        size_t peak = 0;
        for (const auto &[bench, t] : compiled_at) {
            size_t live = 0;
            for (const auto &[other, done] : compiled_at) {
                if (done <= t && last_sim_end[other] > t)
                    ++live;
            }
            peak = std::max(peak, live);
        }
        EXPECT_LE(peak, jobs + 1) << "jobs " << jobs;
        EXPECT_GE(peak, 1u) << "jobs " << jobs;
    }
}

TEST(Runner, MatchesLegacyPerSeedEvaluation)
{
    BenchmarkSpec spec = quick("astar-like", 1000);
    VanguardOptions opts;
    RunnerOptions ropts;
    ropts.jobs = 4;

    auto results =
        runSuiteWidths({spec}, {opts.width}, opts, ropts);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].rows.size(), 1u);
    const SeedSummary &row = results[0].rows[0];
    ASSERT_EQ(row.perSeed.size(), kNumRefSeeds);

    for (size_t s = 0; s < kNumRefSeeds; ++s) {
        BenchmarkOutcome direct =
            evaluateBenchmark(spec, opts, kRefSeeds[s]);
        EXPECT_EQ(row.perSeed[s].base.cycles, direct.base.cycles);
        EXPECT_EQ(row.perSeed[s].exp.cycles, direct.exp.cycles);
        EXPECT_DOUBLE_EQ(row.perSeed[s].speedupPct,
                         direct.speedupPct);
        EXPECT_DOUBLE_EQ(row.perSeed[s].aspcb, direct.aspcb);
    }
}

} // namespace
} // namespace vanguard
