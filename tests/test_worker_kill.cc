/**
 * @file
 * Process-isolation drills (tier2/tier2_worker), out of process where
 * it matters: worker death mid-job (SIGSEGV poison jobs, fault-plan
 * SIGKILLs, runaway allocation under rlimit), the heartbeat watchdog
 * against a SIGSTOPped worker, graceful drain with a no-zombie
 * postcondition, resume after SIGKILLing the supervisor itself — and
 * the headline contract: sweep output byte-identical between
 * --isolate-jobs and the in-process pool at any worker count, kills
 * or no kills.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cli_sweep_drill.hh"
#include "core/coordinator.hh"
#include "core/journal.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

using drill::launch;
using drill::readFile;
using drill::runToCompletion;

/** Metrics dump minus the engine.worker.* lines — everything else is
 *  covered by the cross-mode identity contract. */
std::string
filteredMetrics(const std::string &path)
{
    std::istringstream in(readFile(path));
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.find("engine.worker.") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

/** The shared tiny sweep: one benchmark, full REF-seed battery. */
std::vector<std::string>
sweepArgs(const std::string &metrics_path)
{
    return {"--benchmark", "gcc-like", "--iterations", "3000",
            "--all-refs",  "--metrics-out", metrics_path};
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

TEST(WorkerIdentity, IsolatedSweepIsBitIdenticalAtAnyWorkerCount)
{
    std::vector<std::string> ref = sweepArgs(tmpPath("wid-ref.json"));
    ref.push_back("--jobs");
    ref.push_back("4");
    ASSERT_EQ(runToCompletion(ref, tmpPath("wid-ref.out")), 0);

    for (const char *jobs : {"1", "8"}) {
        std::string tag = std::string("wid-p") + jobs;
        std::vector<std::string> iso =
            sweepArgs(tmpPath(tag + ".json"));
        iso.push_back("--jobs");
        iso.push_back(jobs);
        iso.push_back("--isolate-jobs");
        ASSERT_EQ(runToCompletion(iso, tmpPath(tag + ".out")), 0) << tag;

        // Report bytes and metrics (minus the supervision gauges,
        // which are operational and legitimately nonzero here) are
        // identical to the in-process run.
        EXPECT_EQ(readFile(tmpPath(tag + ".out")),
                  readFile(tmpPath("wid-ref.out")))
            << tag;
        EXPECT_EQ(filteredMetrics(tmpPath(tag + ".json")),
                  filteredMetrics(tmpPath("wid-ref.json")))
            << tag;
    }
}

TEST(WorkerIdentity, SweepSurvivesMidJobWorkerKillsBitIdentically)
{
    // internal:0.25,seed=11 deterministically SIGKILLs two workers
    // mid-job (one train, one simulate) via the worker.kill site.
    // The in-process pool has no workers to kill — its run under the
    // same plan is clean — and the isolated sweep must still emit the
    // same bytes: a redelivered job is invisible to the report.
    const std::vector<std::string> plan = {"--inject",
                                           "internal:0.25,seed=11"};

    std::vector<std::string> ref = sweepArgs(tmpPath("wkill-ref.json"));
    ref.insert(ref.end(), plan.begin(), plan.end());
    ref.push_back("--jobs");
    ref.push_back("4");
    ASSERT_EQ(runToCompletion(ref, tmpPath("wkill-ref.out")), 0);

    for (const char *jobs : {"1", "8"}) {
        std::string tag = std::string("wkill-p") + jobs;
        std::vector<std::string> iso =
            sweepArgs(tmpPath(tag + ".json"));
        iso.insert(iso.end(), plan.begin(), plan.end());
        iso.push_back("--jobs");
        iso.push_back(jobs);
        iso.push_back("--isolate-jobs");
        ASSERT_EQ(runToCompletion(iso, tmpPath(tag + ".out"),
                         tmpPath(tag + ".err")), 0)
            << tag;

        // The kills actually happened (worker-count-independent: the
        // same two jobs lose their worker at jobs=1 and jobs=8) ...
        std::string err = readFile(tmpPath(tag + ".err"));
        EXPECT_NE(err.find("died on signal 9"), std::string::npos)
            << tag << " stderr:\n" << err;
        EXPECT_NE(err.find("redelivering"), std::string::npos) << tag;

        // ... and the sweep's bytes don't care.
        EXPECT_EQ(readFile(tmpPath(tag + ".out")),
                  readFile(tmpPath("wkill-ref.out")))
            << tag;
        EXPECT_EQ(filteredMetrics(tmpPath(tag + ".json")),
                  filteredMetrics(tmpPath("wkill-ref.json")))
            << tag;
    }
}

TEST(WorkerQuarantine, PoisonJobIsQuarantinedAndSweepCompletes)
{
    // Plant an always-SIGSEGV job (the simulate job in slot 0) via
    // the chaos knob. The sweep must quarantine it after three
    // worker deaths, write its replay bundle, and finish every other
    // job normally.
    std::string replay_dir = tmpPath("wq-replay");
    std::filesystem::remove_all(replay_dir);
    ::setenv("VANGUARD_WORKER_SEGV_SLOT", "simulate:0", 1);
    std::vector<std::string> args = sweepArgs(tmpPath("wq.json"));
    args.push_back("--jobs");
    args.push_back("2");
    args.push_back("--isolate-jobs");
    args.push_back("--replay-dir");
    args.push_back(replay_dir);
    int rc = runToCompletion(args, tmpPath("wq.out"), tmpPath("wq.err"));
    ::unsetenv("VANGUARD_WORKER_SEGV_SLOT");
    EXPECT_EQ(rc, 3); // failed jobs, not a crash

    std::string out = readFile(tmpPath("wq.out"));
    std::string err = readFile(tmpPath("wq.err"));
    // Root-caused as a poison job in the failure table (stderr),
    // with the worker's fate named.
    EXPECT_NE(err.find("quarantined"), std::string::npos) << err;
    EXPECT_NE(err.find("died on signal 11"), std::string::npos)
        << err;
    // The sweep completed: the report table was still assembled.
    EXPECT_NE(out.find("gcc-like"), std::string::npos) << out;

    // The replay bundle for the quarantined job exists.
    bool bundle = false;
    for (const auto &e :
         std::filesystem::directory_iterator(replay_dir))
        bundle |= e.path().extension() == ".vgr";
    EXPECT_TRUE(bundle) << "no .vgr bundle in " << replay_dir;

    // Quarantine shows in the supervision gauges.
    std::string metrics = readFile(tmpPath("wq.json"));
    EXPECT_NE(
        metrics.find("\"engine.worker.quarantined_jobs\": 1"),
        std::string::npos)
        << metrics;
}

/** Direct-coordinator drills below exec the CLI binary as the worker
 *  and read the supervision counters from `reg`. */
Coordinator::Options
spawnOptions(unsigned workers, MetricsRegistry *reg = nullptr)
{
    Coordinator::Options o;
    o.workers = workers;
    o.execPath = VANGUARD_CLI_BIN;
    o.metrics = reg;
    return o;
}

WorkerJob
trainJob(size_t slot, uint64_t iterations)
{
    WorkerJob j;
    j.phase = "train";
    j.slot = slot;
    j.spec = findBenchmark("gcc-like");
    j.spec.iterations = iterations;
    j.specName = j.spec.name;
    j.bindSpecName();
    return j;
}

TEST(WorkerSupervision, HeartbeatWatchdogKillsStoppedWorker)
{
    MetricsRegistry reg;
    Coordinator::Options o = spawnOptions(1, &reg);
    o.leaseMs = 400; // beats every 100 ms
    Coordinator fabric(o);

    std::vector<int> pids = fabric.workerPids();
    ASSERT_EQ(pids.size(), 1u);

    // Freeze the worker shortly after the job lands: beats stop, the
    // deadline passes, the supervisor SIGKILLs it and the job fails
    // as a Hang — the same taxonomy as an in-process watchdog trip.
    std::thread stopper([&pids] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::kill(pids[0], SIGSTOP);
    });
    try {
        fabric.execute(trainJob(0, 5'000'000));
        stopper.join();
        FAIL() << "stopped worker's job did not hang";
    } catch (const SimError &e) {
        stopper.join();
        EXPECT_EQ(e.kind(), SimError::Kind::Hang);
        EXPECT_NE(e.detail().find("heartbeat"), std::string::npos);
    }
    EXPECT_EQ(reg.counter("engine.worker.heartbeat_misses").value(), 1u);

    // The fabric recovered: the next job runs on a fresh worker.
    WorkerResult ok = fabric.execute(trainJob(1, 500));
    EXPECT_TRUE(ok.ok);
    EXPECT_FALSE(ok.profileText.empty());
}

TEST(WorkerSupervision, RlimitTurnsRunawayAllocationIntoFailure)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
    GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow";
#endif
#endif
    Coordinator::Options o = spawnOptions(1);
    o.rlimitMb = 512;
    Coordinator fabric(o);

    // A 1 GiB working set cannot fit under the 512 MiB address-space
    // cap: whether the allocator reports bad_alloc (a structured
    // failure result) or the worker dies trying (quarantine after
    // three), the supervisor turns it into a SimError — never a
    // wedged or crashed sweep.
    WorkerJob runaway = trainJob(0, 1000);
    runaway.spec.workingSetKB = 1u << 20;
    EXPECT_THROW(fabric.execute(std::move(runaway)), SimError);

    // And an ordinary job still fits and succeeds.
    WorkerResult ok = fabric.execute(trainJob(1, 500));
    EXPECT_TRUE(ok.ok);
}

TEST(WorkerSupervision, DirectQuarantineAfterConsecutiveDeaths)
{
    ::setenv("VANGUARD_WORKER_SEGV_SLOT", "train:5", 1);
    MetricsRegistry reg;
    Coordinator fabric(spawnOptions(2, &reg));
    try {
        fabric.execute(trainJob(5, 500));
        FAIL() << "poison job completed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Internal);
        EXPECT_NE(e.detail().find("poison job quarantined"),
                  std::string::npos)
            << e.detail();
        EXPECT_NE(e.detail().find("signal 11"), std::string::npos)
            << e.detail();
    }
    ::unsetenv("VANGUARD_WORKER_SEGV_SLOT");
    EXPECT_EQ(reg.counter("engine.worker.quarantined_jobs").value(), 1u);

    // Three consecutive losses did not trip the storm breaker; the
    // fabric still serves other jobs.
    WorkerResult ok = fabric.execute(trainJob(0, 500));
    EXPECT_TRUE(ok.ok);
}

TEST(WorkerSupervision, DrainLeavesNoWorkersAndNoZombies)
{
    std::vector<int> pids;
    {
        Coordinator fabric(spawnOptions(3));
        WorkerResult r = fabric.execute(trainJob(0, 500));
        EXPECT_TRUE(r.ok);
        pids = fabric.workerPids();
        EXPECT_EQ(pids.size(), 3u);
        fabric.shutdown(); // destructor would do the same
    }
    // Every worker is gone — not running, not a zombie waiting for a
    // reap that will never come.
    for (int pid : pids) {
        EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid
                                      << " survived the drain";
        EXPECT_EQ(errno, ESRCH);
    }
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a child outlived the fabric";
}

TEST(WorkerResume, SupervisorSigkillOrphansNothingAndResumes)
{
    std::string dir = tmpPath("wres-drill");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string journal = dir + "/journal.vgj";

    std::vector<std::string> sweep = {
        "--benchmark", "h264ref-like", "--all-refs",
        "--iterations", "60000",       "--jobs", "2",
        "--isolate-jobs", "--checkpoint-dir", dir,
    };

    // Clean reference run, in-process: the resumed isolated sweep
    // must match it byte for byte.
    std::string ref_dir = tmpPath("wres-ref");
    std::filesystem::remove_all(ref_dir);
    std::vector<std::string> ref_args = {
        "--benchmark", "h264ref-like", "--all-refs",
        "--iterations", "60000",       "--jobs", "2",
        "--checkpoint-dir", ref_dir,
    };
    ASSERT_EQ(runToCompletion(ref_args, ref_dir + ".out"), 0);

    // SIGKILL the supervisor mid-simulate. No handler runs: the
    // journal carries the sweep state, and the workers must notice
    // the dead socket and exit on their own.
    pid_t victim = launch(sweep, dir + "/victim.out", "");
    bool saw_sim = false;
    for (int spin = 0; spin < 600 && !saw_sim; ++spin) {
        ::usleep(20'000);
        saw_sim =
            readFile(journal).find("\nS ") != std::string::npos;
        int status = 0;
        ASSERT_EQ(::waitpid(victim, &status, WNOHANG), 0)
            << "sweep finished before it could be killed; raise "
               "--iterations";
    }
    ASSERT_TRUE(saw_sim) << "no simulate record within the window";
    ::kill(victim, SIGKILL);
    int status = 0;
    ::waitpid(victim, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

#ifdef __linux__
    // No orphaned worker may outlive its supervisor: each sees EOF on
    // the job socket and exits. Poll /proc briefly.
    auto workersLeft = [] {
        int n = 0;
        for (const auto &e :
             std::filesystem::directory_iterator("/proc")) {
            std::string pid = e.path().filename();
            if (pid.find_first_not_of("0123456789") !=
                std::string::npos)
                continue;
            std::string cmd = readFile(e.path() / "cmdline");
            if (cmd.find(VANGUARD_CLI_BIN) != std::string::npos &&
                cmd.find("--worker") != std::string::npos)
                ++n;
        }
        return n;
    };
    int left = workersLeft();
    for (int spin = 0; spin < 100 && left > 0; ++spin) {
        ::usleep(50'000);
        left = workersLeft();
    }
    EXPECT_EQ(left, 0) << "orphaned workers survived the supervisor";
#endif

    // Resume, still isolated, and require bit-identity with the
    // clean in-process reference.
    std::vector<std::string> resume = sweep;
    resume.push_back("--resume");
    ASSERT_EQ(runToCompletion(resume, dir + "/resume.out"), 0);
    std::string ref_out = readFile(ref_dir + ".out");
    ASSERT_FALSE(ref_out.empty());
    EXPECT_EQ(readFile(dir + "/resume.out"), ref_out);

    JournalContents healed = loadJournalFile(journal);
    ASSERT_TRUE(healed.ok) << healed.error;
    EXPECT_EQ(healed.records(), healed.totalJobs);
    EXPECT_EQ(healed.duplicates, 0u);
}

} // namespace
} // namespace vanguard
