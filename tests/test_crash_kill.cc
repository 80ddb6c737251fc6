/**
 * @file
 * The full crash drill, out of process: launch a checkpointed
 * vanguard_cli sweep, SIGKILL it mid-simulate (no handler can run, no
 * destructor fires — the journal alone must carry the state), resume
 * from the journal, and require stdout bit-identical to a clean run
 * with no duplicate journal entries. Labeled tier2/tier2_crash.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cli_sweep_drill.hh"
#include "core/journal.hh"
#include "core/replay.hh"
#include "profile/profile_io.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

using drill::launch;
using drill::readFile;
using drill::runToCompletion;

TEST(CrashKill, SigkilledSweepResumesBitIdentical)
{
    std::string dir = ::testing::TempDir() + "kill-drill";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string journal = dir + "/journal.vgj";

    // Iterations chosen so one sweep takes several seconds: plenty of
    // window to observe simulate-phase records and shoot the process.
    std::vector<std::string> sweep = {
        "--benchmark", "h264ref-like", "--all-refs",
        "--iterations", "60000",       "--jobs", "2",
        "--checkpoint-dir", dir,
    };

    // Clean reference run (separate checkpoint dir, same spec).
    std::string ref_dir = ::testing::TempDir() + "kill-ref";
    std::filesystem::remove_all(ref_dir);
    std::vector<std::string> ref_args = sweep;
    ref_args.back() = ref_dir;
    ASSERT_EQ(runToCompletion(ref_args, ref_dir + ".out"), 0);

    // Victim run: poll the journal until a simulate record lands,
    // then SIGKILL — the journal's fsync'd records are all that
    // survives.
    pid_t victim = launch(sweep, dir + "/victim.out");
    bool saw_sim = false;
    for (int spin = 0; spin < 600 && !saw_sim; ++spin) {
        ::usleep(20'000);
        std::string text = readFile(journal);
        saw_sim = text.find("\nS ") != std::string::npos;
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
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The torn journal must parse: completed records intact, at most
    // debris from the final in-flight append, no duplicates.
    JournalContents torn = loadJournalFile(journal);
    ASSERT_TRUE(torn.ok) << torn.error;
    EXPECT_GT(torn.records(), 0u);
    EXPECT_LT(torn.records(), torn.totalJobs);
    EXPECT_EQ(torn.duplicates, 0u);

    // Resume and require stdout bit-identical to the clean run.
    std::vector<std::string> resume = sweep;
    resume.push_back("--resume");
    ASSERT_EQ(runToCompletion(resume, dir + "/resume.out"), 0);
    std::string ref_out = readFile(ref_dir + ".out");
    std::string res_out = readFile(dir + "/resume.out");
    ASSERT_FALSE(ref_out.empty());
    EXPECT_EQ(res_out, ref_out);

    // The healed journal is complete and still duplicate-free: the
    // resume re-ran only the jobs the kill lost.
    JournalContents healed = loadJournalFile(journal);
    ASSERT_TRUE(healed.ok) << healed.error;
    EXPECT_EQ(healed.records(), healed.totalJobs);
    EXPECT_EQ(healed.duplicates, 0u);
    EXPECT_GE(healed.records(), torn.records());
}

TEST(CrashKill, InterruptExitsWithResumableCode)
{
    // SIGTERM (the graceful path) must exit 4 — distinct from both
    // success and error — and leave a resumable journal behind.
    std::string dir = ::testing::TempDir() + "term-drill";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> sweep = {
        "--benchmark", "bzip2-like", "--all-refs",
        "--iterations", "60000",     "--jobs", "2",
        "--checkpoint-dir", dir,
    };
    pid_t victim = launch(sweep, dir + "/victim.out");
    // Give the sweep a moment to start, then request the drain.
    ::usleep(500'000);
    ::kill(victim, SIGTERM);
    int status = 0;
    ::waitpid(victim, &status, 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 4);

    JournalContents j =
        loadJournalFile(dir + "/journal.vgj");
    EXPECT_TRUE(j.ok) << j.error;

    std::vector<std::string> resume = sweep;
    resume.push_back("--resume");
    EXPECT_EQ(runToCompletion(resume, dir + "/resume.out"), 0);
}

/**
 * A machine the model cannot run is refused up front with the usage
 * exit code (2) — never a hang or an internal assert: a zero width
 * spins the issue stage, a zero-entry DBB breaks its ring, and a
 * non-numeric value must not be read as zero. Count flags are parsed
 * as strictly: a worker count past the ceiling (or a negative one,
 * which wraps to 4294967295), a non-numeric trip count, and a Gantt
 * window too large to allocate all fail in parsing. So do a
 * non-numeric seed, cycle budget (it would read as 0 and disable the
 * watchdog) or failure threshold, and a selection threshold that is
 * not a finite number in [0, 1] (it would read as 0 and select every
 * branch). The retired self-benchmark flags are unknown flags now.
 * No case passes --all-refs, so none of them would build a worker
 * pool even if parsing let it through.
 */
TEST(CrashKill, UnusableMachineFlagsExitWithUsageError)
{
    std::string out = ::testing::TempDir() + "bad-flag.out";
    for (std::vector<std::string> flags :
         {std::vector<std::string>{"--width", "0"},
          std::vector<std::string>{"--width", "x"},
          std::vector<std::string>{"--width", "4x"},
          std::vector<std::string>{"--dbb", "0"},
          std::vector<std::string>{"--dbb", "-3"},
          std::vector<std::string>{"--jobs", "abc"},
          std::vector<std::string>{"--jobs", "-1"},
          std::vector<std::string>{"--jobs", "0"},
          std::vector<std::string>{"--jobs", "100000"},
          std::vector<std::string>{"--iterations", "abc"},
          std::vector<std::string>{"--iterations", "0"},
          std::vector<std::string>{"--iterations", "-5"},
          std::vector<std::string>{"--gantt-window",
                                   "99999999999999999", "--timeline"},
          std::vector<std::string>{"--gantt-window", "0"},
          std::vector<std::string>{"--seed", "abc"},
          std::vector<std::string>{"--seed", "-1"},
          std::vector<std::string>{"--cycle-budget", "abc"},
          std::vector<std::string>{"--cycle-budget", "100k"},
          std::vector<std::string>{"--fail-threshold", "abc"},
          std::vector<std::string>{"--fail-threshold", "-2"},
          std::vector<std::string>{"--threshold", "abc"},
          std::vector<std::string>{"--threshold", "nan"},
          std::vector<std::string>{"--threshold", "-3"},
          std::vector<std::string>{"--threshold", "1.5"},
          std::vector<std::string>{"--threshold", ""},
          std::vector<std::string>{"--selfbench"},
          std::vector<std::string>{"--selfbench-repeats", "abc"},
          std::vector<std::string>{"--selfbench-repeats", "0"},
          std::vector<std::string>{"--selfbench-iters", "x"},
          std::vector<std::string>{"--no-threaded-dispatch"},
          std::vector<std::string>{"--worker-heartbeat", "400",
                                   "--all-refs", "--isolate-jobs"}}) {
        std::string label;
        for (const std::string &f : flags)
            label += (label.empty() ? "" : " ") + f;
        std::vector<std::string> args = {"--benchmark", "mcf-like",
                                         "--iterations", "500"};
        args.insert(args.end(), flags.begin(), flags.end());
        pid_t pid = launch(args, out);
        int status = 0;
        pid_t got = 0;
        for (int waited_ms = 0; waited_ms < 30'000; waited_ms += 10) {
            got = ::waitpid(pid, &status, WNOHANG);
            if (got != 0)
                break;
            ::usleep(10'000);
        }
        if (got == 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            ADD_FAILURE() << label << " hung";
            continue;
        }
        ASSERT_TRUE(WIFEXITED(status)) << label;
        EXPECT_EQ(WEXITSTATUS(status), 2) << label;
    }
}

/**
 * A replay bundle is outside input too: one whose machine has a cache
 * level with no sets (it used to die with SIGFPE in the set index) or
 * one too large to allocate is a usage error, exit 2.
 */
TEST(CrashKill, ReplayOfUnusableCacheExitsWithUsageError)
{
    std::string out = ::testing::TempDir() + "bad-bundle.out";
    std::string path = ::testing::TempDir() + "bad-bundle.vgr";
    for (unsigned size_kb : {0u, 4'000'000'000u}) {
        ReplayJob bundle;
        WorkerJob &job = bundle.job;
        job.phase = "simulate";
        job.spec = findBenchmark("mcf-like");
        job.spec.iterations = 500;
        job.specName = job.spec.name;
        job.widths = {4};
        job.seed = 1;
        job.profileText =
            serializeProfile(trainBenchmark(job.spec, job.options).profile);
        job.options.l1iSizeKB = size_kb;
        bundle.errorKind = "Fault";
        {
            std::ofstream f(path);
            f << serializeReplayJob(bundle);
        }
        pid_t pid = launch({"--replay", path}, out);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status)) << size_kb << " KB";
        EXPECT_EQ(WEXITSTATUS(status), 2) << size_kb << " KB";
    }
}

} // namespace
} // namespace vanguard
