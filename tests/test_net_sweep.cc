/**
 * @file
 * Distributed-sweep end-to-end drills (tier2/tier2_net), driving the
 * real vanguard_cli binary over localhost TCP:
 *
 *   - a --serve-sweep coordinator with two --remote-worker processes
 *     produces stdout, journal, and metrics byte-identical to the
 *     in-process and --isolate-jobs runs (journal compared as sorted
 *     records — completion order is the one legitimately
 *     nondeterministic thing; metrics compared minus the engine.net.*
 *     values and the wall-clock job_rtt carve-out),
 *   - the same identity holds under injected frame drops, delays, and
 *     disconnects (--net-inject), which also exercises lease expiry,
 *     re-grants, and duplicate-completion reconciliation,
 *   - a SIGKILLed remote worker costs nothing: its leases expire and
 *     re-grant to a surviving worker, the sweep completes identically,
 *   - a SIGSTOPped remote worker's lease expires and re-grants (a
 *     remote expiry is a possible partition, never a Hang), leaving
 *     every engine.worker.* counter at zero,
 *   - a SIGKILLed *coordinator* resumes from its journal on the same
 *     port; the waiting workers reconnect and finish the sweep with
 *     stdout identical to a clean run,
 *   - every child is reaped (no zombies, no orphans).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/journal.hh"
#include "support/metrics.hh"

#ifndef VANGUARD_CLI_BIN
#error "VANGUARD_CLI_BIN must point at the vanguard_cli binary"
#endif

namespace vanguard {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** fork/exec vanguard_cli with stdout/stderr captured; returns pid. */
pid_t
launch(const std::vector<std::string> &args,
       const std::string &out_path, const std::string &err_path)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    ::dup2(fd, STDOUT_FILENO);
    int errfd = ::open(err_path.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(errfd, STDERR_FILENO);
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(VANGUARD_CLI_BIN));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(VANGUARD_CLI_BIN, argv.data());
    std::_Exit(127); // exec failed
}

int
waitExit(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
runToCompletion(const std::vector<std::string> &args,
                const std::string &out_path,
                const std::string &err_path)
{
    return waitExit(launch(args, out_path, err_path));
}

/**
 * Reap a worker that should drain on its own, with a SIGTERM
 * fallback: a worker that was mid-backoff when a *resumed*
 * coordinator finished never helloed to it, so no DRAIN ever targets
 * it — by design it would retry forever, and the graceful-shutdown
 * latch is the documented way to stop it.
 */
int
waitExitWithGrace(pid_t pid, int grace_ms)
{
    for (int waited = 0; waited < grace_ms; waited += 20) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        ::usleep(20'000);
    }
    ::kill(pid, SIGTERM);
    return waitExit(pid);
}

/** Poll a coordinator's stderr for the resolved "port N" line. */
unsigned
awaitServePort(const std::string &err_path, pid_t coord)
{
    for (int spin = 0; spin < 500; ++spin) {
        std::string text = readFile(err_path);
        size_t at = text.find("serving sweep on port ");
        if (at != std::string::npos) {
            return static_cast<unsigned>(
                std::strtoul(text.c_str() + at + 22, nullptr, 10));
        }
        int status = 0;
        EXPECT_EQ(::waitpid(coord, &status, WNOHANG), 0)
            << "coordinator exited before announcing its port";
        ::usleep(20'000);
    }
    ADD_FAILURE() << "no 'serving sweep on port' line within 10s";
    return 0;
}

/** Journal text as sorted lines: record *content* must be identical
 *  across execution modes; completion *order* legitimately is not. */
std::string
sortedLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::stringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

/** A metrics dump's flattened keys (parseMetricsJson) minus the
 *  per-transport carve-outs: engine.net.*
 *  values count fabric traffic (zero without --serve-sweep) and
 *  engine.worker.* counts supervision traffic (zero without
 *  --isolate-jobs) — both wall-clock-ish transport tallies, like the
 *  job_rtt histogram. Shape stays asserted — the keys must exist in
 *  every mode; only their values are mode-specific. */
std::map<std::string, double>
comparableMetrics(const std::string &json)
{
    ParsedMetrics parsed = parseMetricsJson(json);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    std::map<std::string, double> out;
    size_t net_keys = 0;
    for (const auto &[key, value] : parsed.values) {
        if (key.find("engine.net.") != std::string::npos) {
            ++net_keys;
            continue;
        }
        if (key.find("engine.worker.") != std::string::npos ||
            key.find("job_rtt") != std::string::npos)
            continue;
        out.emplace(key, value);
    }
    EXPECT_EQ(net_keys, 6u) << "engine.net.* keys missing from dump";
    return out;
}

/** One full sweep in a given mode; returns the exit code. */
struct SweepArtifacts
{
    std::string out, journal, metrics;
};

std::vector<std::string>
sweepArgs(const std::string &ckpt_dir, const std::string &metrics)
{
    return {
        "--benchmark",      "gobmk-like", "--all-refs",
        "--iterations",     "3000",       "--jobs", "2",
        "--checkpoint-dir", ckpt_dir,     "--metrics-out", metrics,
    };
}

SweepArtifacts
runLocalSweep(const std::string &dir, bool isolate)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> args =
        sweepArgs(dir, dir + "/metrics.json");
    if (isolate)
        args.push_back("--isolate-jobs");
    EXPECT_EQ(runToCompletion(args, dir + "/stdout", dir + "/stderr"),
              0);
    return {readFile(dir + "/stdout"),
            readFile(dir + "/journal.vgj"),
            readFile(dir + "/metrics.json")};
}

/**
 * One distributed sweep: coordinator on an ephemeral port, `workers`
 * remote workers, all reaped before returning. Extra coordinator
 * flags (e.g. --net-inject) ride along.
 */
SweepArtifacts
runServedSweep(const std::string &dir, unsigned workers,
               const std::vector<std::string> &extra)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> args =
        sweepArgs(dir, dir + "/metrics.json");
    args.push_back("--serve-sweep");
    args.push_back("0");
    for (const std::string &e : extra)
        args.push_back(e);
    pid_t coord = launch(args, dir + "/stdout", dir + "/stderr");
    unsigned port = awaitServePort(dir + "/stderr", coord);
    std::string host_port = "127.0.0.1:" + std::to_string(port);
    std::vector<pid_t> pids;
    for (unsigned w = 0; w < workers; ++w) {
        std::string base = dir + "/worker" + std::to_string(w);
        pids.push_back(launch({"--remote-worker", host_port},
                              base + ".out", base + ".err"));
    }
    EXPECT_EQ(waitExit(coord), 0) << readFile(dir + "/stderr");
    for (pid_t pid : pids)
        EXPECT_EQ(waitExit(pid), 0); // drained, not errored
    return {readFile(dir + "/stdout"),
            readFile(dir + "/journal.vgj"),
            readFile(dir + "/metrics.json")};
}

TEST(NetSweep, DistributedRunIsByteIdenticalToLocalAndIsolated)
{
    std::string base = ::testing::TempDir() + "net-ident";
    SweepArtifacts local = runLocalSweep(base + "-local", false);
    SweepArtifacts isolated = runLocalSweep(base + "-iso", true);
    SweepArtifacts served = runServedSweep(base + "-served", 2, {});

    ASSERT_FALSE(local.out.empty());
    EXPECT_EQ(served.out, local.out);
    EXPECT_EQ(isolated.out, local.out);
    EXPECT_EQ(sortedLines(served.journal), sortedLines(local.journal));
    EXPECT_EQ(sortedLines(isolated.journal),
              sortedLines(local.journal));
    EXPECT_EQ(comparableMetrics(served.metrics),
              comparableMetrics(local.metrics));
    EXPECT_EQ(comparableMetrics(isolated.metrics),
              comparableMetrics(local.metrics));

    // The distributed journal is a complete, duplicate-free ledger:
    // at-least-once delivery reconciled to exactly-once effect.
    JournalContents j = loadJournalFile(base + "-served/journal.vgj");
    ASSERT_TRUE(j.ok) << j.error;
    EXPECT_EQ(j.records(), j.totalJobs);
    EXPECT_EQ(j.duplicates, 0u);
}

TEST(NetSweep, IdentityHoldsUnderInjectedNetworkChaos)
{
    // Aggressive frame loss, delays, and forced disconnects with a
    // short lease: exercises expiry, re-grant, worker reconnect, and
    // duplicate-completion byte-reconciliation — and the results must
    // STILL be byte-identical, because the net fault plan never
    // touches the job draw streams.
    std::string base = ::testing::TempDir() + "net-chaos";
    SweepArtifacts local = runLocalSweep(base + "-local", false);
    SweepArtifacts chaos = runServedSweep(
        base + "-served", 2,
        {"--lease-ms", "500", "--net-inject",
         "io:0.05,hang:0.02,seed=11"});

    ASSERT_FALSE(local.out.empty());
    EXPECT_EQ(chaos.out, local.out);
    EXPECT_EQ(sortedLines(chaos.journal), sortedLines(local.journal));
    EXPECT_EQ(comparableMetrics(chaos.metrics),
              comparableMetrics(local.metrics));
}

TEST(NetSweep, SigkilledWorkerIsAbsorbedByLeaseExpiry)
{
    std::string dir = ::testing::TempDir() + "net-worker-kill";
    std::string ref_dir = dir + "-ref";
    std::filesystem::remove_all(ref_dir);
    std::filesystem::create_directories(ref_dir);
    // Long jobs keep the sweep alive past the kill; the reference run
    // needs the same iteration count, so build it by hand rather than
    // via runLocalSweep.
    std::vector<std::string> ref_args = {
        "--benchmark",  "gobmk-like", "--all-refs",
        "--iterations", "60000",      "--jobs", "2",
        "--checkpoint-dir", ref_dir,
    };
    ASSERT_EQ(runToCompletion(ref_args, ref_dir + "/stdout",
                              ref_dir + "/stderr"),
              0);

    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // A short lease makes the re-grant fast.
    std::vector<std::string> args = {
        "--benchmark",      "gobmk-like", "--all-refs",
        "--iterations",     "60000",      "--jobs", "2",
        "--checkpoint-dir", dir,          "--serve-sweep", "0",
        "--lease-ms",       "500",
    };
    pid_t coord = launch(args, dir + "/stdout", dir + "/stderr");
    unsigned port = awaitServePort(dir + "/stderr", coord);
    std::string host_port = "127.0.0.1:" + std::to_string(port);

    pid_t victim = launch({"--remote-worker", host_port},
                          dir + "/victim.out", dir + "/victim.err");
    pid_t survivor = launch({"--remote-worker", host_port},
                            dir + "/w2.out", dir + "/w2.err");
    // Wait until the sweep is demonstrably mid-flight (a simulate
    // record in the journal, coordinator still alive), then SIGKILL
    // the victim: no drain, no farewell frame — only its lease
    // expiry tells the coordinator.
    std::string journal = dir + "/journal.vgj";
    bool saw_sim = false;
    for (int spin = 0; spin < 600 && !saw_sim; ++spin) {
        ::usleep(20'000);
        saw_sim =
            readFile(journal).find("\nS ") != std::string::npos;
        int status = 0;
        ASSERT_EQ(::waitpid(coord, &status, WNOHANG), 0)
            << "sweep finished before the victim could be killed; "
               "raise --iterations";
    }
    ASSERT_TRUE(saw_sim) << "no simulate record within the window";
    ::kill(victim, SIGKILL);
    int status = 0;
    ::waitpid(victim, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    EXPECT_EQ(waitExit(coord), 0) << readFile(dir + "/stderr");
    EXPECT_EQ(waitExit(survivor), 0);

    std::string out = readFile(dir + "/stdout");
    EXPECT_EQ(out, readFile(ref_dir + "/stdout"));
    JournalContents j = loadJournalFile(dir + "/journal.vgj");
    ASSERT_TRUE(j.ok) << j.error;
    EXPECT_EQ(j.records(), j.totalJobs);
    EXPECT_EQ(j.duplicates, 0u);
}

TEST(NetSweep, StoppedWorkerLeaseExpiresAndRegrantsWithoutHang)
{
    // The remote half of the owned-peer expiry rule: a lease that
    // expires on a *remote* peer is a possible partition, not a hang.
    // SIGSTOP one of two workers mid-lease: its renewals stop, the
    // lease expires, and the job re-grants to the survivor — the
    // sweep completes byte-identically, with no Hang failure and no
    // process-supervision counter moving.
    std::string dir = ::testing::TempDir() + "net-worker-stop";
    std::string ref_dir = dir + "-ref";
    std::filesystem::remove_all(ref_dir);
    std::filesystem::create_directories(ref_dir);
    std::vector<std::string> ref_args = {
        "--benchmark",  "gobmk-like", "--all-refs",
        "--iterations", "60000",      "--jobs", "2",
        "--checkpoint-dir", ref_dir,
    };
    ASSERT_EQ(runToCompletion(ref_args, ref_dir + "/stdout",
                              ref_dir + "/stderr"),
              0);

    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string metrics = dir + "/metrics.json";
    std::vector<std::string> args = {
        "--benchmark",      "gobmk-like", "--all-refs",
        "--iterations",     "60000",      "--jobs", "2",
        "--checkpoint-dir", dir,          "--serve-sweep", "0",
        "--lease-ms",       "500",        "--metrics-out", metrics,
    };
    pid_t coord = launch(args, dir + "/stdout", dir + "/stderr");
    unsigned port = awaitServePort(dir + "/stderr", coord);
    std::string host_port = "127.0.0.1:" + std::to_string(port);
    pid_t victim = launch({"--remote-worker", host_port},
                          dir + "/victim.out", dir + "/victim.err");
    pid_t survivor = launch({"--remote-worker", host_port},
                            dir + "/w2.out", dir + "/w2.err");

    std::string journal = dir + "/journal.vgj";
    bool saw_sim = false;
    for (int spin = 0; spin < 600 && !saw_sim; ++spin) {
        ::usleep(20'000);
        saw_sim =
            readFile(journal).find("\nS ") != std::string::npos;
        int status = 0;
        ASSERT_EQ(::waitpid(coord, &status, WNOHANG), 0)
            << "sweep finished before the victim could be stopped; "
               "raise --iterations";
    }
    ASSERT_TRUE(saw_sim) << "no simulate record within the window";
    ::kill(victim, SIGSTOP);

    int coord_rc = waitExit(coord);
    // The stopped worker cannot read its DRAIN; once resumed it would
    // retry the vanished coordinator forever, so kill it outright.
    ::kill(victim, SIGKILL);
    int status = 0;
    ::waitpid(victim, &status, 0);
    EXPECT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(waitExit(survivor), 0);

    ASSERT_EQ(coord_rc, 0) << readFile(dir + "/stderr");
    EXPECT_EQ(readFile(dir + "/stdout"), readFile(ref_dir + "/stdout"));
    JournalContents j = loadJournalFile(journal);
    ASSERT_TRUE(j.ok) << j.error;
    EXPECT_EQ(j.records(), j.totalJobs);
    EXPECT_EQ(j.duplicates, 0u);
    EXPECT_EQ(readFile(dir + "/stderr").find("Hang"), std::string::npos)
        << readFile(dir + "/stderr");

    // Counters: the expiry happened on the engine.net.* side, and
    // every engine.worker.* value (job_rtt included) stayed zero.
    ParsedMetrics parsed = parseMetricsJson(readFile(metrics));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    size_t worker_keys = 0;
    for (const auto &[key, value] : parsed.values) {
        // Keys are "<section>.<path>"; only the path is matched.
        std::string path = key.substr(key.find('.') + 1);
        if (path.rfind("engine.worker.", 0) == 0) {
            ++worker_keys;
            EXPECT_EQ(value, 0.0) << key;
        }
    }
    ASSERT_TRUE(parsed.has("counters.engine.net.leases_expired"))
        << "no engine.net.leases_expired in dump";
    EXPECT_GE(parsed.values.at("counters.engine.net.leases_expired"), 1.0);
    EXPECT_GT(worker_keys, 0u) << "engine.worker.* keys missing";
}

TEST(NetSweep, SigkilledCoordinatorResumesOnTheSamePort)
{
    std::string dir = ::testing::TempDir() + "net-coord-kill";
    std::string ref_dir = dir + "-ref";
    std::filesystem::remove_all(ref_dir);
    std::filesystem::create_directories(ref_dir);
    // The reference run needs the kill drill's (longer) iteration
    // count, so build it by hand rather than via runLocalSweep.
    std::vector<std::string> ref_args = {
        "--benchmark",  "h264ref-like", "--all-refs",
        "--iterations", "60000",        "--jobs", "2",
        "--checkpoint-dir", ref_dir,
    };
    ASSERT_EQ(runToCompletion(ref_args, ref_dir + "/stdout",
                              ref_dir + "/stderr"),
              0);

    // Workers reconnect to the port they were given, so the restarted
    // coordinator must reuse it: pick a fixed one (pid-salted to keep
    // parallel ctest instances apart; SO_REUSEADDR covers the
    // restart).
    unsigned port = 38000 + static_cast<unsigned>(::getpid()) % 1000;
    std::string port_str = std::to_string(port);
    std::string host_port = "127.0.0.1:" + port_str;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> serve = {
        "--benchmark",      "h264ref-like", "--all-refs",
        "--iterations",     "60000",        "--jobs", "2",
        "--checkpoint-dir", dir,            "--serve-sweep", port_str,
        "--lease-ms",       "500",
    };
    pid_t coord = launch(serve, dir + "/stdout", dir + "/stderr");
    ASSERT_EQ(awaitServePort(dir + "/stderr", coord), port);

    pid_t w1 = launch({"--remote-worker", host_port}, dir + "/w1.out",
                      dir + "/w1.err");
    pid_t w2 = launch({"--remote-worker", host_port}, dir + "/w2.out",
                      dir + "/w2.err");

    // Wait for real progress (a simulate record in the journal), then
    // SIGKILL the coordinator: no drain, no DRAIN frames — the
    // workers are left holding dead leases and must reconnect.
    std::string journal = dir + "/journal.vgj";
    bool saw_sim = false;
    for (int spin = 0; spin < 600 && !saw_sim; ++spin) {
        ::usleep(20'000);
        saw_sim =
            readFile(journal).find("\nS ") != std::string::npos;
        int status = 0;
        ASSERT_EQ(::waitpid(coord, &status, WNOHANG), 0)
            << "sweep finished before it could be killed; raise "
               "--iterations";
    }
    ASSERT_TRUE(saw_sim) << "no simulate record within the window";
    ::kill(coord, SIGKILL);
    int status = 0;
    ::waitpid(coord, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Restart on the same port with --resume: journaled jobs replay,
    // the orphaned workers reconnect and finish the rest.
    std::vector<std::string> resume = serve;
    resume.push_back("--resume");
    ASSERT_EQ(runToCompletion(resume, dir + "/resume.out",
                              dir + "/resume.err"),
              0)
        << readFile(dir + "/resume.err");
    EXPECT_EQ(waitExitWithGrace(w1, 5000), 0)
        << readFile(dir + "/w1.err");
    EXPECT_EQ(waitExitWithGrace(w2, 5000), 0)
        << readFile(dir + "/w2.err");

    EXPECT_EQ(readFile(dir + "/resume.out"),
              readFile(ref_dir + "/stdout"));
    JournalContents healed = loadJournalFile(journal);
    ASSERT_TRUE(healed.ok) << healed.error;
    EXPECT_EQ(healed.records(), healed.totalJobs);
    EXPECT_EQ(healed.duplicates, 0u);
}

} // namespace
} // namespace vanguard
