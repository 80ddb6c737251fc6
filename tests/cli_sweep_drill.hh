/**
 * @file
 * Shared helpers of the end-to-end sweep drills that drive the real
 * vanguard_cli binary (test_crash, test_crash_kill, test_worker_kill,
 * test_net_sweep, test_telemetry_obs): launching the CLI, running one
 * sweep in-process,
 * isolated or distributed, and the comparison discipline for its
 * artifacts. Journals compare as sorted records (completion order is
 * legitimately nondeterministic); metrics dumps compare minus the
 * wall-clock transport carve-outs (comparableMetrics).
 *
 * Header-only; the including test defines VANGUARD_CLI_BIN.
 */

#ifndef VANGUARD_TESTS_CLI_SWEEP_DRILL_HH
#define VANGUARD_TESTS_CLI_SWEEP_DRILL_HH

#include <gtest/gtest.h>

#include <algorithm>
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

#include "support/metrics.hh"

#ifndef VANGUARD_CLI_BIN
#error "VANGUARD_CLI_BIN must point at the vanguard_cli binary"
#endif

namespace vanguard {
namespace drill {

/** engine.net.* keys every metrics dump carries, in every mode. */
constexpr size_t kEngineNetKeys = 6;

inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * fork/exec vanguard_cli with stdout and stderr sent to files (an
 * empty path means /dev/null); the child inherits this process's
 * environment (the SEGV-slot drills rely on that). A redirection that
 * fails exits the child with 126 before exec, so a missing directory
 * fails the drill instead of spilling the CLI's output into the
 * test's own. Returns the pid.
 */
inline pid_t
launch(const std::vector<std::string> &args,
       const std::string &out_path, const std::string &err_path = "")
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    auto redirect = [](const std::string &path, int target) {
        int fd = path.empty()
                     ? ::open("/dev/null", O_WRONLY)
                     : ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd < 0 || ::dup2(fd, target) < 0)
            std::_Exit(126);
        ::close(fd);
    };
    redirect(out_path, STDOUT_FILENO);
    redirect(err_path, STDERR_FILENO);
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(VANGUARD_CLI_BIN));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(VANGUARD_CLI_BIN, argv.data());
    std::_Exit(127); // exec failed
}

inline int
waitExit(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

inline int
runToCompletion(const std::vector<std::string> &args,
                const std::string &out_path,
                const std::string &err_path = "")
{
    return waitExit(launch(args, out_path, err_path));
}

/** Poll a child's stderr for a "<needle>N" line; 0 on timeout. */
inline unsigned
awaitPortLine(const std::string &err_path, pid_t child,
              const std::string &needle)
{
    for (int spin = 0; spin < 500; ++spin) {
        std::string text = readFile(err_path);
        size_t at = text.find(needle);
        if (at != std::string::npos) {
            return static_cast<unsigned>(std::strtoul(
                text.c_str() + at + needle.size(), nullptr, 10));
        }
        int status = 0;
        EXPECT_EQ(::waitpid(child, &status, WNOHANG), 0)
            << "child exited before announcing its port: "
            << readFile(err_path);
        ::usleep(20'000);
    }
    ADD_FAILURE() << "no '" << needle << "' line within 10s";
    return 0;
}

/** Journal text as sorted lines: record *content* must be identical
 *  across execution modes; completion *order* legitimately is not. */
inline std::string
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
inline std::map<std::string, double>
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
    EXPECT_EQ(net_keys, kEngineNetKeys)
        << "engine.net.* keys missing from dump";
    return out;
}

/** What one sweep leaves behind. */
struct SweepArtifacts
{
    std::string out, journal, metrics;
};

/** The drills' sweep: gobmk-like, every REF seed, two workers,
 *  journaled and with a metrics dump. */
inline std::vector<std::string>
sweepArgs(const std::string &ckpt_dir, const std::string &metrics)
{
    return {
        "--benchmark",      "gobmk-like", "--all-refs",
        "--iterations",     "3000",       "--jobs", "2",
        "--checkpoint-dir", ckpt_dir,     "--metrics-out", metrics,
    };
}

/** One local sweep (in-process, or isolated with `--isolate-jobs`
 *  among `extra`) in a fresh `dir`. */
inline SweepArtifacts
runLocalSweep(const std::string &dir,
              const std::vector<std::string> &extra)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> args =
        sweepArgs(dir, dir + "/metrics.json");
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_EQ(runToCompletion(args, dir + "/stdout", dir + "/stderr"),
              0)
        << readFile(dir + "/stderr");
    return {readFile(dir + "/stdout"),
            readFile(dir + "/journal.vgj"),
            readFile(dir + "/metrics.json")};
}

/**
 * One distributed sweep: coordinator on an ephemeral port, `workers`
 * remote workers, all reaped before returning. Extra coordinator
 * flags (e.g. --net-inject, --telemetry-port) ride along.
 */
inline SweepArtifacts
runServedSweep(const std::string &dir, unsigned workers,
               const std::vector<std::string> &extra)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> args =
        sweepArgs(dir, dir + "/metrics.json");
    args.push_back("--serve-sweep");
    args.push_back("0");
    args.insert(args.end(), extra.begin(), extra.end());
    pid_t coord = launch(args, dir + "/stdout", dir + "/stderr");
    unsigned port = awaitPortLine(dir + "/stderr", coord,
                                  "serving sweep on port ");
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

} // namespace drill
} // namespace vanguard

#endif // VANGUARD_TESTS_CLI_SWEEP_DRILL_HH
