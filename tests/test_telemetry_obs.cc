/**
 * @file
 * Live-telemetry observability drills (tier2/tier2_obs), driving the
 * real vanguard_cli binary:
 *
 *   - the telemetry plane is strictly observational: a sweep run with
 *     --telemetry-port produces stdout, journal, and metrics dumps
 *     byte-identical to the same sweep without it, in all three
 *     execution modes (in-process, --isolate-jobs, --serve-sweep +
 *     remote workers),
 *   - /metrics and /progress answer mid-run with parseable content
 *     (Prometheus text exposition and the vanguard-progress v1 JSON),
 *   - a poison job that SIGSEGVs its worker on every delivery leaves
 *     a parseable `vanguard-flightrec v1` dump next to the replay
 *     bundles, with the quarantine visible in the event ring.
 *
 * Same comparison discipline as test_net_sweep: journals compare as
 * sorted records (completion order is legitimately nondeterministic)
 * and cross-checked metrics drop the wall-clock transport carve-outs
 * (engine.worker.*, engine.net.*, job_rtt) — except in pure in-process
 * mode, where nothing wall-clock is ever observed and the dumps must
 * match byte-for-byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/flight_recorder.hh"
#include "support/ipc.hh"
#include "support/metrics.hh"
#include "support/telemetry.hh"

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

/** Poll a child's stderr for a "<needle>N" line; 0 on timeout. */
unsigned
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

/** Metrics dump keys minus the wall-clock transport carve-outs (see
 *  test_net_sweep.cc): shape asserted, mode-specific values dropped. */
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

std::string
httpGet(uint16_t port, const std::string &target)
{
    std::string err;
    int fd = ipc::connectTcp("127.0.0.1", port, &err);
    EXPECT_GE(fd, 0) << err;
    if (fd < 0)
        return "";
    std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return resp;
}

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

/** One local sweep (in-process or --isolate-jobs), with or without
 *  the live telemetry endpoint. */
SweepArtifacts
runLocalSweep(const std::string &dir, bool isolate, bool telemetry)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> args =
        sweepArgs(dir, dir + "/metrics.json");
    if (isolate)
        args.push_back("--isolate-jobs");
    if (telemetry) {
        args.push_back("--telemetry-port");
        args.push_back("0");
    }
    EXPECT_EQ(runToCompletion(args, dir + "/stdout", dir + "/stderr"),
              0)
        << readFile(dir + "/stderr");
    return {readFile(dir + "/stdout"),
            readFile(dir + "/journal.vgj"),
            readFile(dir + "/metrics.json")};
}

/** One distributed sweep: coordinator + `workers` remote workers. */
SweepArtifacts
runServedSweep(const std::string &dir, unsigned workers,
               bool telemetry)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> args =
        sweepArgs(dir, dir + "/metrics.json");
    args.push_back("--serve-sweep");
    args.push_back("0");
    if (telemetry) {
        args.push_back("--telemetry-port");
        args.push_back("0");
    }
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

TEST(TelemetryObs, InProcessSweepIsByteIdenticalWithTelemetryOn)
{
    std::string base = ::testing::TempDir() + "obs-local";
    SweepArtifacts off = runLocalSweep(base + "-off", false, false);
    SweepArtifacts on = runLocalSweep(base + "-on", false, true);

    ASSERT_FALSE(off.out.empty());
    EXPECT_EQ(on.out, off.out);
    EXPECT_EQ(sortedLines(on.journal), sortedLines(off.journal));
    // Pure in-process mode observes nothing wall-clock: the full
    // registry dump must match byte-for-byte, scrape or no scrape.
    EXPECT_EQ(on.metrics, off.metrics);
}

TEST(TelemetryObs, IsolatedSweepIsByteIdenticalWithTelemetryOn)
{
    std::string base = ::testing::TempDir() + "obs-iso";
    SweepArtifacts off = runLocalSweep(base + "-off", true, false);
    SweepArtifacts on = runLocalSweep(base + "-on", true, true);

    ASSERT_FALSE(off.out.empty());
    EXPECT_EQ(on.out, off.out);
    EXPECT_EQ(sortedLines(on.journal), sortedLines(off.journal));
    EXPECT_EQ(comparableMetrics(on.metrics),
              comparableMetrics(off.metrics));
}

TEST(TelemetryObs, DistributedSweepIsByteIdenticalWithTelemetryOn)
{
    std::string base = ::testing::TempDir() + "obs-net";
    SweepArtifacts off = runServedSweep(base + "-off", 2, false);
    SweepArtifacts on = runServedSweep(base + "-on", 2, true);

    ASSERT_FALSE(off.out.empty());
    EXPECT_EQ(on.out, off.out);
    EXPECT_EQ(sortedLines(on.journal), sortedLines(off.journal));
    EXPECT_EQ(comparableMetrics(on.metrics),
              comparableMetrics(off.metrics));
}

TEST(TelemetryObs, EndpointsAnswerMidSweep)
{
    std::string dir = ::testing::TempDir() + "obs-scrape";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // Long enough that the scrape lands mid-run: the endpoint comes
    // up (and announces its port) before the first job starts.
    std::vector<std::string> args = {
        "--benchmark",      "gobmk-like", "--all-refs",
        "--iterations",     "60000",      "--jobs", "2",
        "--isolate-jobs",   "--telemetry-port", "0",
    };
    pid_t sweep = launch(args, dir + "/stdout", dir + "/stderr");
    unsigned port = awaitPortLine(dir + "/stderr", sweep,
                                  "telemetry on port ");
    ASSERT_NE(port, 0u);

    std::string metrics = httpGet(static_cast<uint16_t>(port),
                                  "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    size_t body_at = metrics.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    ParsedProm prom = parsePrometheusText(metrics.substr(body_at + 4));
    ASSERT_TRUE(prom.ok) << prom.error;
    EXPECT_EQ(prom.types.at("vanguard_engine_jobs_total"), "counter");
    EXPECT_EQ(prom.samples.count("vanguard_engine_jobs_total"), 1u);

    std::string progress = httpGet(static_cast<uint16_t>(port),
                                   "/progress");
    EXPECT_NE(progress.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(progress.find("\"schema\": \"vanguard-progress v1\""),
              std::string::npos)
        << progress;
    EXPECT_NE(progress.find("\"jobs\""), std::string::npos);

    std::string healthz = httpGet(static_cast<uint16_t>(port),
                                  "/healthz");
    EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);

    EXPECT_EQ(waitExit(sweep), 0) << readFile(dir + "/stderr");
}

TEST(TelemetryObs, PoisonJobLeavesParseableFlightRecorderDump)
{
    // A job whose worker SIGSEGVs on every delivery is quarantined as
    // poison; the failing sweep must leave a parseable
    // vanguard-flightrec v1 dump next to the replay bundles, with the
    // worker deaths and the root-cause failure in the ring.
    std::string dir = ::testing::TempDir() + "obs-flightrec";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv("VANGUARD_WORKER_SEGV_SLOT", "simulate:0", 1);
    std::vector<std::string> args = {
        "--benchmark",   "gobmk-like", "--all-refs",
        "--iterations",  "3000",       "--jobs", "2",
        "--isolate-jobs",
        "--replay-dir",  dir + "/replay",
        "--fail-threshold", "16",
    };
    int rc = runToCompletion(args, dir + "/stdout", dir + "/stderr");
    ::unsetenv("VANGUARD_WORKER_SEGV_SLOT");
    EXPECT_EQ(rc, 0) << readFile(dir + "/stderr");

    std::string dump = readFile(dir + "/replay/flightrec.vgfr");
    ASSERT_FALSE(dump.empty()) << readFile(dir + "/stderr");
    ParsedFlightRec rec = parseFlightRec(dump);
    ASSERT_TRUE(rec.ok) << rec.error;
    ASSERT_FALSE(rec.events.empty());
    bool saw_loss = false, saw_failure = false;
    for (const auto &e : rec.events) {
        if (e.name == "worker.lost")
            saw_loss = true;
        if (e.name == "job.failed")
            saw_failure = true;
    }
    EXPECT_TRUE(saw_loss) << dump;
    EXPECT_TRUE(saw_failure) << dump;
}

} // namespace
} // namespace vanguard
