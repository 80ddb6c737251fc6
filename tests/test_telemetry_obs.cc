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
 *     (Prometheus text exposition and the vanguard-progress v3 JSON),
 *   - a poison job that SIGSEGVs its worker on every delivery leaves
 *     a parseable `vanguard-flightrec v1` dump next to the replay
 *     bundles, with the quarantine visible in the event ring.
 *
 * Same comparison discipline as test_net_sweep (both use
 * cli_sweep_drill.hh): journals compare as sorted records (completion
 * order is legitimately nondeterministic) and cross-checked metrics
 * drop the wall-clock transport carve-outs (engine.worker.*,
 * engine.net.*, job_rtt) — except in pure in-process mode, where
 * nothing wall-clock is ever observed and the dumps must match
 * byte-for-byte.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cli_sweep_drill.hh"
#include "support/flight_recorder.hh"
#include "support/ipc.hh"
#include "support/metrics.hh"
#include "support/telemetry.hh"

namespace vanguard {
namespace {

using namespace drill;

/** The flags that switch the live telemetry endpoint on. */
const std::vector<std::string> kTelemetry = {"--telemetry-port", "0"};

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

TEST(TelemetryObs, InProcessSweepIsByteIdenticalWithTelemetryOn)
{
    std::string base = ::testing::TempDir() + "obs-local";
    SweepArtifacts off = runLocalSweep(base + "-off", {});
    SweepArtifacts on = runLocalSweep(base + "-on", kTelemetry);

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
    SweepArtifacts off = runLocalSweep(base + "-off", {"--isolate-jobs"});
    SweepArtifacts on = runLocalSweep(
        base + "-on", {"--isolate-jobs", "--telemetry-port", "0"});

    ASSERT_FALSE(off.out.empty());
    EXPECT_EQ(on.out, off.out);
    EXPECT_EQ(sortedLines(on.journal), sortedLines(off.journal));
    EXPECT_EQ(comparableMetrics(on.metrics),
              comparableMetrics(off.metrics));
}

TEST(TelemetryObs, DistributedSweepIsByteIdenticalWithTelemetryOn)
{
    std::string base = ::testing::TempDir() + "obs-net";
    SweepArtifacts off = runServedSweep(base + "-off", 2, {});
    SweepArtifacts on = runServedSweep(base + "-on", 2, kTelemetry);

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
    EXPECT_NE(progress.find("\"schema\": \"vanguard-progress v3\""),
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
