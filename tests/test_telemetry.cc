/**
 * @file
 * Tier-1 unit tests for the live telemetry plane:
 *
 *   - the Prometheus text writer (name sanitization, label escaping,
 *     TYPE lines, cumulative histogram buckets) round-trips through
 *     its own parser with the exact registry values,
 *   - the flight recorder's ring overwrites oldest-first with an
 *     accurate dropped count, serializes to a parseable
 *     `vanguard-flightrec v1` dump, and honors the best-effort dump
 *     contract under an armed `telemetry.emit` fault,
 *   - the one progress rule (progressRate) and the stderr line built
 *     on it: no rate on a near-zero interval or when every job was a
 *     journal replay, ETA clamped, replayed>done saturates instead of
 *     wrapping, failed and skipped jobs count toward done, and the
 *     stderr line and `/progress` report the same jobs/s and ETA,
 *   - the two live views render the coordinator's fabric view (peer
 *     rows and the lease table) next to the registry,
 *   - TelemetryServer answers GET /metrics, /progress, /healthz (and
 *     404s the rest) over a real localhost socket.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "support/fault_inject.hh"
#include "support/flight_recorder.hh"
#include "support/ipc.hh"
#include "support/metrics.hh"
#include "support/progress.hh"
#include "support/telemetry.hh"

namespace vanguard {
namespace {

std::string
tmpPath(const std::string &leaf)
{
    return (std::filesystem::temp_directory_path() /
            ("vanguard_telemetry_" + leaf))
        .string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// Prometheus writer
// ---------------------------------------------------------------------

TEST(PrometheusWriter, SanitizesDottedPaths)
{
    EXPECT_EQ(promSanitizeName("engine.jobs.total"),
              "vanguard_engine_jobs_total");
    EXPECT_EQ(promSanitizeName("engine.faults.injected.io-err"),
              "vanguard_engine_faults_injected_io_err");
    EXPECT_EQ(promSanitizeName("a b%c"), "vanguard_a_b_c");
}

TEST(PrometheusWriter, EscapesLabelValues)
{
    EXPECT_EQ(promEscapeLabelValue("plain"), "plain");
    EXPECT_EQ(promEscapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(promEscapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(promEscapeLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusWriter, TypeLinesAndRoundTrip)
{
    MetricsRegistry reg;
    reg.counter("engine.jobs.total").add(42);
    reg.gauge("engine.faults.injected.io").set(2.5);
    Histogram &h = reg.histogram("engine.sim.cycles", {10, 100, 1000});
    h.observe(5);      // le=10
    h.observe(50);     // le=100
    h.observe(500);    // le=1000
    h.observe(5000);   // overflow

    std::string text = metricsToPrometheus(reg.sample());
    ParsedProm p = parsePrometheusText(text);
    ASSERT_TRUE(p.ok) << p.error;

    EXPECT_EQ(p.types.at("vanguard_engine_jobs_total"), "counter");
    EXPECT_EQ(p.types.at("vanguard_engine_faults_injected_io"),
              "gauge");
    EXPECT_EQ(p.types.at("vanguard_engine_sim_cycles"), "histogram");

    EXPECT_EQ(p.samples.at("vanguard_engine_jobs_total"), 42.0);
    EXPECT_EQ(p.samples.at("vanguard_engine_faults_injected_io"), 2.5);

    // Exposition buckets are CUMULATIVE: 1, 2, 3, then +Inf = count.
    EXPECT_EQ(
        p.samples.at("vanguard_engine_sim_cycles_bucket{le=\"10\"}"),
        1.0);
    EXPECT_EQ(
        p.samples.at("vanguard_engine_sim_cycles_bucket{le=\"100\"}"),
        2.0);
    EXPECT_EQ(
        p.samples.at("vanguard_engine_sim_cycles_bucket{le=\"1000\"}"),
        3.0);
    EXPECT_EQ(
        p.samples.at("vanguard_engine_sim_cycles_bucket{le=\"+Inf\"}"),
        4.0);
    EXPECT_EQ(p.samples.at("vanguard_engine_sim_cycles_sum"), 5555.0);
    EXPECT_EQ(p.samples.at("vanguard_engine_sim_cycles_count"), 4.0);
}

TEST(PrometheusWriter, ParserRejectsGarbage)
{
    EXPECT_FALSE(parsePrometheusText("name_without_value\n").ok);
    EXPECT_FALSE(parsePrometheusText("metric{le=\"unclosed} 1\n").ok);
    EXPECT_FALSE(parsePrometheusText("metric not-a-number\n").ok);
    // Non-TYPE comments are legal and skipped.
    EXPECT_TRUE(parsePrometheusText("# HELP x something\nx 1\n").ok);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDropped)
{
    FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.record("event", "e" + std::to_string(i));
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 6u);

    std::vector<FlightRecorder::Event> ev = rec.events();
    ASSERT_EQ(ev.size(), 4u);
    // Oldest-first, and only the newest four survive.
    EXPECT_EQ(ev[0].name, "e6");
    EXPECT_EQ(ev[3].name, "e9");
    // Sequence numbers are global, never reused.
    EXPECT_EQ(ev[0].seq, 6u);
    EXPECT_EQ(ev[3].seq, 9u);
}

TEST(FlightRecorder, SerializeParsesBack)
{
    FlightRecorder rec(8);
    rec.record("event", "worker.lost", "slot 2 pid 123");
    rec.record("error", "job.failed",
               "simulate gobmk-like: Io: disk on fire\nsecond line");
    ParsedFlightRec p = parseFlightRec(rec.serialize());
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.version, 1u);
    EXPECT_EQ(p.capacity, 8u);
    EXPECT_EQ(p.dropped, 0u);
    ASSERT_EQ(p.events.size(), 2u);
    EXPECT_EQ(p.events[0].kind, "event");
    EXPECT_EQ(p.events[0].name, "worker.lost");
    EXPECT_EQ(p.events[0].detail, "slot 2 pid 123");
    EXPECT_EQ(p.events[1].kind, "error");
    // Multi-line details survive the blob framing byte-exactly.
    EXPECT_EQ(p.events[1].detail,
              "simulate gobmk-like: Io: disk on fire\nsecond line");
}

TEST(FlightRecorder, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseFlightRec("").ok);
    EXPECT_FALSE(parseFlightRec("not-a-flightrec v1\n").ok);
}

TEST(FlightRecorder, DumpWritesParseableFile)
{
    std::string path = tmpPath("dump.vgfr");
    std::filesystem::remove(path);
    FlightRecorder rec(8);
    rec.record("event", "fabric.peer_lost", "123@127.0.0.1: eof");
    ASSERT_TRUE(rec.dump(path));
    ParsedFlightRec p = parseFlightRec(readFile(path));
    ASSERT_TRUE(p.ok) << p.error;
    ASSERT_EQ(p.events.size(), 1u);
    EXPECT_EQ(p.events[0].name, "fabric.peer_lost");
    std::filesystem::remove(path);
}

TEST(FlightRecorder, DumpIsBestEffortUnderInjectedFault)
{
    // telemetry.emit at io:1.0 always fires: dump must warn-and-return
    // false, never throw — a failing disk cannot turn a drained sweep
    // into a crash.
    std::string path = tmpPath("dump_fault.vgfr");
    std::filesystem::remove(path);
    FlightRecorder rec(8);
    rec.record("event", "x");
    faultinject::arm(parseFaultPlan("io:1.0,seed=7"));
    bool ok = true;
    EXPECT_NO_THROW(ok = rec.dump(path));
    faultinject::disarm();
    EXPECT_FALSE(ok);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FlightRecorder, AmbientRecorderScoping)
{
    EXPECT_EQ(currentFlightRecorder(), nullptr);
    flightRecord("event", "ignored.no.recorder"); // must be a no-op
    {
        FlightRecorder rec(8);
        ScopedFlightRecorder scope(&rec);
        EXPECT_EQ(currentFlightRecorder(), &rec);
        flightRecord("event", "seen", "detail");
        ASSERT_EQ(rec.size(), 1u);
        EXPECT_EQ(rec.events()[0].name, "seen");
    }
    EXPECT_EQ(currentFlightRecorder(), nullptr);
}

// ---------------------------------------------------------------------
// Progress-line hardening
// ---------------------------------------------------------------------

TEST(ProgressFormat, NoRateOnNearZeroElapsed)
{
    ProgressSnapshot in;
    in.completed = 5;
    in.total = 10;
    EXPECT_EQ(formatProgressLine("t", in, 0.0), "[t] 5/10 jobs");
    EXPECT_EQ(formatProgressLine("t", in, kMinRateElapsedSecs / 2),
              "[t] 5/10 jobs");
    ProgressRate r = progressRate(in, 0.0);
    EXPECT_EQ(r.jobsPerSec, 0.0);
    EXPECT_EQ(r.etaSecs, -1.0);     // unknown, not "done"
}

TEST(ProgressFormat, ReplaysExcludedFromRate)
{
    ProgressSnapshot in;
    in.completed = 100;
    in.total = 200;
    in.replayed = 100;  // a pure --resume replay burst
    // Zero fresh jobs: no rate, no wildly-optimistic ETA.
    EXPECT_EQ(formatProgressLine("t", in, 10.0), "[t] 100/200 jobs");

    in.replayed = 90;   // 10 fresh jobs over 10s = 1.0 jobs/s
    EXPECT_EQ(formatProgressLine("t", in, 10.0),
              "[t] 100/200 jobs (1.0 jobs/s, ETA 100s)");
}

TEST(ProgressFormat, ReplayedBeyondDoneSaturates)
{
    // Counter skew after a reset: replayed > done must saturate at
    // zero fresh jobs, not wrap around to ~2^64 jobs/s.
    ProgressSnapshot in;
    in.completed = 3;
    in.total = 10;
    in.replayed = 5;
    EXPECT_EQ(in.fresh(), 0u);
    EXPECT_EQ(formatProgressLine("t", in, 60.0), "[t] 3/10 jobs");
}

TEST(ProgressFormat, EtaClampsAndDisappearsWhenDone)
{
    ProgressSnapshot in;
    in.completed = 1;
    in.total = 2000000000;
    // 0.001 jobs/s -> astronomic raw ETA
    std::string line = formatProgressLine("t", in, 1000.0);
    EXPECT_NE(line.find("ETA 9999999s"), std::string::npos) << line;
    EXPECT_EQ(progressRate(in, 1000.0).etaSecs, kMaxEtaSecs);

    in.completed = in.total; // complete: rate but no ETA
    line = formatProgressLine("t", in, 10.0);
    EXPECT_NE(line.find("jobs/s)"), std::string::npos) << line;
    EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
    EXPECT_EQ(progressRate(in, 10.0).etaSecs, 0.0);
}

TEST(ProgressFormat, PercentilesAndTallies)
{
    MetricsRegistry reg;
    Histogram &rtt = reg.histogram("engine.worker.job_rtt", {1, 2, 4, 8, 16});
    rtt.observe(1);
    rtt.observe(3);
    rtt.observe(12);
    Histogram &cyc = reg.histogram("engine.sim.cycles", {1000, 10000});
    cyc.observe(900);
    cyc.observe(9000);
    reg.counter("engine.jobs.total").add(8);
    reg.counter("engine.jobs.completed").add(3);
    reg.counter("engine.jobs.failed").add(1);
    reg.counter("engine.jobs.retries").add(3);

    ProgressSnapshot in = ProgressSnapshot::read(reg);
    EXPECT_EQ(in.done(), 4u);
    EXPECT_EQ(in.rttMs.p50, rtt.percentile(0.50));
    EXPECT_EQ(in.simCycles.p99, cyc.percentile(0.99));
    std::string line = formatProgressLine("t", in, 2.0);
    EXPECT_NE(line.find("[t] 4/8 jobs"), std::string::npos) << line;
    EXPECT_NE(line.find(", rtt p50/p99 "), std::string::npos) << line;
    EXPECT_NE(line.find("ms"), std::string::npos) << line;
    EXPECT_NE(line.find(", cyc p50/p99 "), std::string::npos) << line;
    EXPECT_NE(line.find(", 1 failed"), std::string::npos) << line;
    EXPECT_NE(line.find(", 3 retried"), std::string::npos) << line;
    EXPECT_EQ(line.find("skipped"), std::string::npos) << line;

    // Empty (or absent) histograms contribute nothing.
    MetricsRegistry bare;
    bare.histogram("engine.worker.job_rtt", {1});
    line = formatProgressLine("t", ProgressSnapshot::read(bare), 2.0);
    EXPECT_EQ(line.find("rtt"), std::string::npos) << line;
    EXPECT_EQ(line.find("cyc"), std::string::npos) << line;
}

TEST(ProgressFormat, ReporterPrintsTheFinalLineOnce)
{
    MetricsRegistry reg;
    reg.counter("engine.jobs.total").add(2);
    Counter &completed = reg.counter("engine.jobs.completed");
    Counter &skipped = reg.counter("engine.jobs.skipped");

    ProgressReporter silent("", reg);
    ProgressReporter reporter("t", reg);
    completed.add();
    skipped.add();      // the last job settles as a skip
    testing::internal::CaptureStderr();
    silent.tick();
    reporter.tick();
    reporter.tick();    // a late tick from another worker
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.rfind("[t] 2/2 jobs", 0), 0u) << err;
    EXPECT_NE(err.find(", 1 skipped\n"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << err;  // one line
}

/** A finished sweep's tally: 3 completed (2 of them journal replays),
 *  2 failed (1 replayed), 3 skipped behind a failed train. */
MetricsRegistry &
finishedSweep(MetricsRegistry &reg)
{
    reg.counter("engine.jobs.total").add(8);
    reg.counter("engine.jobs.completed").add(3);
    reg.counter("engine.jobs.failed").add(2);
    reg.counter("engine.jobs.skipped").add(3);
    reg.counter("engine.jobs.replayed").add(3);
    reg.counter("engine.jobs.retries").add(1);
    return reg;
}

TEST(ProgressFormat, FailedAndSkippedJobsFinishBothRenderings)
{
    MetricsRegistry reg;
    finishedSweep(reg);

    // 8 done of 8 — failures and skips count — and 5 fresh jobs over
    // 2 s: replays are not throughput.
    ProgressSnapshot snap = ProgressSnapshot::read(reg);
    EXPECT_EQ(snap.done(), 8u);
    EXPECT_EQ(snap.fresh(), 5u);
    ProgressRate rate = progressRate(snap, 2.0);
    EXPECT_EQ(rate.jobsPerSec, 2.5);
    EXPECT_EQ(rate.etaSecs, 0.0);

    EXPECT_EQ(formatProgressLine("t", snap, 2.0),
              "[t] 8/8 jobs (2.5 jobs/s), 2 failed, 3 skipped, "
              "1 retried");

    std::string json = progressJson(reg, {}, 2.0);
    EXPECT_NE(json.find("\"schema\": \"vanguard-progress v3\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"jobs\": {\"total\": 8, \"done\": 8, "
                        "\"completed\": 3, \"failed\": 2, "
                        "\"skipped\": 3, \"retries\": 1, "
                        "\"replayed\": 3}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"throughput_jobs_per_sec\": 2.5,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"eta_secs\": 0,"), std::string::npos) << json;
    EXPECT_EQ(json.find("history"), std::string::npos) << json;
}

TEST(ProgressFormat, BothRenderingsShareOneRateMidSweep)
{
    MetricsRegistry reg;
    reg.counter("engine.jobs.total").add(40);
    reg.counter("engine.jobs.completed").add(12);
    reg.counter("engine.jobs.failed").add(1);
    reg.counter("engine.jobs.skipped").add(3);
    reg.counter("engine.jobs.replayed").add(10);

    // 16 done, 6 fresh over 4 s = 1.5 jobs/s; 24 left = ETA 16 s.
    ProgressSnapshot snap = ProgressSnapshot::read(reg);
    EXPECT_EQ(formatProgressLine("t", snap, 4.0),
              "[t] 16/40 jobs (1.5 jobs/s, ETA 16s), 1 failed, "
              "3 skipped");
    std::string json = progressJson(reg, {}, 4.0);
    EXPECT_NE(json.find("\"throughput_jobs_per_sec\": 1.5,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"eta_secs\": 16,"), std::string::npos) << json;

    // Before the first-tick guard neither rendering has a rate, and
    // the JSON reports the ETA as unknown.
    json = progressJson(reg, {}, kMinRateElapsedSecs / 2);
    EXPECT_NE(json.find("\"throughput_jobs_per_sec\": 0,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"eta_secs\": -1,"), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// Registry sampling
// ---------------------------------------------------------------------

TEST(RegistrySampling, SampleIsCompleteAndSorted)
{
    MetricsRegistry reg;
    reg.counter("b.two").add(2);
    reg.counter("a.one").add(1);
    reg.gauge("g.level").set(1.5);
    Histogram &h = reg.histogram("h.lat", {10, 100});
    h.observe(7);
    h.observe(70);
    h.observe(700);

    RegistrySample s = reg.sample();
    ASSERT_EQ(s.counters.size(), 2u);
    EXPECT_EQ(s.counters[0].path, "a.one");   // path-sorted
    EXPECT_EQ(s.counters[1].path, "b.two");
    ASSERT_EQ(s.gauges.size(), 1u);
    EXPECT_EQ(s.gauges[0].value, 1.5);
    ASSERT_EQ(s.histograms.size(), 1u);
    const auto &hs = s.histograms[0];
    EXPECT_EQ(hs.count, 3u);
    EXPECT_EQ(hs.sum, 777u);
    EXPECT_EQ(hs.min, 7u);
    EXPECT_EQ(hs.max, 700u);
    ASSERT_EQ(hs.bucketCounts.size(), 3u);   // bounds + overflow
    EXPECT_EQ(hs.bucketCounts[0], 1u);
    EXPECT_EQ(hs.bucketCounts[1], 1u);
    EXPECT_EQ(hs.bucketCounts[2], 1u);
    EXPECT_EQ(hs.p50, h.percentile(0.50));
    EXPECT_EQ(hs.p99, h.percentile(0.99));

    // Sampling registers nothing: the dump is unchanged by it.
    std::string before = reg.toJson();
    (void)reg.sample();
    EXPECT_EQ(reg.toJson(), before);
}

// ---------------------------------------------------------------------
// Live views
// ---------------------------------------------------------------------

TEST(TelemetryViews, RendersPeersLeasesAndPrometheus)
{
    MetricsRegistry reg;
    reg.counter("engine.jobs.total").add(8);
    reg.counter("engine.jobs.completed").add(3);
    reg.counter("engine.jobs.failed");
    reg.counter("engine.jobs.retries");
    reg.counter("engine.jobs.replayed");

    FabricView fabric;
    fabric.peers.push_back({"99@127.0.0.1", 2, 7});
    fabric.peers.push_back({"slot0:pid98", 1, 0});
    fabric.leases.push_back({7, "simulate:3", "99@127.0.0.1", 1234});

    ParsedProm p = parsePrometheusText(metricsText(reg, fabric));
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.samples.at("vanguard_engine_jobs_total"), 8.0);
    EXPECT_EQ(p.types.at("vanguard_peer_jobs_done"), "gauge");
    EXPECT_EQ(p.samples.at(
                  "vanguard_peer_jobs_done{peer=\"99@127.0.0.1\"}"),
              2.0);
    EXPECT_EQ(p.samples.at(
                  "vanguard_peer_jobs_done{peer=\"slot0:pid98\"}"),
              1.0);
    // jobs_done is the only per-peer series.
    for (const auto &[name, type] : p.types)
        EXPECT_TRUE(name.rfind("vanguard_peer_", 0) != 0 ||
                    name == "vanguard_peer_jobs_done")
            << name;

    std::string json = progressJson(reg, fabric, 1.0);
    EXPECT_NE(json.find("\"schema\": \"vanguard-progress v3\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"completed\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"peers\": [\n"
                        "    {\"identity\": \"99@127.0.0.1\", "
                        "\"jobs_done\": 2, \"lease\": 7},\n"
                        "    {\"identity\": \"slot0:pid98\", "
                        "\"jobs_done\": 1, \"lease\": 0}\n"
                        "  ],"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"leases\": [\n"
                        "    {\"id\": 7, \"key\": \"simulate:3\", "
                        "\"peer\": \"99@127.0.0.1\", "
                        "\"expires_in_ms\": 1234}\n"
                        "  ]"),
              std::string::npos)
        << json;

    // Without a fabric (an in-process sweep) both tables are empty
    // and /metrics carries no peer series.
    json = progressJson(reg, {}, 1.0);
    EXPECT_NE(json.find("\"peers\": [],"), std::string::npos) << json;
    EXPECT_NE(json.find("\"leases\": []"), std::string::npos) << json;
    EXPECT_EQ(metricsText(reg, {}).find("vanguard_peer_"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// TelemetryServer (real localhost HTTP)
// ---------------------------------------------------------------------

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

TEST(TelemetryServerTest, ServesMetricsProgressAndHealthz)
{
    MetricsRegistry reg;
    reg.counter("engine.jobs.total").add(5);
    reg.counter("engine.jobs.completed").add(5);

    TelemetryServer::Options sopts;
    sopts.port = 0;     // ephemeral
    sopts.registry = &reg;
    TelemetryServer server(sopts);
    ASSERT_NE(server.port(), 0u);
    server.setFabricViewProvider([] {
        FabricView v;
        v.peers.push_back({"slot1:pid7", 5, 0});
        return v;
    });

    std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("vanguard_engine_jobs_total 5"),
              std::string::npos)
        << metrics;
    EXPECT_NE(
        metrics.find("vanguard_peer_jobs_done{peer=\"slot1:pid7\"} 5"),
        std::string::npos)
        << metrics;

    std::string progress = httpGet(server.port(), "/progress");
    EXPECT_NE(progress.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(progress.find("vanguard-progress v3"),
              std::string::npos);
    EXPECT_NE(progress.find("\"identity\": \"slot1:pid7\""),
              std::string::npos)
        << progress;

    std::string healthz = httpGet(server.port(), "/healthz");
    EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(healthz.find("ok"), std::string::npos);

    std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    server.setFabricViewProvider(nullptr);
    EXPECT_TRUE(server.fabricView().peers.empty());
    server.stop();      // idempotent with the destructor
}

TEST(TelemetryServerTest, RequiresRegistry)
{
    TelemetryServer::Options opts;
    EXPECT_THROW(TelemetryServer server(opts), SimError);
}
} // namespace
} // namespace vanguard
