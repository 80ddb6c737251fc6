/**
 * @file
 * Live telemetry plane: a TelemetryHub that collects advisory
 * `vanguard-stats v1` pushes from isolated workers and remote peers
 * and renders two live views of the metrics registry — Prometheus
 * text exposition (`/metrics`) and a JSON progress report
 * (`/progress`) — served by a tiny single-threaded HTTP endpoint
 * (TelemetryServer, `--telemetry-port`). The hub runs no thread of
 * its own: each request reads the registry live, and `/progress`
 * derives throughput and ETA from that read and the hub's uptime by
 * the same rule as the stderr progress line (support/progress.hh).
 *
 * The load-bearing design rule is the live/authoritative split:
 * everything in this file is *observational*. The hub reads the
 * registry through MetricsRegistry::sample() and find*() (never
 * registers or mutates), peer STATS frames feed only the hub's
 * in-memory peer table (never mergeJobSnapshot), and
 * throughput/ETA/percentile strings go only to HTTP and stderr.
 * Registry dumps, journals, and sweep stdout are therefore
 * byte-identical whether telemetry is on or off — asserted by the
 * tier2_obs drill.
 *
 * The STATS frame body ("vanguard-stats v1") is deliberately tolerant:
 * unknown lines are skipped and a malformed body is dropped, never a
 * protocol desync — a telemetry hiccup must not kill a worker that is
 * doing authoritative work. Peer identity is assigned by the
 * *receiver* (supervisor: worker slot; coordinator: pid@ip), so a
 * peer cannot impersonate another slot in the live view.
 *
 * TelemetryServer speaks just enough HTTP/1.0 for `curl`, Prometheus,
 * and a watch loop: GET /metrics, /progress, /healthz; anything else
 * is 404. One service thread, one connection at a time, bounded
 * request reads — a stuck scraper cannot wedge the sweep.
 */

#ifndef VANGUARD_SUPPORT_TELEMETRY_HH
#define VANGUARD_SUPPORT_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.hh"

namespace vanguard {

constexpr const char *kStatsMagic = "vanguard-stats";
constexpr unsigned kStatsVersion = 1;

constexpr const char *kProgressSchema = "vanguard-progress v2";

// ---------------------------------------------------------------------
// STATS frame codec (ipc::kFrameStats bodies)
// ---------------------------------------------------------------------

/** One peer's advisory live stats: a partial, monotonic summary of
 *  what that worker has done so far. Never authoritative. */
struct PeerStats
{
    std::string identity;       ///< receiver-assigned, not serialized
    uint64_t pid = 0;
    std::string phase;          ///< "simulate", "claim", ... (one token)
    uint64_t jobsDone = 0;
    uint64_t instsRetired = 0;  ///< retired instructions across jobs
    uint64_t cacheHits = 0;     ///< artifact-cache hits
    uint64_t cacheMisses = 0;
    std::string lease;          ///< current lease key or "" (one token)
};

/** Render a `vanguard-stats v1` frame body (identity excluded). */
std::string serializePeerStats(const PeerStats &ps);

/**
 * Parse a STATS body. Tolerant by contract: unknown lines are
 * ignored; only a missing/wrong header returns false. Telemetry must
 * degrade, not desync.
 */
bool parsePeerStats(const std::string &body, PeerStats *out);

// ---------------------------------------------------------------------
// Prometheus text exposition writer
// ---------------------------------------------------------------------

/** Fold a dotted metric path into a Prometheus metric name:
 *  "engine.jobs.total" -> "vanguard_engine_jobs_total" (alnum and
 *  '_' pass through; '.', '-', and anything else become '_'). */
std::string promSanitizeName(const std::string &path);

/** Escape a label value per the exposition format: backslash, double
 *  quote, and newline get backslash escapes. */
std::string promEscapeLabelValue(const std::string &v);

/**
 * Render a registry sample as Prometheus text exposition: counters as
 * `counter`, gauges as `gauge`, histograms as `histogram` with
 * cumulative `_bucket{le="..."}` series, `+Inf`, `_sum`, `_count`.
 */
std::string metricsToPrometheus(const RegistrySample &s);

/** A parsed exposition dump (the test-side half of the round trip):
 *  `types` maps metric name -> TYPE, `samples` maps the full sample
 *  name (labels included, verbatim) -> value. */
struct ParsedProm
{
    bool ok = false;
    std::string error;
    std::map<std::string, std::string> types;
    std::map<std::string, double> samples;
};

ParsedProm parsePrometheusText(const std::string &text);

// ---------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------

/** One row of the coordinator's live lease table. */
struct LeaseInfo
{
    uint64_t id = 0;
    std::string key;            ///< "phase:slot"
    std::string peer;           ///< holder identity ("pid@ip")
    int64_t expiresInMs = 0;    ///< negative = already expired
};

class TelemetryHub
{
  public:
    struct Options
    {
        const MetricsRegistry *registry = nullptr;  ///< required
    };

    struct PeerView
    {
        PeerStats stats;
        uint64_t ageMs = 0;             ///< since last STATS frame
    };

    using LeaseTableProvider = std::function<std::vector<LeaseInfo>()>;

    explicit TelemetryHub(const Options &opts);

    TelemetryHub(const TelemetryHub &) = delete;
    TelemetryHub &operator=(const TelemetryHub &) = delete;

    /** Fold one advisory STATS push into the live peer table
     *  (keyed by ps.identity; latest wins). */
    void notePeerStats(const PeerStats &ps);

    /** Install (or clear, with nullptr) the live lease-table source —
     *  the coordinator registers a closure over its offer table, and
     *  MUST clear it before shutting down. The provider is invoked
     *  outside the hub mutex. */
    void setLeaseTableProvider(LeaseTableProvider fn);

    /** Prometheus text: the registry sample plus labeled live peer
     *  series (vanguard_peer_*{peer="..."}). */
    std::string metricsText() const;

    /** The `/progress` JSON document (kProgressSchema), with rate
     *  and ETA taken over the hub's uptime. */
    std::string progressJson() const;

    /** The same document with the elapsed time given explicitly. */
    std::string progressJson(double uptimeSecs) const;

    std::vector<PeerView> peers() const;

  private:
    Options opts_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    struct PeerSlot
    {
        PeerStats stats;
        std::chrono::steady_clock::time_point lastSeen;
    };
    std::map<std::string, PeerSlot> peers_;
    LeaseTableProvider leaseProvider_;
};

// ---------------------------------------------------------------------
// TelemetryServer
// ---------------------------------------------------------------------

class TelemetryServer
{
  public:
    struct Options
    {
        uint16_t port = 0;          ///< 0 = kernel-assigned
        TelemetryHub *hub = nullptr;
    };

    /** Binds and starts serving immediately. Throws SimError(Io) if
     *  the port cannot be bound. */
    explicit TelemetryServer(const Options &opts);
    ~TelemetryServer();

    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** The bound port (useful with port 0). */
    uint16_t port() const { return port_; }

    /** Stop and join the service thread (idempotent). */
    void stop();

  private:
    void serveLoop();

    TelemetryHub *hub_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_TELEMETRY_HH
