/**
 * @file
 * Live telemetry plane: two live views of a sweep — Prometheus text
 * exposition (`/metrics`) and a JSON progress report (`/progress`) —
 * served by a tiny single-threaded HTTP endpoint (TelemetryServer,
 * `--telemetry-port`). Both views are pure renderings of two sources
 * the engine already keeps: the metrics registry, read live on each
 * request, and the coordinator's offer table (FabricView: the live
 * leases plus one row per peer identity), read through the one
 * provider the coordinator installs. `/progress` derives throughput
 * and ETA from the registry read and the server's uptime by the same
 * rule as the stderr progress line (support/progress.hh).
 *
 * The load-bearing design rule is the live/authoritative split:
 * everything in this file is *observational*. The server reads the
 * registry through MetricsRegistry::sample() and find*() (never
 * registers or mutates), and throughput/ETA/percentile strings go
 * only to HTTP and stderr. Registry dumps, journals, and sweep stdout
 * are therefore byte-identical whether telemetry is on or off —
 * asserted by the tier2_obs drill.
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

constexpr const char *kProgressSchema = "vanguard-progress v3";

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
// Live views
// ---------------------------------------------------------------------

/** One row of the coordinator's live lease table. */
struct LeaseInfo
{
    uint64_t id = 0;
    std::string key;            ///< "phase:slot"
    std::string peer;           ///< holder identity
    int64_t expiresInMs = 0;    ///< negative = already expired
};

/** One peer identity as the coordinator's offer table records it. */
struct PeerInfo
{
    std::string identity;       ///< "pid@ip" (TCP) or "slotN:pidM"
    uint64_t jobsDone = 0;      ///< offers this peer's result settled
    uint64_t lease = 0;         ///< lease it holds now (0 = none)
};

/** What the coordinator reports of its fabric, read under its own
 *  mutex in one pass over its offer table. */
struct FabricView
{
    std::vector<LeaseInfo> leases;
    std::vector<PeerInfo> peers;
};

/** The `/metrics` text: the registry sample plus one
 *  `vanguard_peer_jobs_done{peer="..."}` series per peer row. */
std::string metricsText(const MetricsRegistry &registry,
                        const FabricView &fabric);

/** The `/progress` JSON document (kProgressSchema), with rate and ETA
 *  taken over `uptimeSecs`. */
std::string progressJson(const MetricsRegistry &registry,
                         const FabricView &fabric, double uptimeSecs);

// ---------------------------------------------------------------------
// TelemetryServer
// ---------------------------------------------------------------------

class TelemetryServer
{
  public:
    struct Options
    {
        uint16_t port = 0;          ///< 0 = kernel-assigned
        const MetricsRegistry *registry = nullptr;  ///< required
    };

    using FabricViewProvider = std::function<FabricView()>;

    /** Binds and starts serving immediately. Throws
     *  SimError(Invariant) without a registry, SimError(Io) if the
     *  port cannot be bound. */
    explicit TelemetryServer(const Options &opts);
    ~TelemetryServer();

    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** Install (or clear, with nullptr) the fabric's view — the
     *  coordinator registers a closure over its offer table and MUST
     *  clear it before shutting down. The provider runs under the
     *  server's mutex, so clearing it waits out a scrape in flight. */
    void setFabricViewProvider(FabricViewProvider fn);

    /** The provider's current view (empty without a provider). */
    FabricView fabricView() const;

    /** The bound port (useful with port 0). */
    uint16_t port() const { return port_; }

    /** Stop and join the service thread (idempotent). */
    void stop();

  private:
    void serveLoop();

    const MetricsRegistry *registry_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;  ///< guards provider_ and each call of it
    FabricViewProvider provider_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_TELEMETRY_HH
