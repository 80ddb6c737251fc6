/**
 * @file
 * Live sweep progress, derived from one source: the metrics
 * registry's `engine.jobs.*` counters. A ProgressSnapshot reads them
 * (plus the worker round-trip and simulated-cycle histograms), and
 * progressRate() is the one rule that turns a snapshot and an elapsed
 * time into throughput and ETA. Two renderings call it: the stderr
 * line below (formatProgressLine, emitted by ProgressReporter) and the
 * `/progress` JSON of the telemetry endpoint (support/telemetry.hh).
 *
 * One sweep-wide reporter prints at most one line per kTickInterval
 * (plus the final one), through the same console mutex as
 * vg_warn/vg_inform (support/logging.hh), so a worker's warning never
 * interleaves mid-line with it:
 *
 *   [fig08] 312/4800 jobs (14.2 jobs/s, ETA 316s), 2 failed
 *
 * Done is completed + failed + skipped, so a sweep with failures
 * still reaches total. Throughput and ETA are wall-clock derived and
 * go only to stderr and HTTP, never into the registry (which must stay
 * bit-identical across worker counts).
 *
 * Rate/ETA hardening: journal replays after `--resume` complete in
 * microseconds, so counting them would print a wildly optimistic ETA
 * for the remaining real work; the rate uses only fresh jobs (done -
 * replayed, saturating at zero). An elapsed time below
 * kMinRateElapsedSecs yields no rate at all rather than a division by
 * ~zero, the ETA clamps at kMaxEtaSecs, and there is no ETA to wait
 * for once done >= total. Both rule and line are pure functions of
 * their inputs, so every clamp is tier-1 testable without wall-clock
 * games.
 */

#ifndef VANGUARD_SUPPORT_PROGRESS_HH
#define VANGUARD_SUPPORT_PROGRESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace vanguard {

/** Below this elapsed time no rate/ETA is derived (first-tick guard:
 *  done/secs over a microsecond interval is noise). */
constexpr double kMinRateElapsedSecs = 0.05;

/** ETAs beyond this clamp (about 115 days — anything larger is
 *  arithmetic garbage, not a forecast). */
constexpr double kMaxEtaSecs = 9999999.0;

/** One read of the registry's job tally. */
struct ProgressSnapshot
{
    uint64_t total = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t skipped = 0;
    uint64_t replayed = 0;      ///< subset of done; excluded from rate
    uint64_t retries = 0;

    struct Percentiles
    {
        uint64_t count = 0;
        uint64_t p50 = 0;
        uint64_t p99 = 0;
    };
    Percentiles rttMs;          ///< engine.worker.job_rtt
    Percentiles simCycles;      ///< engine.sim.cycles

    uint64_t done() const { return completed + failed + skipped; }

    /** Settled jobs that were not journal replays. */
    uint64_t
    fresh() const
    {
        return done() > replayed ? done() - replayed : 0;
    }

    /** Live read; a metric the registry lacks reads as zero. */
    static ProgressSnapshot
    read(const MetricsRegistry &reg)
    {
        auto counter = [&reg](const char *path) -> uint64_t {
            const Counter *c = reg.findCounter(path);
            return c != nullptr ? c->value() : 0;
        };
        auto percentiles = [&reg](const char *path) {
            Percentiles p;
            if (const Histogram *h = reg.findHistogram(path)) {
                p.count = h->count();
                p.p50 = h->percentile(0.50);
                p.p99 = h->percentile(0.99);
            }
            return p;
        };
        ProgressSnapshot s;
        s.total = counter("engine.jobs.total");
        s.completed = counter("engine.jobs.completed");
        s.failed = counter("engine.jobs.failed");
        s.skipped = counter("engine.jobs.skipped");
        s.replayed = counter("engine.jobs.replayed");
        s.retries = counter("engine.jobs.retries");
        s.rttMs = percentiles("engine.worker.job_rtt");
        s.simCycles = percentiles("engine.sim.cycles");
        return s;
    }
};

struct ProgressRate
{
    double jobsPerSec = 0.0;    ///< 0 = no rate yet
    double etaSecs = -1.0;      ///< 0 once done >= total; -1 = unknown
};

/** The one throughput/ETA rule (see the file comment). */
inline ProgressRate
progressRate(const ProgressSnapshot &s, double secs)
{
    ProgressRate r;
    if (secs >= kMinRateElapsedSecs && s.fresh() > 0)
        r.jobsPerSec = static_cast<double>(s.fresh()) / secs;
    if (s.done() >= s.total) {
        r.etaSecs = 0.0;
    } else if (r.jobsPerSec > 0.0) {
        r.etaSecs = std::min(
            static_cast<double>(s.total - s.done()) / r.jobsPerSec,
            kMaxEtaSecs);
    }
    return r;
}

/** The stderr rendering of a snapshot `secs` into the sweep. */
inline std::string
formatProgressLine(const std::string &tag, const ProgressSnapshot &s,
                   double secs)
{
    std::string line = "[" + tag + "] " + std::to_string(s.done()) +
                       "/" + std::to_string(s.total) + " jobs";
    ProgressRate r = progressRate(s, secs);
    if (r.jobsPerSec > 0.0) {
        char buf[64];
        if (r.etaSecs > 0.0) {
            std::snprintf(buf, sizeof(buf), " (%.1f jobs/s, ETA %.0fs)",
                          r.jobsPerSec, r.etaSecs);
        } else {
            std::snprintf(buf, sizeof(buf), " (%.1f jobs/s)",
                          r.jobsPerSec);
        }
        line += buf;
    }
    auto percentiles = [&line](const char *label,
                               const ProgressSnapshot::Percentiles &p,
                               const char *unit) {
        if (p.count > 0) {
            line += std::string(", ") + label + " p50/p99 " +
                    std::to_string(p.p50) + "/" +
                    std::to_string(p.p99) + unit;
        }
    };
    percentiles("rtt", s.rttMs, "ms");
    percentiles("cyc", s.simCycles, "");
    auto tally = [&line](uint64_t n, const char *what) {
        if (n != 0)
            line += ", " + std::to_string(n) + " " + what;
    };
    tally(s.failed, "failed");
    tally(s.skipped, "skipped");
    tally(s.retries, "retried");
    return line;
}

/**
 * The sweep-wide stderr reporter. The engine calls tick() after every
 * settled job; tick() reads the registry and prints when the interval
 * has passed or the sweep just reached its total.
 */
class ProgressReporter
{
  public:
    static constexpr std::chrono::milliseconds kTickInterval{500};

    /** An empty tag disables the reporter. */
    ProgressReporter(std::string tag, const MetricsRegistry &reg)
        : tag_(std::move(tag)), reg_(reg),
          start_(std::chrono::steady_clock::now()), last_(start_)
    {}

    void
    tick()
    {
        if (tag_.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        if (finished_)
            return;
        auto now = std::chrono::steady_clock::now();
        ProgressSnapshot s = ProgressSnapshot::read(reg_);
        finished_ = s.done() >= s.total;
        if (!finished_ && now - last_ < kTickInterval)
            return;
        last_ = now;
        double secs = std::chrono::duration<double>(now - start_).count();
        detail::emitLine(stderr, formatProgressLine(tag_, s, secs));
    }

  private:
    std::string tag_;
    const MetricsRegistry &reg_;
    std::mutex mutex_;
    bool finished_ = false;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point last_;
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_PROGRESS_HH
