/**
 * @file
 * Mutex-guarded, rate-limited stderr progress reporting for the
 * experiment engine. Worker threads call jobDone()/jobFailed() after
 * every job; at most one line per interval is emitted (plus the final
 * one), so a large sweep cannot flood the terminal. Lines go through
 * the same console mutex as vg_warn/vg_inform (support/logging.hh),
 * so a worker's warning can never interleave mid-line with a progress
 * update:
 *
 *   [fig08] simulate 312/4800 (14.2 jobs/s, ETA 316s), 2 failed
 *
 * Each job kind of a sweep (train, compile, simulate) gets its own
 * reporter carrying that label; the engine's job graph runs the kinds
 * side by side, so their lines interleave. Failure and retry tallies
 * are read live from the metrics registry's counters when the engine
 * wires them in (observeFailures / observeRetries) — the ad-hoc
 * internal tally is only the fallback — so the console, the JSON
 * dump, and the journal all agree on one number. Throughput and ETA are wall-clock derived and go only to
 * stderr, never into the registry (which must stay bit-identical
 * across worker counts).
 *
 * Rate/ETA hardening: journal replays after `--resume` complete in
 * microseconds, so counting them in the rate numerator would print a
 * wildly optimistic ETA for the remaining real work — replayed jobs
 * are reported through jobReplayed()/jobFailedReplayed() and excluded
 * from the rate. An elapsed interval below kMinRateElapsedSecs (the
 * first tick) yields no rate at all rather than a division by ~zero,
 * and the ETA clamps at kMaxEtaSecs instead of printing inf/garbage.
 * The formatting core is the pure static formatLine(), so every clamp
 * is tier-1 testable without wall-clock games.
 */

#ifndef VANGUARD_SUPPORT_PROGRESS_HH
#define VANGUARD_SUPPORT_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace vanguard {

class ProgressReporter
{
  public:
    /** Below this elapsed time no rate/ETA is printed (first-tick
     *  guard: done/secs over a microsecond interval is noise). */
    static constexpr double kMinRateElapsedSecs = 0.05;

    /** ETAs beyond this clamp (about 115 days — anything larger is
     *  arithmetic garbage, not a forecast). */
    static constexpr double kMaxEtaSecs = 9999999.0;

    ProgressReporter(std::string tag, std::string phase, size_t total,
                     std::chrono::milliseconds interval =
                         std::chrono::milliseconds(500))
        : tag_(std::move(tag)), phase_(std::move(phase)),
          total_(total), interval_(interval),
          start_(std::chrono::steady_clock::now()), last_(start_)
    {}

    /** Back-compat: phase defaults to "simulations". */
    ProgressReporter(std::string tag, size_t total,
                     std::chrono::milliseconds interval =
                         std::chrono::milliseconds(500))
        : ProgressReporter(std::move(tag), "simulations", total,
                           interval)
    {}

    /** Derive the failed tally from a registry counter (live). */
    void observeFailures(const Counter *c) { failed_ctr_ = c; }

    /** Also show a retry tally, read from a registry counter. */
    void observeRetries(const Counter *c) { retries_ctr_ = c; }

    /** Show p50/p99 of job round-trip time (milliseconds). */
    void observeRtt(const Histogram *h) { rtt_hist_ = h; }

    /** Show p50/p99 of simulated cycles per job. */
    void observeSimCycles(const Histogram *h) { cycles_hist_ = h; }

    void
    jobDone()
    {
        report(++done_);
    }

    /** A job failed: counted both as done and in the failure tally. */
    void
    jobFailed()
    {
        ++failed_;
        report(++done_);
    }

    /** A job satisfied from the resume journal: counts toward done
     *  but not toward the throughput rate (replays are instant). */
    void
    jobReplayed()
    {
        ++replayed_;
        report(++done_);
    }

    /** A replayed failure: done + failed, excluded from the rate. */
    void
    jobFailedReplayed()
    {
        ++replayed_;
        ++failed_;
        report(++done_);
    }

    size_t
    failures() const
    {
        return failed_ctr_ != nullptr
            ? static_cast<size_t>(failed_ctr_->value())
            : failed_.load();
    }

    /** Everything formatLine() needs; filled by report(), or by a
     *  test exercising the clamps directly. */
    struct LineInputs
    {
        std::string tag;
        std::string phase;
        size_t done = 0;
        size_t total = 0;
        size_t replayed = 0;        ///< subset of done; excluded from rate
        double secs = 0.0;          ///< elapsed wall-clock
        size_t failed = 0;
        uint64_t retries = 0;
        const Histogram *rttMs = nullptr;
        const Histogram *simCycles = nullptr;
    };

    /**
     * Pure formatting core. Rate uses only fresh (non-replayed) work;
     * no rate is shown for secs < kMinRateElapsedSecs or zero fresh
     * jobs; ETA clamps to kMaxEtaSecs and is never shown once done >=
     * total. Counter skew (replayed > done after a reset) saturates
     * at zero fresh jobs instead of wrapping.
     */
    static std::string
    formatLine(const LineInputs &in)
    {
        std::string line = "[" + in.tag + "] " + in.phase + " " +
                           std::to_string(in.done) + "/" +
                           std::to_string(in.total);

        size_t fresh =
            in.done > in.replayed ? in.done - in.replayed : 0;
        if (in.secs >= kMinRateElapsedSecs && fresh > 0) {
            double rate = static_cast<double>(fresh) / in.secs;
            char buf[64];
            if (in.done < in.total && rate > 0.0) {
                double eta =
                    static_cast<double>(in.total - in.done) / rate;
                if (eta > kMaxEtaSecs)
                    eta = kMaxEtaSecs;
                std::snprintf(buf, sizeof(buf),
                              " (%.1f jobs/s, ETA %.0fs)", rate, eta);
            } else {
                std::snprintf(buf, sizeof(buf), " (%.1f jobs/s)",
                              rate);
            }
            line += buf;
        }

        if (in.rttMs != nullptr && in.rttMs->count() > 0) {
            line += ", rtt p50/p99 " +
                    std::to_string(in.rttMs->percentile(0.50)) + "/" +
                    std::to_string(in.rttMs->percentile(0.99)) + "ms";
        }
        if (in.simCycles != nullptr && in.simCycles->count() > 0) {
            line += ", cyc p50/p99 " +
                    std::to_string(in.simCycles->percentile(0.50)) +
                    "/" +
                    std::to_string(in.simCycles->percentile(0.99));
        }

        if (in.failed != 0)
            line += ", " + std::to_string(in.failed) + " failed";
        if (in.retries != 0)
            line += ", " + std::to_string(in.retries) + " retried";
        return line;
    }

  private:
    void
    report(size_t done)
    {
        if (tag_.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        auto now = std::chrono::steady_clock::now();
        if (done != total_ && now - last_ < interval_)
            return;
        last_ = now;

        LineInputs in;
        in.tag = tag_;
        in.phase = phase_;
        in.done = done;
        in.total = total_;
        in.replayed = replayed_.load();
        in.secs =
            std::chrono::duration<double>(now - start_).count();
        in.failed = failures();
        in.retries =
            retries_ctr_ != nullptr ? retries_ctr_->value() : 0;
        in.rttMs = rtt_hist_;
        in.simCycles = cycles_hist_;
        detail::emitLine(stderr, formatLine(in));
    }

    std::string tag_;
    std::string phase_;
    size_t total_;
    std::chrono::milliseconds interval_;
    std::atomic<size_t> done_{0};
    std::atomic<size_t> failed_{0};
    std::atomic<size_t> replayed_{0};
    const Counter *failed_ctr_ = nullptr;
    const Counter *retries_ctr_ = nullptr;
    const Histogram *rtt_hist_ = nullptr;
    const Histogram *cycles_hist_ = nullptr;
    std::mutex mutex_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point last_;
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_PROGRESS_HH
