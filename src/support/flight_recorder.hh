/**
 * @file
 * Crash flight recorder: a fixed-size in-memory ring of recent
 * engine events (worker deaths, lease losses, job failures, tracer
 * instants) that can be dumped atomically as a versioned
 * `vanguard-flightrec v1` file when something goes wrong — a SimError
 * escaping the sweep, a SIGINT/SIGTERM drain, or a worker/coordinator
 * death. The point is post-mortem of *distributed* failures: the
 * journal records what completed, the flight recorder records what
 * the fleet was doing in the seconds before it stopped.
 *
 * Design points:
 *  - Recording is cheap and bounded: a mutex-guarded ring of
 *    `capacity` events; the oldest events are overwritten and counted
 *    in `dropped`, so a long sweep cannot grow the recorder. Nothing
 *    records on a timer, so the ring keeps the losses and failures of
 *    a long sweep rather than a stream of periodic samples.
 *  - Timestamps are steady-clock microseconds since recorder
 *    creation — wall-clock facts, which is why flight-recorder
 *    content never feeds the metrics registry (whose dumps must stay
 *    bit-identical across worker counts and telemetry settings).
 *  - dump() writes through writeFileAtomic under the deterministic
 *    fault injector's `telemetry.emit` Io site and never throws:
 *    flight recording is a best-effort diagnostic, and a failing disk
 *    must not turn a drained sweep into a crashed one.
 *  - currentFlightRecorder() is a process-global ambient pointer
 *    (mirroring tracing.hh's currentTracer(), but process-wide, since
 *    worker-pool supervision threads and the coordinator's service
 *    thread all record into the same ring). ScopedFlightRecorder sets
 *    it for the extent of one sweep.
 */

#ifndef VANGUARD_SUPPORT_FLIGHT_RECORDER_HH
#define VANGUARD_SUPPORT_FLIGHT_RECORDER_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vanguard {

constexpr const char *kFlightRecMagic = "vanguard-flightrec";
constexpr unsigned kFlightRecVersion = 1;

class FlightRecorder
{
  public:
    struct Event
    {
        uint64_t seq = 0;       ///< monotonic, never reused
        uint64_t tsMicros = 0;  ///< steady-clock, since creation
        std::string kind;       ///< one token: "event"|"metric"|"error"|...
        std::string name;       ///< dotted identifier ("worker.lost")
        std::string detail;     ///< free-form text (may be multi-line)
    };

    explicit FlightRecorder(size_t capacity = 512);

    /** Append one event (thread-safe; overwrites the oldest past
     *  capacity). `kind` is folded to a single token. */
    void record(const std::string &kind, const std::string &name,
                const std::string &detail = "");

    size_t capacity() const { return capacity_; }
    size_t size() const;
    uint64_t dropped() const;   ///< events overwritten so far

    /** Events oldest-first (a consistent snapshot). */
    std::vector<Event> events() const;

    /** Render the ring as `vanguard-flightrec v1` text. */
    std::string serialize() const;

    /**
     * Atomically write serialize() to `path` under the
     * `telemetry.emit` fault site. Returns false (after a vg_warn)
     * instead of throwing on any failure — best-effort by contract.
     */
    bool dump(const std::string &path) const;

  private:
    uint64_t
    nowMicros() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    size_t capacity_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Event> ring_;   ///< ring buffer, size <= capacity_
    size_t head_ = 0;           ///< next write position once full
    uint64_t nextSeq_ = 0;
};

/** A parsed dump (the test-side half of the round trip). */
struct ParsedFlightRec
{
    bool ok = false;
    std::string error;
    unsigned version = 0;
    size_t capacity = 0;
    uint64_t dropped = 0;
    std::vector<FlightRecorder::Event> events;
};

/** Parse a `vanguard-flightrec v1` dump back. A future schema version
 *  raises SimError(Io) via parseVersionedHeader; lesser problems come
 *  back through ok/error. */
ParsedFlightRec parseFlightRec(const std::string &text);

/** Process-global ambient recorder (null when no sweep armed one). */
FlightRecorder *currentFlightRecorder();

/** Record into the ambient recorder, if any (the one-liner deep
 *  layers use so they need no FlightRecorder* plumbing). */
void flightRecord(const std::string &kind, const std::string &name,
                  const std::string &detail = "");

/** Sets the ambient recorder for a scope; restores on destruction. */
class ScopedFlightRecorder
{
  public:
    explicit ScopedFlightRecorder(FlightRecorder *rec);
    ~ScopedFlightRecorder();

    ScopedFlightRecorder(const ScopedFlightRecorder &) = delete;
    ScopedFlightRecorder &operator=(const ScopedFlightRecorder &) =
        delete;

  private:
    FlightRecorder *prev_;
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_FLIGHT_RECORDER_HH
