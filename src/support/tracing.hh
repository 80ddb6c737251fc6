/**
 * @file
 * Structured event tracing: cheap scoped spans (begin/end) and instant
 * events recorded into thread-local buffers and drained under one lock
 * into Chrome trace-event JSON, so a whole sweep opens in Perfetto or
 * chrome://tracing (`vanguard_cli --trace-out=<path>`).
 *
 * Design points:
 *  - Each recording thread gets its own buffer (registered once under
 *    the tracer mutex, then appended to under the buffer's own mutex),
 *    so workers never contend with each other on the hot path and the
 *    whole structure is clean under TSan.
 *  - The thread-local buffer cache is keyed by a process-global tracer
 *    id, not the tracer's address, so destroying one tracer and
 *    constructing another at the same address cannot resurrect a stale
 *    buffer pointer.
 *  - Timestamps are steady-clock microseconds since tracer creation;
 *    they are wall-clock facts and belong only here, never in the
 *    metrics registry (which must stay bit-identical across worker
 *    counts).
 *  - Span begin/end must happen on the same thread (TraceSpan is a
 *    stack object inside one job), which is exactly the nesting
 *    Perfetto's B/E events require. A span known only after the fact
 *    (an envelope over many jobs, which may overlap other envelopes)
 *    is recorded whole by envelope() on a track of its own.
 *
 * currentTracer() is a thread-local ambient pointer so deep layers
 * (core/vanguard.cc's coarse sim phases) can emit spans without
 * threading a Tracer* through every signature; ScopedCurrentTracer
 * sets it for the extent of one job body.
 */

#ifndef VANGUARD_SUPPORT_TRACING_HH
#define VANGUARD_SUPPORT_TRACING_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vanguard {

constexpr const char *kTraceMagic = "vanguard-trace";
constexpr unsigned kTraceVersion = 1;

/** One Chrome trace event: phase 'B' (begin), 'E' (end), 'i' (instant). */
struct TraceEvent
{
    char phase = 'i';
    uint64_t tsMicros = 0;
    std::string name;
    std::string argsJson;   ///< "" or a complete JSON object literal
};

class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void begin(const std::string &name,
               const std::string &args_json = "");
    void end(const std::string &name);
    void instant(const std::string &name,
                 const std::string &args_json = "");

    /**
     * Record one closed span [begin_us, end_us] (nowMicros() values,
     * begin_us <= end_us) on a new track of its own, so it pairs B/E
     * and keeps per-track timestamps monotonic however it overlaps
     * spans recorded elsewhere.
     */
    void envelope(const std::string &name, uint64_t begin_us,
                  uint64_t end_us);

    /** Microseconds since this tracer was created (steady clock). */
    uint64_t
    nowMicros() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** Small key/value args helper: builds {"k":"v",...} with
     *  escaping. Values are emitted as strings (Perfetto renders them
     *  uniformly in the args pane). */
    static std::string
    args(const std::vector<std::pair<std::string, std::string>> &kv);

    /**
     * Render every recorded event as Chrome trace-event JSON
     * ({"traceEvents":[...]}). Events stay in per-thread recording
     * order (monotonic per tid), tids are small integers in thread
     * registration order, and otherData carries the
     * "vanguard-trace v1" schema stamp.
     */
    std::string toChromeJson() const;

    /** All events of one track (a thread, or an envelope), in
     *  recording order (tests). */
    std::vector<std::vector<TraceEvent>> snapshotByThread() const;

  private:
    struct ThreadBuf
    {
        mutable std::mutex mutex;
        uint32_t tid = 0;
        std::vector<TraceEvent> events;
    };

    ThreadBuf &threadBuf();
    ThreadBuf &newTrackLocked();
    void record(char phase, const std::string &name,
                const std::string &args_json);

    uint64_t id_;    ///< process-global tracer id (cache key)
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuf>> buffers_;
};

/** RAII span; no-ops on a null tracer. */
class TraceSpan
{
  public:
    TraceSpan(Tracer *tracer, std::string name,
              const std::string &args_json = "")
        : tracer_(tracer), name_(std::move(name))
    {
        if (tracer_ != nullptr)
            tracer_->begin(name_, args_json);
    }

    ~TraceSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(name_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    Tracer *tracer_;
    std::string name_;
};

/** The ambient per-thread tracer (null when tracing is off). */
Tracer *currentTracer();

/** Scoped setter for currentTracer(), restoring the previous value. */
class ScopedCurrentTracer
{
  public:
    explicit ScopedCurrentTracer(Tracer *tracer);
    ~ScopedCurrentTracer();

    ScopedCurrentTracer(const ScopedCurrentTracer &) = delete;
    ScopedCurrentTracer &operator=(const ScopedCurrentTracer &) =
        delete;

  private:
    Tracer *prev_;
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_TRACING_HH
