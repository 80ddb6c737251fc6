#include "support/tracing.hh"

#include <atomic>
#include <cstdio>
#include <sstream>

#include "support/flight_recorder.hh"

namespace vanguard {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

/** Thread-local cache: which tracer's buffer this thread last used.
 *  Keyed by tracer id, never address, so a new tracer reusing a dead
 *  tracer's address misses the cache instead of corrupting it. */
struct TlsCache
{
    uint64_t tracerId = 0;
    void *buf = nullptr;
};

thread_local TlsCache t_cache;
thread_local Tracer *t_current_tracer = nullptr;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{
}

Tracer::~Tracer() = default;

Tracer::ThreadBuf &
Tracer::newTrackLocked()
{
    auto buf = std::make_unique<ThreadBuf>();
    buf->tid = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buf));
    return *buffers_.back();
}

Tracer::ThreadBuf &
Tracer::threadBuf()
{
    if (t_cache.tracerId == id_ && t_cache.buf != nullptr)
        return *static_cast<ThreadBuf *>(t_cache.buf);
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadBuf &buf = newTrackLocked();
    buf.events.reserve(256);
    t_cache.tracerId = id_;
    t_cache.buf = &buf;
    return buf;
}

void
Tracer::record(char phase, const std::string &name,
               const std::string &args_json)
{
    ThreadBuf &buf = threadBuf();
    uint64_t ts = nowMicros();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back({phase, ts, name, args_json});
}

void
Tracer::begin(const std::string &name, const std::string &args_json)
{
    record('B', name, args_json);
}

void
Tracer::end(const std::string &name)
{
    record('E', name, "");
}

void
Tracer::instant(const std::string &name, const std::string &args_json)
{
    record('i', name, args_json);
    // Instant events are rare one-shot markers (phase transitions,
    // notable engine events) — mirror them into the crash flight
    // recorder so a post-mortem dump carries the same landmarks as
    // the trace, even when the trace itself was never written out.
    flightRecord("trace", name, args_json);
}

void
Tracer::envelope(const std::string &name, uint64_t begin_us,
                 uint64_t end_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadBuf &track = newTrackLocked();
    track.events.push_back({'B', begin_us, name, ""});
    track.events.push_back({'E', end_us, name, ""});
}

std::string
Tracer::args(
    const std::vector<std::pair<std::string, std::string>> &kv)
{
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
        out += i == 0 ? "\"" : ",\"";
        out += jsonEscape(kv[i].first);
        out += "\":\"";
        out += jsonEscape(kv[i].second);
        out += '"';
    }
    out += '}';
    return out;
}

std::vector<std::vector<TraceEvent>>
Tracer::snapshotByThread() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<TraceEvent>> out;
    out.reserve(buffers_.size());
    for (const auto &buf : buffers_) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        out.push_back(buf->events);
    }
    return out;
}

std::string
Tracer::toChromeJson() const
{
    std::vector<std::vector<TraceEvent>> threads = snapshotByThread();
    std::ostringstream os;
    os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
       << "{\"schema\": \"" << kTraceMagic << " v" << kTraceVersion
       << "\"},\n\"traceEvents\": [";
    bool first = true;
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        for (const TraceEvent &e : threads[tid]) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << "{\"ph\":\"" << e.phase << "\",\"ts\":" << e.tsMicros
               << ",\"pid\":1,\"tid\":" << tid << ",\"name\":\""
               << jsonEscape(e.name) << '"';
            if (e.phase == 'i')
                os << ",\"s\":\"t\"";   // thread-scoped instant
            if (!e.argsJson.empty())
                os << ",\"args\":" << e.argsJson;
            os << '}';
        }
    }
    os << (first ? "]\n}\n" : "\n]\n}\n");
    return os.str();
}

Tracer *
currentTracer()
{
    return t_current_tracer;
}

ScopedCurrentTracer::ScopedCurrentTracer(Tracer *tracer)
    : prev_(t_current_tracer)
{
    t_current_tracer = tracer;
}

ScopedCurrentTracer::~ScopedCurrentTracer()
{
    t_current_tracer = prev_;
}

} // namespace vanguard
