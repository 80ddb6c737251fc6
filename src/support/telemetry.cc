/**
 * @file
 * Telemetry-plane implementation: the STATS codec, the Prometheus
 * text exposition writer and its test-side parser, the
 * TelemetryHub, and the single-threaded HTTP endpoint. See
 * telemetry.hh for the live/authoritative split this enforces.
 */

#include "support/telemetry.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "support/error.hh"
#include "support/ipc.hh"
#include "support/progress.hh"
#include "support/versioned_format.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace vanguard {

namespace {

/** Fold free-form text into one whitespace-free token so it can sit
 *  on a stats line without quoting. */
std::string
token(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        out += (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                   ? '-'
                   : c;
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

// ---------------------------------------------------------------------
// STATS frame codec
// ---------------------------------------------------------------------

std::string
serializePeerStats(const PeerStats &ps)
{
    std::ostringstream os;
    os << kStatsMagic << " v" << kStatsVersion << "\n";
    os << "pid " << ps.pid << "\n";
    if (!ps.phase.empty())
        os << "phase " << token(ps.phase) << "\n";
    os << "jobs-done " << ps.jobsDone << "\n";
    os << "insts " << ps.instsRetired << "\n";
    os << "cache-hits " << ps.cacheHits << "\n";
    os << "cache-misses " << ps.cacheMisses << "\n";
    if (!ps.lease.empty())
        os << "lease " << token(ps.lease) << "\n";
    return os.str();
}

bool
parsePeerStats(const std::string &body, PeerStats *out)
{
    *out = PeerStats{};
    ipc::BodyCursor cur{body};
    std::string line;
    unsigned version = 0;
    try {
        if (!cur.line(&line) ||
            !parseVersionedHeader(line, kStatsMagic, kStatsVersion,
                                  &version)) {
            return false;
        }
    } catch (const SimError &) {
        // Advisory data from a version-skewed peer: drop, don't kill.
        return false;
    }
    while (cur.line(&line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "pid")
            ls >> out->pid;
        else if (key == "phase")
            ls >> out->phase;
        else if (key == "jobs-done")
            ls >> out->jobsDone;
        else if (key == "insts")
            ls >> out->instsRetired;
        else if (key == "cache-hits")
            ls >> out->cacheHits;
        else if (key == "cache-misses")
            ls >> out->cacheMisses;
        else if (key == "lease")
            ls >> out->lease;
        // Unknown keys: a newer peer's extra fields. Skip.
    }
    return true;
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

std::string
promSanitizeName(const std::string &path)
{
    std::string out = "vanguard_";
    out.reserve(out.size() + path.size());
    for (char c : path) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

std::string
promEscapeLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size() + 2);
    for (char c : v) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
metricsToPrometheus(const RegistrySample &s)
{
    std::ostringstream os;
    for (const auto &c : s.counters) {
        std::string name = promSanitizeName(c.path);
        os << "# TYPE " << name << " counter\n";
        os << name << " " << c.value << "\n";
    }
    for (const auto &g : s.gauges) {
        std::string name = promSanitizeName(g.path);
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << fmtDouble(g.value) << "\n";
    }
    for (const auto &h : s.histograms) {
        std::string name = promSanitizeName(h.path);
        os << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            cumulative += i < h.bucketCounts.size()
                ? h.bucketCounts[i] : 0;
            os << name << "_bucket{le=\"" << h.bounds[i] << "\"} "
               << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
        os << name << "_sum " << h.sum << "\n";
        os << name << "_count " << h.count << "\n";
    }
    return os.str();
}

ParsedProm
parsePrometheusText(const std::string &text)
{
    ParsedProm out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash, kw, name, type;
            ls >> hash >> kw >> name >> type;
            if (kw == "TYPE") {
                if (name.empty() || type.empty()) {
                    out.error = "malformed TYPE line: " + line;
                    return out;
                }
                out.types[name] = type;
            }
            continue;   // other comments are legal, skipped
        }
        // Sample line: name[{labels}] value. Label values may contain
        // escaped quotes, so scan for the closing brace from a quote-
        // aware walk rather than a blind find.
        size_t name_end = 0;
        if (line.find('{') != std::string::npos) {
            bool in_quotes = false, esc = false;
            size_t i = line.find('{');
            for (++i; i < line.size(); ++i) {
                char c = line[i];
                if (esc) { esc = false; continue; }
                if (c == '\\') { esc = true; continue; }
                if (c == '"') in_quotes = !in_quotes;
                else if (c == '}' && !in_quotes) break;
            }
            if (i >= line.size()) {
                out.error = "unterminated label set: " + line;
                return out;
            }
            name_end = i + 1;
        } else {
            name_end = line.find(' ');
            if (name_end == std::string::npos) {
                out.error = "sample line without value: " + line;
                return out;
            }
        }
        std::string name = line.substr(0, name_end);
        const char *vs = line.c_str() + name_end;
        char *end = nullptr;
        double v = std::strtod(vs, &end);
        if (end == vs) {
            out.error = "unparseable sample value: " + line;
            return out;
        }
        out.samples[name] = v;
    }
    out.ok = true;
    return out;
}

// ---------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------

TelemetryHub::TelemetryHub(const Options &opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now())
{
    if (opts_.registry == nullptr) {
        throw SimError(SimError::Kind::Invariant,
                       "TelemetryHub requires a metrics registry");
    }
}

void
TelemetryHub::notePeerStats(const PeerStats &ps)
{
    if (ps.identity.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    PeerSlot &slot = peers_[ps.identity];
    slot.stats = ps;
    slot.lastSeen = std::chrono::steady_clock::now();
}

void
TelemetryHub::setLeaseTableProvider(LeaseTableProvider fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    leaseProvider_ = std::move(fn);
}

std::vector<TelemetryHub::PeerView>
TelemetryHub::peers() const
{
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PeerView> out;
    out.reserve(peers_.size());
    for (const auto &[identity, slot] : peers_) {
        PeerView pv;
        pv.stats = slot.stats;
        pv.ageMs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - slot.lastSeen)
                .count());
        out.push_back(std::move(pv));
    }
    return out;
}

std::string
TelemetryHub::metricsText() const
{
    std::string out = metricsToPrometheus(opts_.registry->sample());
    std::vector<PeerView> pv = peers();
    if (!pv.empty()) {
        std::ostringstream os;
        struct Series
        {
            const char *name;
            uint64_t PeerStats::*field;
        };
        static const Series kSeries[] = {
            {"vanguard_peer_jobs_done", &PeerStats::jobsDone},
            {"vanguard_peer_insts_retired", &PeerStats::instsRetired},
            {"vanguard_peer_cache_hits", &PeerStats::cacheHits},
            {"vanguard_peer_cache_misses", &PeerStats::cacheMisses},
        };
        for (const Series &s : kSeries) {
            os << "# TYPE " << s.name << " gauge\n";
            for (const PeerView &p : pv) {
                os << s.name << "{peer=\""
                   << promEscapeLabelValue(p.stats.identity) << "\"} "
                   << p.stats.*s.field << "\n";
            }
        }
        os << "# TYPE vanguard_peer_age_ms gauge\n";
        for (const PeerView &p : pv) {
            os << "vanguard_peer_age_ms{peer=\""
               << promEscapeLabelValue(p.stats.identity) << "\"} "
               << p.ageMs << "\n";
        }
        out += os.str();
    }
    return out;
}

std::string
TelemetryHub::progressJson() const
{
    return progressJson(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - epoch_)
                            .count());
}

std::string
TelemetryHub::progressJson(double uptimeSecs) const
{
    ProgressSnapshot snap = ProgressSnapshot::read(*opts_.registry);
    ProgressRate rate = progressRate(snap, uptimeSecs);
    std::vector<PeerView> pv = peers();
    LeaseTableProvider provider;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        provider = leaseProvider_;
    }
    // Invoked outside the hub mutex: the coordinator's provider takes
    // the coordinator mutex, and the coordinator calls notePeerStats
    // (hub mutex) from its service thread — holding both here would
    // be a lock-order inversion.
    std::vector<LeaseInfo> leases;
    if (provider)
        leases = provider();

    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"" << kProgressSchema << "\",\n";
    os << "  \"uptime_secs\": " << fmtDouble(uptimeSecs) << ",\n";
    os << "  \"jobs\": {\"total\": " << snap.total << ", \"done\": "
       << snap.done() << ", \"completed\": " << snap.completed
       << ", \"failed\": " << snap.failed << ", \"skipped\": "
       << snap.skipped << ", \"retries\": " << snap.retries
       << ", \"replayed\": " << snap.replayed << "},\n";
    os << "  \"throughput_jobs_per_sec\": " << fmtDouble(rate.jobsPerSec)
       << ",\n";
    os << "  \"eta_secs\": " << fmtDouble(rate.etaSecs) << ",\n";
    auto percentiles = [&os](const char *key,
                             const ProgressSnapshot::Percentiles &p) {
        os << "  \"" << key << "\": {\"count\": " << p.count
           << ", \"p50\": " << p.p50 << ", \"p99\": " << p.p99
           << "},\n";
    };
    percentiles("rtt_ms", snap.rttMs);
    percentiles("sim_cycles", snap.simCycles);

    os << "  \"peers\": [";
    for (size_t i = 0; i < pv.size(); ++i) {
        const PeerView &p = pv[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"identity\": \"" << jsonEscape(p.stats.identity)
           << "\", \"pid\": " << p.stats.pid << ", \"phase\": \""
           << jsonEscape(p.stats.phase) << "\", \"jobs_done\": "
           << p.stats.jobsDone << ", \"insts\": "
           << p.stats.instsRetired << ", \"cache_hits\": "
           << p.stats.cacheHits << ", \"cache_misses\": "
           << p.stats.cacheMisses << ", \"lease\": \""
           << jsonEscape(p.stats.lease) << "\", \"age_ms\": "
           << p.ageMs << "}";
    }
    os << (pv.empty() ? "],\n" : "\n  ],\n");

    os << "  \"leases\": [";
    for (size_t i = 0; i < leases.size(); ++i) {
        const LeaseInfo &l = leases[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"id\": " << l.id << ", \"key\": \""
           << jsonEscape(l.key) << "\", \"peer\": \""
           << jsonEscape(l.peer) << "\", \"expires_in_ms\": "
           << l.expiresInMs << "}";
    }
    os << (leases.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

// ---------------------------------------------------------------------
// TelemetryServer
// ---------------------------------------------------------------------

namespace {

std::string
httpResponse(int code, const char *status, const std::string &ctype,
             const std::string &body)
{
    std::ostringstream os;
    os << "HTTP/1.0 " << code << " " << status << "\r\n"
       << "Content-Type: " << ctype << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    return os.str();
}

/** Read until the request's terminating blank line (or 8 KiB, or the
 *  deadline) — we only route on the request line, but draining the
 *  headers first keeps the close clean for picky clients. */
bool
readRequest(int fd, std::string *out, int deadline_ms)
{
    out->clear();
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline_ms);
    while (out->find("\r\n\r\n") == std::string::npos &&
           out->find("\n\n") == std::string::npos) {
        if (out->size() > 8192)
            return false;
        auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            return !out->empty();
        struct pollfd pfd = {fd, POLLIN, 0};
        int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (pr <= 0)
            return !out->empty();
        char buf[1024];
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return !out->empty();
        out->append(buf, static_cast<size_t>(n));
    }
    return true;
}

void
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return;     // scraper went away; its loss
        off += static_cast<size_t>(n);
    }
}

} // namespace

TelemetryServer::TelemetryServer(const Options &opts)
    : hub_(opts.hub)
{
    if (hub_ == nullptr) {
        throw SimError(SimError::Kind::Invariant,
                       "TelemetryServer requires a TelemetryHub");
    }
    listen_fd_ = ipc::listenTcp(opts.port);
    port_ = ipc::listenPort(listen_fd_);
    thread_ = std::thread([this] { serveLoop(); });
}

TelemetryServer::~TelemetryServer()
{
    stop();
}

void
TelemetryServer::stop()
{
    if (stopping_.exchange(true))
        return;
    if (thread_.joinable())
        thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
TelemetryServer::serveLoop()
{
    while (!stopping_.load()) {
        int fd = -1;
        try {
            fd = ipc::acceptPeer(listen_fd_, 200, nullptr);
        } catch (const SimError &) {
            break;      // listener died; telemetry is best-effort
        }
        if (fd < 0)
            continue;
        std::string req;
        if (!readRequest(fd, &req, 1000)) {
            ::close(fd);
            continue;
        }
        std::istringstream rl(req.substr(0, req.find('\n')));
        std::string method, path;
        rl >> method >> path;
        std::string resp;
        if (method != "GET") {
            resp = httpResponse(405, "Method Not Allowed",
                                "text/plain", "GET only\n");
        } else if (path == "/metrics") {
            resp = httpResponse(
                200, "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                hub_->metricsText());
        } else if (path == "/progress") {
            resp = httpResponse(200, "OK", "application/json",
                                hub_->progressJson());
        } else if (path == "/healthz") {
            resp = httpResponse(200, "OK", "text/plain", "ok\n");
        } else {
            resp = httpResponse(404, "Not Found", "text/plain",
                                "not found\n");
        }
        writeAll(fd, resp);
        ::close(fd);
    }
}

} // namespace vanguard
