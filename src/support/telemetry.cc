/**
 * @file
 * Telemetry-plane implementation: the Prometheus text exposition
 * writer and its test-side parser, the two live views, and the
 * single-threaded HTTP endpoint. See telemetry.hh for the
 * live/authoritative split this enforces.
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

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace vanguard {

namespace {

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

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
// Live views
// ---------------------------------------------------------------------

std::string
metricsText(const MetricsRegistry &registry, const FabricView &fabric)
{
    std::string out = metricsToPrometheus(registry.sample());
    if (!fabric.peers.empty()) {
        std::ostringstream os;
        os << "# TYPE vanguard_peer_jobs_done gauge\n";
        for (const PeerInfo &p : fabric.peers) {
            os << "vanguard_peer_jobs_done{peer=\""
               << promEscapeLabelValue(p.identity) << "\"} "
               << p.jobsDone << "\n";
        }
        out += os.str();
    }
    return out;
}

std::string
progressJson(const MetricsRegistry &registry, const FabricView &fabric,
             double uptimeSecs)
{
    ProgressSnapshot snap = ProgressSnapshot::read(registry);
    ProgressRate rate = progressRate(snap, uptimeSecs);

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
    for (size_t i = 0; i < fabric.peers.size(); ++i) {
        const PeerInfo &p = fabric.peers[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"identity\": \"" << jsonEscape(p.identity)
           << "\", \"jobs_done\": " << p.jobsDone
           << ", \"lease\": " << p.lease << "}";
    }
    os << (fabric.peers.empty() ? "],\n" : "\n  ],\n");

    os << "  \"leases\": [";
    for (size_t i = 0; i < fabric.leases.size(); ++i) {
        const LeaseInfo &l = fabric.leases[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"id\": " << l.id << ", \"key\": \""
           << jsonEscape(l.key) << "\", \"peer\": \""
           << jsonEscape(l.peer) << "\", \"expires_in_ms\": "
           << l.expiresInMs << "}";
    }
    os << (fabric.leases.empty() ? "]\n" : "\n  ]\n");
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
    : registry_(opts.registry), epoch_(std::chrono::steady_clock::now())
{
    if (registry_ == nullptr) {
        throw SimError(SimError::Kind::Invariant,
                       "TelemetryServer requires a metrics registry");
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
TelemetryServer::setFabricViewProvider(FabricViewProvider fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    provider_ = std::move(fn);
}

FabricView
TelemetryServer::fabricView() const
{
    // Held across the call: the provider takes the coordinator's
    // mutex (never the other way round), and a concurrent
    // setFabricViewProvider(nullptr) waits until it returns.
    std::lock_guard<std::mutex> lock(mutex_);
    return provider_ ? provider_() : FabricView{};
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
                metricsText(*registry_, fabricView()));
        } else if (path == "/progress") {
            double uptime = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count();
            resp = httpResponse(200, "OK", "application/json",
                                progressJson(*registry_, fabricView(),
                                             uptime));
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
