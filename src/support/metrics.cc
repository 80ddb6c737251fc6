#include "support/metrics.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "support/error.hh"
#include "support/versioned_format.hh"

namespace vanguard {

// --- Histogram ---------------------------------------------------------

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
        std::adjacent_find(bounds_.begin(), bounds_.end()) !=
            bounds_.end()) {
        throw SimError(SimError::Kind::Invariant,
                       "histogram bucket bounds must be strictly "
                       "increasing");
    }
}

void
Histogram::observe(uint64_t v)
{
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed))
        ;
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed))
        ;
}

uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

uint64_t
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

uint64_t
Histogram::minValue() const
{
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

uint64_t
Histogram::maxValue() const
{
    return max_.load(std::memory_order_relaxed);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    return i < counts_.size()
        ? counts_[i].load(std::memory_order_relaxed)
        : 0;
}

uint64_t
Histogram::percentile(double p) const
{
    uint64_t n = count();
    if (n == 0)
        return 0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    // Rank of the p-quantile, 1-based; the bucket whose cumulative
    // count reaches it reports its upper bound.
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(n));
    if (rank == 0)
        rank = 1;
    uint64_t cum = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i].load(std::memory_order_relaxed);
        if (cum >= rank)
            return i < bounds_.size() ? bounds_[i] : maxValue();
    }
    return maxValue();
}

// --- MetricsRegistry ---------------------------------------------------

namespace {

[[noreturn]] void
kindCollision(const std::string &path, char want, char have)
{
    auto kname = [](char k) {
        return k == 'c' ? "counter" : k == 'g' ? "gauge" : "histogram";
    };
    throw SimError(SimError::Kind::Invariant,
                   "metric path '" + path + "' already registered as " +
                       kname(have) + ", cannot re-register as " +
                       kname(want));
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = kinds_.emplace(path, 'c');
    if (!inserted && it->second != 'c')
        kindCollision(path, 'c', it->second);
    auto &slot = counters_[path];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = kinds_.emplace(path, 'g');
    if (!inserted && it->second != 'g')
        kindCollision(path, 'g', it->second);
    auto &slot = gauges_[path];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &path,
                           std::vector<uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = kinds_.emplace(path, 'h');
    if (!inserted && it->second != 'h')
        kindCollision(path, 'h', it->second);
    auto &slot = histograms_[path];
    if (slot == nullptr)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

const Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(path);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge *
MetricsRegistry::findGauge(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(path);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(path);
    return it == histograms_.end() ? nullptr : it->second.get();
}

RegistrySample
MetricsRegistry::sample() const
{
    RegistrySample out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.counters.reserve(counters_.size());
    for (const auto &[path, c] : counters_)
        out.counters.push_back({path, c->value()});
    out.gauges.reserve(gauges_.size());
    for (const auto &[path, g] : gauges_)
        out.gauges.push_back({path, g->value()});
    out.histograms.reserve(histograms_.size());
    for (const auto &[path, h] : histograms_) {
        RegistrySample::HistogramSample hs;
        hs.path = path;
        hs.bounds = h->bounds();
        hs.bucketCounts.reserve(hs.bounds.size() + 1);
        for (size_t i = 0; i <= hs.bounds.size(); ++i)
            hs.bucketCounts.push_back(h->bucketCount(i));
        hs.count = h->count();
        hs.sum = h->sum();
        hs.min = h->minValue();
        hs.max = h->maxValue();
        hs.p50 = h->percentile(0.50);
        hs.p90 = h->percentile(0.90);
        hs.p99 = h->percentile(0.99);
        out.histograms.push_back(std::move(hs));
    }
    return out;
}

void
MetricsRegistry::mergeJobSnapshot(const std::string &scope,
                                  const MetricSnapshot &snap)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = scopes_.find(scope);
        if (it != scopes_.end()) {
            // Bit-identity assertion: the same job (same scope) must
            // summarize to exactly the same values no matter which
            // worker ran it, whether it was replayed from a journal,
            // or how many workers the sweep used.
            const auto &prev = it->second;
            if (prev.size() != snap.entries.size()) {
                throw SimError(
                    SimError::Kind::Invariant,
                    "job metric snapshot for scope '" + scope +
                        "' diverged: " + std::to_string(prev.size()) +
                        " entries previously, now " +
                        std::to_string(snap.entries.size()));
            }
            for (size_t i = 0; i < prev.size(); ++i) {
                const auto &a = prev[i];
                const auto &b = snap.entries[i];
                if (a.path != b.path || a.value != b.value ||
                    a.agg != b.agg) {
                    throw SimError(
                        SimError::Kind::Invariant,
                        "job metric snapshot for scope '" + scope +
                            "' diverged at counter '" + a.path +
                            "': " + std::to_string(a.value) +
                            " previously, now '" + b.path + "' = " +
                            std::to_string(b.value));
                }
            }
            return;     // idempotent: already aggregated
        }
        scopes_.emplace(scope, snap.entries);
    }
    for (const auto &e : snap.entries) {
        Counter &c = counter(e.path);
        if (e.agg == MetricSnapshot::Agg::Sum)
            c.add(e.value);
        else
            c.toAtLeast(e.value);
    }
}

size_t
MetricsRegistry::scopeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return scopes_.size();
}

// --- export ------------------------------------------------------------

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

namespace {

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
histogramFields(const Histogram &h,
                std::vector<std::pair<std::string, uint64_t>> &out)
{
    out = {{"count", h.count()},
           {"sum", h.sum()},
           {"min", h.minValue()},
           {"max", h.maxValue()},
           {"p50", h.percentile(0.50)},
           {"p90", h.percentile(0.90)},
           {"p99", h.percentile(0.99)}};
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kMetricsMagic << " v"
       << kMetricsVersion << "\",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[path, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << c->value();
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"gauges\": {";
    first = true;
    for (const auto &[path, g] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << fmtDouble(g->value());
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"histograms\": {";
    first = true;
    for (const auto &[path, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": {";
        std::vector<std::pair<std::string, uint64_t>> fields;
        histogramFields(*h, fields);
        for (size_t i = 0; i < fields.size(); ++i) {
            os << (i == 0 ? "" : ", ") << '"' << fields[i].first
               << "\": " << fields[i].second;
        }
        os << '}';
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"jobs\": {";
    first = true;
    for (const auto &[scope, entries] : scopes_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(scope)
           << "\": {";
        for (size_t i = 0; i < entries.size(); ++i) {
            os << (i == 0 ? "" : ", ") << '"'
               << jsonEscape(entries[i].path)
               << "\": " << entries[i].value;
        }
        os << '}';
        first = false;
    }
    os << (first ? "}\n" : "\n  }\n");
    os << "}\n";
    return os.str();
}

// --- parse-back (tests and jq-free tooling) ----------------------------

namespace {

/**
 * Minimal recursive-descent JSON reader covering exactly the subset
 * toJson emits: objects, strings, and numbers. Numeric leaves are
 * flattened into dotted keys.
 */
struct JsonReader
{
    const std::string &text;
    size_t pos = 0;
    ParsedMetrics &out;
    std::string schema;

    explicit JsonReader(const std::string &t, ParsedMetrics &o)
        : text(t), out(o)
    {}

    void
    ws()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    expect(char c)
    {
        ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string *s)
    {
        ws();
        if (pos >= text.size() || text[pos] != '"')
            return false;
        ++pos;
        s->clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\' && pos < text.size()) {
                char esc = text[pos++];
                if (esc == 'u' && pos + 4 <= text.size()) {
                    unsigned long v =
                        std::strtoul(text.substr(pos, 4).c_str(),
                                     nullptr, 16);
                    *s += static_cast<char>(v & 0xff);
                    pos += 4;
                } else {
                    *s += esc;
                }
            } else {
                *s += c;
            }
        }
        if (pos >= text.size())
            return false;
        ++pos;
        return true;
    }

    bool
    parseValue(const std::string &key)
    {
        ws();
        if (pos >= text.size())
            return false;
        if (text[pos] == '{')
            return parseObject(key);
        if (text[pos] == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            if (key == "schema")
                schema = s;
            return true;
        }
        // number
        size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        if (pos == start)
            return false;
        out.values[key] =
            std::strtod(text.substr(start, pos - start).c_str(),
                        nullptr);
        return true;
    }

    bool
    parseObject(const std::string &prefix)
    {
        if (!expect('{'))
            return false;
        ws();
        if (expect('}'))
            return true;
        for (;;) {
            std::string key;
            if (!parseString(&key) || !expect(':'))
                return false;
            std::string full =
                prefix.empty() ? key : prefix + "." + key;
            if (!parseValue(full))
                return false;
            ws();
            if (expect(','))
                continue;
            return expect('}');
        }
    }
};

} // namespace

ParsedMetrics
parseMetricsJson(const std::string &text)
{
    ParsedMetrics out;
    JsonReader reader(text, out);
    if (!reader.parseObject("")) {
        out.error = "malformed metrics JSON";
        return out;
    }
    if (reader.schema.empty()) {
        out.error = "missing schema field";
        return out;
    }
    if (!parseVersionedHeader(reader.schema, kMetricsMagic,
                              kMetricsVersion, &out.version)) {
        out.error = "schema is not '" + std::string(kMetricsMagic) +
                    "': '" + reader.schema + "'";
        return out;
    }
    out.ok = true;
    return out;
}

} // namespace vanguard
