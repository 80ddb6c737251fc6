#include "core/journal.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "core/replay.hh"
#include "support/atomic_file.hh"
#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/logging.hh"
#include "support/versioned_format.hh"

namespace vanguard {

namespace {

constexpr const char *kJournalMagic = "vanguard-journal";

/**
 * Journal tokens are space-separated; messages and paths are
 * percent-encoded so they stay one token. The empty string encodes
 * as a lone "%", which no non-empty encoding produces.
 */
std::string
encodeToken(const std::string &s)
{
    if (s.empty())
        return "%";
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        if (c == '%' || c == ' ' || u < 0x20 || u == 0x7f) {
            out += '%';
            out += hex[u >> 4];
            out += hex[u & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

bool
decodeToken(const std::string &s, std::string *out)
{
    if (s == "%") {
        out->clear();
        return true;
    }
    out->clear();
    out->reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            *out += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        auto nib = [](char c) -> int {
            if (c >= '0' && c <= '9')
                return c - '0';
            if (c >= 'a' && c <= 'f')
                return c - 'a' + 10;
            return -1;
        };
        int hi = nib(s[i + 1]);
        int lo = nib(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        *out += static_cast<char>((hi << 4) | lo);
        i += 2;
    }
    return true;
}

/** The 23 uint64 counters, in fixed format order. */
void
forEachCounter(SimStats &s, const std::function<void(uint64_t &)> &fn)
{
    for (uint64_t *p :
         {&s.cycles, &s.dynamicInsts, &s.fetched, &s.issued,
          &s.condBranches, &s.brMispredicts, &s.predictsExecuted,
          &s.resolvesExecuted, &s.resolveRedirects,
          &s.icacheLineAccesses, &s.icacheMisses, &s.l1dAccesses,
          &s.l1dMisses, &s.l2Misses, &s.l3Misses,
          &s.branchStallCycles, &s.branchStallEvents,
          &s.dbbFullStalls, &s.dbbMaxOccupancy, &s.fetchBufferStalls,
          &s.mshrStalls, &s.speculativeExecs, &s.foldedCommitMovs})
        fn(*p);
}

void
appendStats(std::ostringstream &os, const SimStats &stats)
{
    SimStats s = stats;
    forEachCounter(s, [&os](uint64_t &v) { os << ' ' << v; });
    os << ' ' << (stats.halted ? 1 : 0) << ' '
       << (stats.faulted ? 1 : 0);

    std::vector<std::pair<InstId, std::pair<uint64_t, uint64_t>>>
        stalls(stats.branchStalls.begin(), stats.branchStalls.end());
    std::sort(stalls.begin(), stalls.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    os << " stalls " << stalls.size();
    for (const auto &[id, ce] : stalls) {
        os << ' ' << static_cast<uint64_t>(id) << ':' << ce.first
           << ':' << ce.second;
    }

    os << " bpred " << stats.bpredCounters.size();
    for (const auto &[key, val] : stats.bpredCounters)
        os << ' ' << key << ':' << val;
}

/**
 * A count prefix read from untrusted bytes: each counted item takes
 * at least two bytes of the line, so a count beyond half the bytes
 * left is a lie — refuse it before reserving anything.
 */
bool
readCount(std::istringstream &is, size_t *n)
{
    if (!(is >> *n))
        return false;
    std::streamoff left = static_cast<std::streamoff>(is.str().size()) -
                          static_cast<std::streamoff>(is.tellg());
    return left >= 0 && *n <= static_cast<size_t>(left) / 2;
}

bool
parseStats(std::istringstream &is, SimStats *out)
{
    bool ok = true;
    forEachCounter(*out, [&is, &ok](uint64_t &v) {
        if (!(is >> v))
            ok = false;
    });
    int halted = 0, faulted = 0;
    std::string marker;
    size_t n = 0;
    if (!ok || !(is >> halted >> faulted >> marker) ||
        marker != "stalls" || !readCount(is, &n))
        return false;
    out->halted = halted != 0;
    out->faulted = faulted != 0;
    for (size_t i = 0; i < n; ++i) {
        std::string tok;
        if (!(is >> tok))
            return false;
        uint64_t id = 0, cyc = 0, ev = 0;
        if (std::sscanf(tok.c_str(),
                        "%" SCNu64 ":%" SCNu64 ":%" SCNu64, &id, &cyc,
                        &ev) != 3)
            return false;
        out->branchStalls[static_cast<InstId>(id)] = {cyc, ev};
    }

    size_t nb = 0;
    if (!(is >> marker) || marker != "bpred" || !readCount(is, &nb))
        return false;
    out->bpredCounters.reserve(nb);
    for (size_t i = 0; i < nb; ++i) {
        std::string tok;
        if (!(is >> tok))
            return false;
        size_t colon = tok.rfind(':');
        if (colon == std::string::npos || colon == 0)
            return false;
        errno = 0;
        char *end = nullptr;
        uint64_t val = std::strtoull(tok.c_str() + colon + 1, &end, 10);
        if (errno != 0 || end == nullptr || *end != '\0')
            return false;
        out->bpredCounters.emplace_back(tok.substr(0, colon), val);
    }
    return true;
}

/** The width list and its stats blocks, exactly one per width. */
bool
parseLanes(std::istringstream &is, JournalRecord *rec)
{
    std::string marker;
    size_t n = 0;
    if (!(is >> marker >> n) || marker != "widths" || n == 0 ||
        n > kMaxSweepWidths)
        return false;
    rec->widths.resize(n);
    for (unsigned &w : rec->widths) {
        if (!(is >> w) || w == 0 || w > kMaxWidthValue)
            return false;
    }
    rec->lanes.resize(n);
    for (SimStats &lane : rec->lanes) {
        if (!(is >> marker) || marker != "lane" ||
            !parseStats(is, &lane))
            return false;
    }
    return true;
}

std::string
withCrc(const std::string &body)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), " @%08x", crc32(body));
    return body + buf;
}

} // namespace

std::string
serializeJournalRecord(const JournalRecord &rec)
{
    std::ostringstream os;
    os << rec.phase << ' ' << rec.index << ' '
       << (rec.ok ? "ok" : "fail");
    if (!rec.ok) {
        os << ' ' << SimError::kindName(rec.kind) << ' '
           << rec.attempts << ' ' << encodeToken(rec.bundlePath)
           << ' ' << encodeToken(rec.message);
    } else if (rec.phase == 'S') {
        vg_assert(rec.widths.size() == rec.lanes.size(),
                  "journal record: %zu widths but %zu stat lanes",
                  rec.widths.size(), rec.lanes.size());
        os << " widths " << rec.widths.size();
        for (unsigned w : rec.widths)
            os << ' ' << w;
        for (const SimStats &lane : rec.lanes) {
            os << " lane";
            appendStats(os, lane);
        }
    }
    return withCrc(os.str());
}

bool
parseJournalRecord(const std::string &line, JournalRecord *out)
{
    size_t at = line.rfind(" @");
    if (at == std::string::npos || line.size() - at != 10)
        return false;
    std::string body = line.substr(0, at);
    unsigned long crc = std::strtoul(line.c_str() + at + 2, nullptr, 16);
    if (static_cast<uint32_t>(crc) != crc32(body))
        return false;

    std::istringstream is(body);
    std::string phase, status;
    size_t index = 0;
    if (!(is >> phase >> index >> status) || phase.size() != 1)
        return false;
    char p = phase[0];
    if (p != 'T' && p != 'C' && p != 'S')
        return false;

    JournalRecord rec;
    rec.phase = p;
    rec.index = index;
    if (status == "ok") {
        rec.ok = true;
        if (p == 'S' && !parseLanes(is, &rec))
            return false;
    } else if (status == "fail") {
        rec.ok = false;
        std::string kind, bundle, message;
        if (!(is >> kind >> rec.attempts >> bundle >> message))
            return false;
        rec.kind = SimError::kindFromName(kind);
        if (!decodeToken(bundle, &rec.bundlePath) ||
            !decodeToken(message, &rec.message))
            return false;
    } else {
        return false;
    }
    std::string rest;
    if (is >> rest)
        return false;
    *out = rec;
    return true;
}

JournalContents
parseJournal(const std::string &text)
{
    JournalContents out;
    std::istringstream is(text);
    std::string line;

    if (!std::getline(is, line)) {
        out.error = "empty journal";
        return out;
    }
    if (!parseVersionedHeader(line, kJournalMagic, kJournalVersion,
                              &out.version)) {
        out.error = "missing '" + std::string(kJournalMagic) +
                    "' header";
        return out;
    }

    bool have_spec = false, have_jobs = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.rfind("spec ", 0) == 0) {
            out.specHash = line.substr(5);
            have_spec = true;
            continue;
        }
        if (line.rfind("jobs ", 0) == 0) {
            out.totalJobs = std::strtoull(line.c_str() + 5, nullptr, 10);
            have_jobs = true;
            continue;
        }
        JournalRecord rec;
        if (!parseJournalRecord(line, &rec)) {
            ++out.corruptLines;
            continue;
        }
        auto &slot_map = rec.phase == 'T'
            ? out.train
            : rec.phase == 'C' ? out.compile : out.sim;
        auto [it, inserted] = slot_map.emplace(rec.index, rec);
        if (!inserted) {
            // Last valid record wins (a re-run after a lost profile
            // file, say); count it so tests can assert none happen.
            it->second = rec;
            ++out.duplicates;
        }
    }
    if (!have_spec || !have_jobs) {
        out.error = "journal header incomplete (missing spec/jobs)";
        return out;
    }
    out.ok = true;
    return out;
}

JournalContents
loadJournalFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        JournalContents out;
        out.error = "cannot read '" + path + "'";
        return out;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseJournal(buf.str());
}

std::string
sweepSpecCanonical(const std::vector<BenchmarkSpec> &suite,
                   const std::vector<unsigned> &widths,
                   const VanguardOptions &base)
{
    std::ostringstream os;
    os << kJournalMagic << " v" << kJournalVersion << " spec\n";
    os << "suite";
    for (const BenchmarkSpec &spec : suite)
        os << ' ' << spec.name << ':' << spec.iterations;
    os << "\nwidths";
    for (unsigned w : widths)
        os << ' ' << w;
    os << "\nseeds";
    for (size_t s = 0; s < kNumRefSeeds; ++s)
        os << ' ' << kRefSeeds[s];
    os << '\n' << serializeOptionsLines(base);
    return os.str();
}

std::string
sweepSpecHash(const std::vector<BenchmarkSpec> &suite,
              const std::vector<unsigned> &widths,
              const VanguardOptions &base)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  fnv1a64(sweepSpecCanonical(suite, widths, base)));
    return buf;
}

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JournalWriter::create(const std::string &path,
                      const std::string &spec_hash, size_t total_jobs)
{
    std::ostringstream header;
    header << kJournalMagic << " v" << kJournalVersion << '\n';
    header << "spec " << spec_hash << '\n';
    header << "jobs " << total_jobs << '\n';
    writeFileAtomic(path, header.str());
    openAppend(path);
}

void
JournalWriter::openAppend(const std::string &path)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) {
        throw SimError(SimError::Kind::Io,
                       "cannot open journal '" + path +
                           "' for append: " + std::strerror(errno));
    }
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
    path_ = path;
}

void
JournalWriter::append(const JournalRecord &rec)
{
    std::string line = serializeJournalRecord(rec) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    faultinject::site("journal.append", SimError::Kind::Io);
    if (fd_ < 0) {
        throw SimError(SimError::Kind::Io,
                       "journal is not open for append");
    }
    size_t off = 0;
    while (off < line.size()) {
        ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw SimError(SimError::Kind::Io,
                           "journal append to '" + path_ +
                               "' failed: " + std::strerror(errno));
        }
        if (n == 0) {
            // A zero-byte write that isn't EOF-of-pipe means no
            // progress (typically a full disk on some filesystems);
            // looping would spin forever.
            throw SimError(SimError::Kind::Io,
                           "journal append to '" + path_ +
                               "' stalled (wrote 0 of " +
                               std::to_string(line.size() - off) +
                               " bytes)");
        }
        off += static_cast<size_t>(n);
    }
    // Durability is the whole point: an unflushed record is a record
    // the post-crash resume will silently re-run, so a failed fsync
    // must be as loud as a failed write.
    if (::fsync(fd_) != 0) {
        int err = errno;
        std::string msg = "journal fsync of '" + path_ +
                          "' failed: " + std::strerror(err);
        if (err == ENOSPC || err == EIO) {
            msg += "; this record is not durable — free space or "
                   "replace the device, then re-run with --resume";
        }
        throw SimError(SimError::Kind::Io, msg);
    }
}

} // namespace vanguard
