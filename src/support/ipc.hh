/**
 * @file
 * Length-prefixed frame transport for the job-execution fabric
 * (core/coordinator.hh), over socketpairs to spawned workers
 * (core/worker_pool.hh) and TCP sockets to remote ones alike.
 *
 * Wire format (all integers little-endian):
 *
 *   u32 payload_len | u32 crc32(payload) | payload bytes
 *
 * The first payload byte is the frame type; the rest is the body.
 * Every frame is CRC'd (support/checksum.hh) so a torn write, a
 * half-dead worker, or a protocol desync surfaces as a loud
 * SimError(Io) instead of silently corrupt results. Text bodies
 * (hello/config/job/result/lease) carry their own `vanguard-* vN`
 * headers validated through support/versioned_format.hh, so a
 * version-skewed worker binary is refused by name at handshake time.
 *
 * Reading is deadline-based: FrameChannel buffers partial reads
 * across calls and poll()s the descriptor. EOF (peer death) and
 * timeout are ordinary statuses, not exceptions — only malformed
 * traffic throws.
 *
 * The TCP half (listenTcp/acceptPeer/connectTcp) feeds the same
 * FrameChannel; sendFrameNet additionally consults the deterministic
 * network fault plan (support/fault_inject.hh `net.*` sites) so
 * partition, frame-loss, and slow-peer behavior is reproducible in
 * tests.
 */

#ifndef VANGUARD_SUPPORT_IPC_HH
#define VANGUARD_SUPPORT_IPC_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hh"

namespace vanguard {
namespace ipc {

/** Frame types: the first payload byte. */
enum : char
{
    // Lease protocol (core/coordinator.hh):
    kFrameHello = 'H',      ///< worker -> coordinator, once per connection
    kFrameConfig = 'C',     ///< coordinator -> worker, answers the hello
    kFrameClaim = 'M',      ///< worker -> coordinator: give me a job
    kFrameLease = 'L',      ///< coordinator -> worker: leased job body
    kFrameRenew = 'N',      ///< worker -> coordinator: extend my lease
    kFrameResult = 'R',     ///< worker -> coordinator
    kFrameResultAck = 'A',  ///< coordinator -> worker: result recorded
    kFrameHeartbeat = 'B',  ///< coordinator -> idle worker: still here
    kFrameDrain = 'D',      ///< coordinator -> worker: exit (or,
                            ///< before CONFIG, "vanguard-refused")
};

/** Frames larger than this are protocol desync, not data. */
constexpr uint32_t kMaxFramePayload = 64u << 20;

/** FrameChannel's read buffer releases its capacity once drained past
 *  this size, so one near-kMaxFramePayload frame does not pin tens of
 *  MiB per long-lived coordinator connection. */
constexpr size_t kBufRetainCapacity = size_t{1} << 20;

struct Frame
{
    char type = 0;
    std::string body;       ///< payload minus the type byte
};

enum class ReadStatus
{
    Ok,
    Eof,        ///< peer closed (worker death / supervisor gone)
    Timeout,    ///< deadline expired with no complete frame
};

/**
 * Write one frame (blocking, retrying short writes). Throws
 * SimError(Io) on a closed/failed peer; never raises SIGPIPE (the
 * descriptor is a socket and writes use MSG_NOSIGNAL).
 */
void writeFrame(int fd, char type, const std::string &body);

/**
 * Buffered frame reader over one descriptor. Partial frames persist
 * in the buffer across calls, so a Timeout can be retried without
 * losing bytes.
 */
class FrameChannel
{
  public:
    FrameChannel() = default;
    explicit FrameChannel(int fd) : fd_(fd) {}

    int fd() const { return fd_; }
    void reset(int fd) { fd_ = fd; buf_.clear(); buf_.shrink_to_fit(); }

    /**
     * Read one frame. timeout_ms < 0 blocks indefinitely; timeout_ms
     * == 0 is a non-blocking drain (consume whatever the socket
     * already holds, Timeout once it runs dry — the coordinator's
     * multi-peer service loop polls with this); otherwise the whole
     * frame must arrive within the deadline. Throws SimError(Io) on
     * CRC mismatch, an oversize length prefix, or an empty payload —
     * all protocol desync, unrecoverable on this connection.
     */
    ReadStatus read(Frame *out, int timeout_ms);

    /** Current read-buffer capacity (test hook for the shrink-on-
     *  drain policy; see kBufRetainCapacity). */
    size_t bufferCapacity() const { return buf_.capacity(); }

  private:
    int fd_ = -1;
    std::string buf_;
};

/**
 * A connected AF_UNIX stream pair: fds[0] for the supervisor (marked
 * close-on-exec so sibling workers cannot hold it open), fds[1] for
 * the worker (inherited across exec). Throws SimError(Io) on failure.
 */
void makeSocketPair(int fds[2]);

// ---------------------------------------------------------------------
// TCP transport for the distributed sweep fabric
// ---------------------------------------------------------------------

/**
 * Bind and listen on `port` (0 = kernel-assigned ephemeral port; read
 * it back with listenPort). SO_REUSEADDR so a restarted coordinator
 * rebinds immediately; close-on-exec. Throws SimError(Io).
 */
int listenTcp(uint16_t port);

/** The locally-bound port of a listenTcp descriptor. */
uint16_t listenPort(int listen_fd);

/**
 * Accept one peer within `timeout_ms` (poll-based; -1 blocks).
 * Returns the connected fd (TCP_NODELAY, close-on-exec) or -1 on
 * timeout; fills `peer_addr` ("ip:port") when non-null. Throws
 * SimError(Io) on a real accept failure.
 */
int acceptPeer(int listen_fd, int timeout_ms,
               std::string *peer_addr);

/**
 * Connect to host:port (numeric or resolvable name). Returns the
 * connected fd (TCP_NODELAY, close-on-exec) or -1 with `error`
 * filled — connection refusal is an ordinary outcome the remote
 * worker retries with backoff, not an exception.
 */
int connectTcp(const std::string &host, uint16_t port,
               std::string *error);

/** How a fault-aware frame send ended. */
enum class SendStatus
{
    Ok,             ///< frame is on the wire
    Dropped,        ///< injected net.frame.drop swallowed the frame
    Disconnected,   ///< peer gone (real error or injected disconnect)
};

/**
 * writeFrame for fabric connections: consults the armed *network*
 * fault plan first. Draws, in fixed order per call, `net.frame.delay`
 * (sleep before sending), `net.frame.drop` (silently swallow the
 * frame — the peer's lease/claim deadline recovers it), and
 * `net.disconnect` (shut the socket down both ways, so both ends
 * observe a partition). `conn_scope` keys the connection's draw
 * stream and `*draw_cursor` advances across calls, so the fault
 * pattern is a pure function of (plan seed, connection, frame
 * ordinal) — never of scheduling. Real write failures (EPIPE on a
 * dead peer) map to Disconnected instead of throwing: peer loss is an
 * ordinary fabric event.
 */
SendStatus sendFrameNet(int fd, char type, const std::string &body,
                        uint64_t conn_scope, uint64_t *draw_cursor);

/** Deterministic connection scope key for net.* fault draws (FNV-1a
 *  over a fixed tag and two caller-chosen ordinals). */
inline uint64_t
netConnScope(uint64_t a, uint64_t b)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : {uint64_t{0x4e455443}, a, b}) { // "NETC"
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

// ---------------------------------------------------------------------
// Frame-body building blocks (shared by worker_pool and coordinator)
// ---------------------------------------------------------------------

/** Append "blob <name> <len>\n" followed by len raw bytes and '\n' —
 *  the frame bodies' escape-free carrier for messages, profiles, and
 *  nested records. */
void appendBlob(std::string *out, const char *name,
                const std::string &data);

/**
 * Sequential reader over a frame body: text lines interleaved with
 * length-prefixed raw blobs (so messages and profiles need no
 * escaping).
 */
struct BodyCursor
{
    const std::string &s;
    size_t pos = 0;

    bool
    line(std::string *out)
    {
        if (pos >= s.size())
            return false;
        size_t nl = s.find('\n', pos);
        if (nl == std::string::npos) {
            out->assign(s, pos, s.size() - pos);
            pos = s.size();
        } else {
            out->assign(s, pos, nl - pos);
            pos = nl + 1;
        }
        return true;
    }

    bool
    raw(size_t n, std::string *out)
    {
        if (s.size() - pos < n)
            return false;
        out->assign(s, pos, n);
        pos += n;
        // Consume the trailing separator newline, if present.
        if (pos < s.size() && s[pos] == '\n')
            ++pos;
        return true;
    }
};

/**
 * Read one whole token as a value of T, writing `*v` only on success:
 * a count through std::from_chars (so "-3", "12k" and out-of-range
 * values fail), a double through strtod (decimal or hexfloat), a flag
 * as exactly 0 or 1. The strict value reader of every frame body.
 */
template <typename T>
bool
readToken(const std::string &tok, T *v)
{
    T x{};
    bool ok;
    if constexpr (std::is_same_v<T, bool>) {
        ok = tok == "0" || tok == "1";
        x = tok == "1";
    } else if constexpr (std::is_same_v<T, double>) {
        char *end = nullptr;
        x = std::strtod(tok.c_str(), &end);
        ok = !tok.empty() && end == tok.c_str() + tok.size();
    } else {
        const char *end = tok.data() + tok.size();
        auto [p, ec] = std::from_chars(tok.data(), end, x);
        ok = ec == std::errc() && p == end;
    }
    if (ok)
        *v = x;
    return ok;
}

/** The rest of a line's tokens. */
inline std::vector<std::string>
restTokens(std::istringstream &ls)
{
    std::vector<std::string> out;
    for (std::string tok; ls >> tok;)
        out.push_back(std::move(tok));
    return out;
}

/** Exactly one token per field, each whole and of its field's type. */
template <typename... T>
bool
readFields(const std::vector<std::string> &toks, T *...fields)
{
    size_t i = 0;
    return toks.size() == sizeof...(T) &&
           (readToken(toks[i++], fields) && ...);
}

} // namespace ipc
} // namespace vanguard

#endif // VANGUARD_SUPPORT_IPC_HH
