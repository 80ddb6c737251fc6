/**
 * @file
 * Frame transport implementation (see ipc.hh for the wire format).
 */

#include "support/ipc.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/logging.hh"

namespace vanguard {
namespace ipc {

void
appendBlob(std::string *out, const char *name, const std::string &data)
{
    out->append("blob ");
    out->append(name);
    out->push_back(' ');
    out->append(std::to_string(data.size()));
    out->push_back('\n');
    out->append(data);
    out->push_back('\n');
}

namespace {

void
putU32(std::string *out, uint32_t v)
{
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>((v >> 8) & 0xff));
    out->push_back(static_cast<char>((v >> 16) & 0xff));
    out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t
getU32(const char *p)
{
    return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
           (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
           (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
           (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

void
setStreamSockOpts(int fd)
{
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    // Lease/claim frames are tiny and latency-sensitive; Nagle only
    // adds watchdog jitter here.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

void
writeFrame(int fd, char type, const std::string &body)
{
    std::string payload;
    payload.reserve(1 + body.size());
    payload.push_back(type);
    payload.append(body);
    if (payload.size() > kMaxFramePayload)
        vg_throw(Io, "ipc frame too large (%zu bytes, max %u)",
                 payload.size(), kMaxFramePayload);

    std::string wire;
    wire.reserve(8 + payload.size());
    putU32(&wire, static_cast<uint32_t>(payload.size()));
    putU32(&wire, crc32(payload));
    wire.append(payload);

    size_t off = 0;
    while (off < wire.size()) {
        // MSG_NOSIGNAL: a dead peer must yield EPIPE, not SIGPIPE.
        ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            vg_throw(Io, "ipc write failed on fd %d: %s", fd,
                     std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
}

ReadStatus
FrameChannel::read(Frame *out, int timeout_ms)
{
    using Clock = std::chrono::steady_clock;
    // timeout_ms == 0 is a non-blocking drain: consume what the socket
    // already holds, never wait.
    const bool drain_only = timeout_ms == 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms < 0
                                                     ? 0
                                                     : timeout_ms);
    for (;;) {
        // A complete frame may already be buffered.
        if (buf_.size() >= 8) {
            uint32_t len = getU32(buf_.data());
            if (len == 0 || len > kMaxFramePayload)
                vg_throw(Io,
                         "ipc protocol desync on fd %d: frame length %u",
                         fd_, len);
            if (buf_.size() >= 8 + static_cast<size_t>(len)) {
                uint32_t want = getU32(buf_.data() + 4);
                uint32_t got = crc32(buf_.data() + 8, len);
                if (want != got)
                    vg_throw(Io,
                             "ipc frame CRC mismatch on fd %d "
                             "(stored %08x computed %08x)",
                             fd_, want, got);
                out->type = buf_[8];
                out->body.assign(buf_, 9, len - 1);
                buf_.erase(0, 8 + static_cast<size_t>(len));
                // Once drained, release capacity a giant frame grew:
                // long-lived coordinator connections must not pin tens
                // of MiB per peer.
                if (buf_.empty() && buf_.capacity() > kBufRetainCapacity)
                    std::string().swap(buf_);
                return ReadStatus::Ok;
            }
        }

        int wait_ms = -1;
        if (drain_only) {
            wait_ms = 0;
        } else if (timeout_ms > 0) {
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
            if (left <= 0)
                return ReadStatus::Timeout;
            wait_ms = static_cast<int>(left);
        }
        struct pollfd pfd;
        pfd.fd = fd_;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            vg_throw(Io, "ipc poll failed on fd %d: %s", fd_,
                     std::strerror(errno));
        }
        if (pr == 0)
            return ReadStatus::Timeout;

        char chunk[16384];
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            vg_throw(Io, "ipc read failed on fd %d: %s", fd_,
                     std::strerror(errno));
        }
        if (n == 0) {
            // Peer closed. Leftover bytes are a torn frame: report EOF
            // (the supervisor triages the worker's exit status).
            return ReadStatus::Eof;
        }
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

void
makeSocketPair(int fds[2])
{
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        vg_throw(Io, "socketpair failed: %s", std::strerror(errno));
    // Supervisor end must not leak into workers exec'd later; the
    // worker end is inherited deliberately (spawn passes its number on
    // the command line).
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
}

int
listenTcp(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        vg_throw(Io, "socket failed: %s", std::strerror(errno));
    // A restarted coordinator must rebind its advertised port
    // immediately; workers are already retrying it.
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int err = errno;
        ::close(fd);
        vg_throw(Io, "bind to port %u failed: %s",
                 static_cast<unsigned>(port), std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        int err = errno;
        ::close(fd);
        vg_throw(Io, "listen on port %u failed: %s",
                 static_cast<unsigned>(port), std::strerror(err));
    }
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    return fd;
}

uint16_t
listenPort(int listen_fd)
{
    struct sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) != 0)
        vg_throw(Io, "getsockname failed on fd %d: %s", listen_fd,
                 std::strerror(errno));
    return ntohs(addr.sin_port);
}

int
acceptPeer(int listen_fd, int timeout_ms, std::string *peer_addr)
{
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    for (;;) {
        int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            vg_throw(Io, "ipc poll failed on fd %d: %s", listen_fd,
                     std::strerror(errno));
        }
        if (pr == 0)
            return -1;
        break;
    }
    struct sockaddr_in addr;
    socklen_t len = sizeof(addr);
    int fd;
    for (;;) {
        fd = ::accept(listen_fd,
                      reinterpret_cast<struct sockaddr *>(&addr), &len);
        if (fd >= 0)
            break;
        if (errno == EINTR)
            continue;
        // The peer can vanish between poll and accept; treat it like a
        // timeout and let the service loop come around again.
        if (errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            return -1;
        vg_throw(Io, "accept failed on fd %d: %s", listen_fd,
                 std::strerror(errno));
    }
    setStreamSockOpts(fd);
    if (peer_addr != nullptr) {
        char ip[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
        *peer_addr = std::string(ip) + ':' +
                     std::to_string(ntohs(addr.sin_port));
    }
    return fd;
}

int
connectTcp(const std::string &host, uint16_t port, std::string *error)
{
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    const std::string port_str = std::to_string(port);
    int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
    if (rc != 0) {
        if (error != nullptr)
            *error = "resolve '" + host + "' failed: " +
                     ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    std::string last = "no addresses for '" + host + "'";
    for (struct addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last = std::string("socket failed: ") + std::strerror(errno);
            continue;
        }
        int cr;
        do {
            cr = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        } while (cr != 0 && errno == EINTR);
        if (cr == 0)
            break;
        last = "connect to " + host + ':' + port_str + " failed: " +
               std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        if (error != nullptr)
            *error = last;
        return -1;
    }
    setStreamSockOpts(fd);
    return fd;
}

SendStatus
sendFrameNet(int fd, char type, const std::string &body,
             uint64_t conn_scope, uint64_t *draw_cursor)
{
    // Fixed three-draw sequence per send, advanced whether or not the
    // plan is armed, so a connection's fault pattern depends only on
    // its frame ordinal.
    uint64_t d_delay = (*draw_cursor)++;
    uint64_t d_drop = (*draw_cursor)++;
    uint64_t d_disc = (*draw_cursor)++;
    if (faultinject::netSiteFires("net.frame.delay",
                                  SimError::Kind::Hang, conn_scope,
                                  d_delay))
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    if (faultinject::netSiteFires("net.frame.drop", SimError::Kind::Io,
                                  conn_scope, d_drop))
        return SendStatus::Dropped;
    if (faultinject::netSiteFires("net.disconnect", SimError::Kind::Io,
                                  conn_scope, d_disc)) {
        // Both directions: the local reader sees EOF too, as a real
        // partition would eventually deliver.
        ::shutdown(fd, SHUT_RDWR);
        return SendStatus::Disconnected;
    }
    try {
        writeFrame(fd, type, body);
    } catch (const SimError &) {
        return SendStatus::Disconnected;
    }
    return SendStatus::Ok;
}

} // namespace ipc
} // namespace vanguard
