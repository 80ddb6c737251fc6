/**
 * @file
 * Fabric implementation: lease bookkeeping and the one supervision
 * policy, the coordinator service thread, the spawned workers'
 * fork/exec and reaping, and the worker lease loop (remote and
 * spawned). See coordinator.hh for the protocol and state machine.
 */

#include "core/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "support/fault_inject.hh"
#include "support/flight_recorder.hh"
#include "support/ipc.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/telemetry.hh"
#include "support/versioned_format.hh"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace vanguard {

namespace {

/** Every lease-protocol body is "vanguard-<kind> v3"; a peer that
 *  speaks another version is refused by name. */
constexpr unsigned kFabricVersion = 3;

// The supervision policy, one copy for spawned and remote peers.
constexpr unsigned kQuarantineLosses = 3; ///< lost leases in a row = poison
constexpr unsigned kStormLosses = 10;     ///< losses with no completion
constexpr unsigned kHelloTimeoutMs = 10000; ///< spawned peers' startup
constexpr unsigned kReapTimeoutMs = 2000; ///< SIGTERM grace at shutdown
constexpr int kTickMs = 10; ///< service-loop cap: expiry, idle heartbeats
constexpr BackoffPolicy kBackoff{};

using Clock = std::chrono::steady_clock;

/** A lease-protocol frame body: "key value" lines, then blobs. */
std::string
fabricBody(const char *kind,
           std::initializer_list<std::pair<const char *, uint64_t>> kv)
{
    std::string out =
        detail::csprintf("vanguard-%s v%u\n", kind, kFabricVersion);
    for (const auto &f : kv)
        out += detail::csprintf("%s %llu\n", f.first,
                                static_cast<unsigned long long>(f.second));
    return out;
}

/** Each parsed lease-protocol body's number keys and blob names. CLAIM
 *  and DRAIN carry neither, so nothing parses them. */
struct FabricKind
{
    const char *kind;
    std::vector<std::string> nums;
    std::vector<std::string> blobs;
};

const FabricKind kFabricKinds[] = {
    {"remote", {"pid"}, {}}, // HELLO
    {"workerconfig", {"lease-ms"}, {"fault-plan", "net-fault-plan"}},
    {"lease", {"lease"}, {"job"}},
    {"renew", {"lease"}, {}},
    {"remoteresult", {"lease"}, {"result"}},
    {"ack", {"lease"}, {}},
    {"refused", {}, {"reason"}}, // a DRAIN answering a refused HELLO
};

bool
listed(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::string
selfExePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        vg_throw(Config,
                 "cannot resolve this executable's path for worker "
                 "spawn; set an explicit worker exec path");
    return std::string(buf, static_cast<size_t>(n));
}

std::string
describeWaitStatus(int status)
{
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        return detail::csprintf("died on signal %d (%s)", sig,
                                strsignal(sig));
    }
    if (WIFEXITED(status))
        return detail::csprintf("exited with status %d",
                                WEXITSTATUS(status));
    return "vanished with unknown wait status";
}

/** The backoff key of owned slot `s`: it outlives each child. */
std::string
slotKey(unsigned s)
{
    return "slot" + std::to_string(s);
}

/** splitmix64 finalizer, local copy for connection-backoff jitter. */
uint64_t
mixJitter(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

bool
parseFabricBody(const std::string &body, const std::string &kind,
                FabricBody *out, std::string *error)
{
    const FabricKind *schema = nullptr;
    for (const FabricKind &k : kFabricKinds)
        if (kind == k.kind)
            schema = &k;
    if (schema == nullptr) {
        *error = "no fabric body kind '" + kind + "'";
        return false;
    }
    const std::string magic = "vanguard-" + kind;
    ipc::BodyCursor cur{body};
    std::string line;
    unsigned version = 0;
    try {
        if (!cur.line(&line) ||
            !parseVersionedHeader(line, magic, kFabricVersion, &version)) {
            *error = "missing " + magic + " header";
            return false;
        }
    } catch (const SimError &e) {
        *error = e.detail();
        return false;
    }
    if (version != kFabricVersion) {
        *error = detail::csprintf("unsupported %s version 'v%u' (this "
                                  "build speaks only v%u)",
                                  magic.c_str(), version, kFabricVersion);
        return false;
    }
    while (cur.line(&line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        std::vector<std::string> v = ipc::restTokens(ls);
        bool ok;
        if (key == "blob") {
            size_t len = 0;
            ok = v.size() == 2 && listed(schema->blobs, v[0]) &&
                 out->blobs.count(v[0]) == 0 &&
                 ipc::readToken(v[1], &len);
            if (ok && !cur.raw(len, &out->blobs[v[0]])) {
                *error = "truncated blob '" + v[0] + "'";
                return false;
            }
        } else if (listed(schema->nums, key)) {
            uint64_t n = 0;
            ok = out->nums.count(key) == 0 && ipc::readFields(v, &n);
            if (ok)
                out->nums[key] = n;
        } else {
            *error = "unknown " + kind + " key '" + key + "'";
            return false;
        }
        if (!ok) {
            *error = "bad value for " + kind + " key '" + key + "'";
            return false;
        }
    }
    for (const auto *names : {&schema->nums, &schema->blobs}) {
        for (const std::string &k : *names) {
            if (out->nums.count(k) + out->blobs.count(k) == 0) {
                *error = "missing " + kind + " key '" + k + "'";
                return false;
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

struct Coordinator::Impl
{
    struct Peer
    {
        int fd = -1;
        ipc::FrameChannel chan;
        std::string addr;       ///< ip:port of a TCP connection
        /** "pid@ip" (TCP, from the hello) or "slotN:pidM" (owned). */
        std::string identity;
        int pid = 0;            ///< owned peers: the spawned child
        unsigned slot = 0;      ///< owned peers: the worker slot
        bool helloed = false;
        bool claimPending = false;
        bool dead = false;
        uint64_t leaseId = 0;   ///< active lease on this connection
        uint64_t connScope = 0; ///< net.* draw scope
        uint64_t drawCursor = 0;
        Clock::time_point notBefore;  ///< backoff gate for grants
        Clock::time_point lastTx;     ///< for idle heartbeats

        bool owned() const { return pid > 0; }

        /** Backoff key: what survives a respawn or a reconnect. */
        std::string
        lossKey() const
        {
            return owned() ? slotKey(slot) : identity;
        }
    };

    /** An owned worker slot. */
    struct Slot
    {
        int pid = 0;            ///< spawned, not yet reaped; 0 = vacant
        bool everSpawned = false;
        Clock::time_point vacatedAt;
    };

    struct Offer
    {
        enum State { Queued, Leased, Done };
        State state = Queued;
        uint64_t id = 0;
        WorkerJob job;          ///< cleared once Done or discarded
        std::string key;        ///< "phase:slot" (policy bookkeeping)
        unsigned grants = 0;    ///< deliveries so far
        uint64_t leaseId = 0;   ///< current lease (Leased only)
        /** Identity of the leaseholder; once Done with a result, of
         *  the peer whose result settled it. */
        std::string leasedTo;
        Clock::time_point leaseExpiry;
        Clock::time_point grantedAt; ///< owned peers' job_rtt start
        bool discarded = false; ///< drained before any lease
        std::string resultBytes; ///< recorded result (Done)
        WorkerResult result;    ///< resultBytes, parsed
        bool failed = false;    ///< Done without a result: poison/hang
        SimError::Kind failKind = SimError::Kind::Internal;
        std::string failMessage;
    };

    explicit Impl(const Options &opts) : opts_(opts)
    {
        if (opts_.leaseMs == 0)
            opts_.leaseMs = 1;
        if (faultinject::armed())
            planSpec_ = faultPlanSpec(faultinject::currentPlan());
        if (faultinject::netArmed())
            netPlanSpec_ = faultPlanSpec(faultinject::currentNetPlan());
        if (opts_.workers == 0) {
            listenFd_ = ipc::listenTcp(opts_.port);
            port_ = ipc::listenPort(listenFd_);
        } else if (opts_.execPath.empty()) {
            opts_.execPath = selfExePath();
        }
        if (opts_.telemetry != nullptr) {
            // shutdown() clears the provider before this Impl can die,
            // so the closure never outlives `this`.
            opts_.telemetry->setFabricViewProvider(
                [this] { return fabricView(); });
        }
        slots_.resize(opts_.workers);
        for (unsigned s = 0; s < slots_.size(); ++s)
            spawnSlot(s);
        service_ = std::thread([this] { serviceLoop(); });
        if (!slots_.empty()) {
            // Like a blocking handshake: the fabric is ready once every
            // child said hello (or the loss policy gave up on them).
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait_for(lock, std::chrono::milliseconds(kHelloTimeoutMs),
                         [&] {
                             return broken_ ||
                                    ownedHellos_ >= slots_.size();
                         });
        }
    }

    ~Impl()
    {
        shutdown();
    }

    void
    bumpCounter(const char *name)
    {
        if (opts_.metrics != nullptr)
            opts_.metrics->counter(name).add(1);
    }

    /** The live leases plus one row per peer identity that holds a
     *  lease or settled an offer: one pass over the offer table. */
    FabricView
    fabricView()
    {
        FabricView out;
        std::map<std::string, PeerInfo> peers;
        Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &kv : offers_) {
            const Offer &o = kv.second;
            if (o.state == Offer::Leased) {
                LeaseInfo li;
                li.id = o.leaseId;
                li.key = o.key;
                li.peer = o.leasedTo;
                li.expiresInMs =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        o.leaseExpiry - now)
                        .count();
                out.leases.push_back(std::move(li));
                peers[o.leasedTo].lease = o.leaseId;
            } else if (o.state == Offer::Done && !o.failed) {
                peers[o.leasedTo].jobsDone++;
            }
        }
        for (auto &[identity, row] : peers) {
            row.identity = identity;
            out.peers.push_back(std::move(row));
        }
        return out;
    }

    // ---- execute() side (runner pool threads) ----

    WorkerResult
    execute(WorkerJob job)
    {
        job.bindSpecName();
        const std::string key =
            job.phase + ":" + std::to_string(job.slot);

        std::unique_lock<std::mutex> lock(mutex_);
        throwIfBroken();
        if (draining_ || shutdownRequested())
            throw JobDiscarded();
        uint64_t id = nextOfferId_++;
        {
            Offer &o = offers_[id];
            o.id = id;
            o.job = std::move(job);
            o.job.bindSpecName();
            o.key = key;
            queue_.push_back(id);
        }
        lock.unlock();
        {
            // Grant on this thread: a claimed idle peer gets its LEASE
            // now, not after a hop through the service thread. With no
            // such peer, the service thread grants when a CLAIM lands.
            std::lock_guard<std::mutex> turn(turn_);
            grantLeases();
        }
        lock.lock();
        cv_.wait(lock, [&] {
            const Offer &o = offers_[id];
            return broken_ || o.state == Offer::Done || o.discarded;
        });
        throwIfBroken();
        Offer &o = offers_[id];
        if (o.discarded)
            throw JobDiscarded();
        if (o.failed)
            throw SimError(o.failKind, o.failMessage);

        WorkerResult res = std::move(o.result);
        lock.unlock();
        for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
            faultinject::recordRemoteInjections(
                static_cast<SimError::Kind>(k), res.injected[k]);
        if (!res.ok)
            throw SimError(res.kind, res.message);
        return res;
    }

    /** Caller holds mutex_. */
    void
    throwIfBroken()
    {
        if (broken_)
            throw SimError(brokenKind_, brokenReason_);
    }

    /** Caller holds mutex_. */
    void
    breakLocked(SimError::Kind kind, std::string reason)
    {
        if (!broken_) {
            broken_ = true;
            brokenKind_ = kind;
            brokenReason_ = std::move(reason);
            flightRecord("error", "fabric.broken", brokenReason_);
        }
        cv_.notify_all();
    }

    // ---- the supervision policy (caller holds mutex_) ----

    /** When `key` may next get work, counting from `from`. */
    Clock::time_point
    backoffUntilLocked(const std::string &key, Clock::time_point from)
    {
        return from +
               std::chrono::milliseconds(kBackoff.delayMs(losses_[key]));
    }

    /** A worker identity lost work; too many in a row anywhere, with
     *  no completion in between, break the fabric. */
    void
    noteLossLocked(const std::string &key)
    {
        losses_[key]++;
        if (++consecutiveLosses_ > kStormLosses)
            breakLocked(SimError::Kind::Internal,
                        detail::csprintf(
                            "loss storm: %u consecutive worker losses "
                            "with no completed job; breaking the fabric",
                            consecutiveLosses_));
    }

    /** `o` lost its lease on `holder`. Requeue it, or fail it as
     *  poison after kQuarantineLosses in a row. */
    void
    loseLeaseLocked(Offer &o, Peer &holder, const std::string &why)
    {
        const bool owned = holder.owned();
        noteLossLocked(holder.lossKey());
        holder.leaseId = 0;
        holder.notBefore =
            backoffUntilLocked(holder.lossKey(), Clock::now());
        const std::string who = o.leasedTo;
        o.state = Offer::Queued;
        o.leaseId = 0;
        o.leasedTo.clear();

        unsigned losses = ++consecutiveDeaths_[o.key];
        flightRecord("event", owned ? "worker.lost" : "fabric.lease_lost",
                     detail::csprintf("%s lost %s: %s (loss %u)",
                                      who.c_str(), o.key.c_str(),
                                      why.c_str(), losses));
        if (losses < kQuarantineLosses) {
            queue_.push_back(o.id);
            vg_warn("worker %s lost %s (%s); redelivering (loss %u of "
                    "%u)",
                    who.c_str(), o.key.c_str(), why.c_str(), losses,
                    kQuarantineLosses);
            return;
        }
        consecutiveDeaths_.erase(o.key);
        o.failed = true;
        o.failKind = SimError::Kind::Internal;
        o.failMessage = detail::csprintf(
            "poison job quarantined: %s lost %u consecutive leases "
            "(last: %s)",
            o.key.c_str(), losses, why.c_str());
        if (owned)
            bumpCounter("engine.worker.quarantined_jobs");
        flightRecord("error",
                     owned ? "worker.quarantine" : "fabric.quarantine",
                     o.failMessage);
        settleLocked(o);
    }

    /** `o` is Done: wake its execute() call and drop the job body (a
     *  simulate job's TRAIN profile among it), which no lease needs
     *  any more. resultBytes stays for the duplicate byte-compare. */
    void
    settleLocked(Offer &o)
    {
        o.state = Offer::Done;
        o.leaseId = 0;
        o.job = WorkerJob();
        cv_.notify_all();
    }

    /** The offer `p` currently holds, if any. */
    Offer *
    heldOfferLocked(const Peer &p)
    {
        auto it = leaseHistory_.find(p.leaseId);
        if (p.leaseId == 0 || it == leaseHistory_.end())
            return nullptr;
        Offer &o = offers_[it->second];
        return o.state == Offer::Leased && o.leaseId == p.leaseId ? &o
                                                                  : nullptr;
    }

    // ---- service thread ----

    /**
     * Rule (b): a TCP peer counts every frame in engine.net.frames; an
     * owned peer counts only the frames that carry a job (LEASE out,
     * RESULT in) in engine.worker.frames.
     */
    void
    countFrame(const Peer &p, char type)
    {
        if (!p.owned())
            bumpCounter("engine.net.frames");
        else if (type == ipc::kFrameLease || type == ipc::kFrameResult)
            bumpCounter("engine.worker.frames");
    }

    ipc::SendStatus
    sendToPeer(Peer &p, char type, const std::string &body)
    {
        ipc::SendStatus st =
            ipc::sendFrameNet(p.fd, type, body, p.connScope,
                              &p.drawCursor);
        p.lastTx = Clock::now();
        if (st == ipc::SendStatus::Ok)
            countFrame(p, type);
        return st;
    }

    /**
     * A DRAIN-typed goodbye (a shutdown drain or a refusal), sent
     * injection-free: shutdown is a control path, not a chaos
     * subject, and an injected drop here would strand a worker
     * retrying a dead port forever. False if the peer is gone.
     */
    bool
    sendGoodbye(Peer &p, const std::string &body)
    {
        try {
            ipc::writeFrame(p.fd, ipc::kFrameDrain, body);
        } catch (const SimError &) {
            return false;
        }
        countFrame(p, ipc::kFrameDrain);
        return true;
    }

    /** Sleep until a peer or the listener has traffic — at most
     *  `timeout_ms`. Runs outside the turn: execute() never adds or
     *  removes peers. */
    void
    waitForTraffic(int timeout_ms)
    {
        std::vector<pollfd> fds;
        if (listenFd_ >= 0)
            fds.push_back({listenFd_, POLLIN, 0});
        for (const auto &p : peers_)
            fds.push_back({p->fd, POLLIN, 0});
        ::poll(fds.data(), fds.size(), timeout_ms);
    }

    void
    serviceLoop()
    {
        while (!stop_.load(std::memory_order_acquire)) {
            {
                std::lock_guard<std::mutex> turn(turn_);
                if (shutdownRequested())
                    discardQueued();
                acceptPeers();
                respawnOwned();
                pumpPeers();
                expireLeases();
                grantLeases();
                heartbeatIdlePeers();
                reapDeadPeers();
            }
            waitForTraffic(kTickMs);
        }
        std::lock_guard<std::mutex> turn(turn_);
        // Final drain: every connected peer gets its goodbye.
        discardQueued();
        std::set<std::string> drained;
        auto drainPeer = [&](Peer &p) {
            if (p.dead)
                return;
            // A peer gone mid-goodbye gets the lame-duck DRAIN below
            // if it reconnects.
            if (sendGoodbye(p, fabricBody("drain", {})) &&
                !p.identity.empty())
                drained.insert(p.identity);
            p.dead = true;
        };
        for (auto &p : peers_)
            drainPeer(*p);
        reapDeadPeers();

        // Lame duck, for identities that came in over TCP: a worker
        // knocked off right at sweep end (an injected disconnect,
        // plain bad timing) reconnects with sub-second backoff and
        // must find a goodbye, not a dead port. Keep accepting for a
        // bounded window, answering every HELLO with an immediate
        // DRAIN, until each identity this sweep ever saw has
        // one (an identity that never returns — a SIGKILLed worker,
        // say — just costs the full window). Window > the worker's
        // worst-case reconnect gap (backoff cap 1000ms + jitter up to
        // half that, plus connect/hello time).
        auto lame_duck_end =
            Clock::now() + std::chrono::milliseconds(2500);
        while (Clock::now() < lame_duck_end) {
            bool all_drained = true;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                for (const std::string &ident : seenIdentities_) {
                    if (drained.find(ident) == drained.end()) {
                        all_drained = false;
                        break;
                    }
                }
            }
            if (all_drained)
                break;
            acceptPeers();
            for (auto &pp : peers_) {
                Peer &p = *pp;
                if (p.dead)
                    continue;
                ipc::Frame f;
                ipc::ReadStatus st;
                try {
                    st = p.chan.read(&f, 0);
                } catch (const SimError &) {
                    p.dead = true;
                    continue;
                }
                if (st == ipc::ReadStatus::Eof) {
                    p.dead = true;
                } else if (std::string err;
                           st == ipc::ReadStatus::Ok &&
                           f.type == ipc::kFrameHello &&
                           parseHello(p, f.body, &err)) {
                    drainPeer(p);
                }
            }
            reapDeadPeers();
            waitForTraffic(kTickMs);
        }
        for (auto &p : peers_)
            ::close(p->fd);
        peers_.clear();
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
    }

    void
    discardQueued()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool any = false;
        for (uint64_t id : queue_) {
            Offer &o = offers_[id];
            if (o.state == Offer::Queued && !o.discarded) {
                o.discarded = true;
                o.job = WorkerJob();
                any = true;
            }
        }
        queue_.clear();
        if (any)
            cv_.notify_all();
    }

    Peer &
    adopt(int fd)
    {
        auto p = std::make_unique<Peer>();
        p->fd = fd;
        p->chan.reset(fd);
        p->connScope = ipc::netConnScope(acceptOrdinal_++, 0);
        p->notBefore = Clock::now();
        p->lastTx = Clock::now();
        peers_.push_back(std::move(p));
        return *peers_.back();
    }

    void
    acceptPeers()
    {
        if (listenFd_ < 0)
            return;
        for (;;) {
            std::string addr;
            int fd;
            try {
                fd = ipc::acceptPeer(listenFd_, 0, &addr);
            } catch (const SimError &e) {
                vg_warn("fabric accept failed: %s", e.detail().c_str());
                return;
            }
            if (fd < 0)
                return;
            if (faultinject::netSiteFires(
                    "net.accept", SimError::Kind::Io,
                    ipc::netConnScope(acceptOrdinal_, 0), 0)) {
                acceptOrdinal_++;
                ::close(fd);
                continue;
            }
            adopt(fd).addr = addr;
        }
    }

    /** Start owned slot `s`: from the constructor, then from the
     *  service thread whenever the slot is vacant and its backoff
     *  has passed. */
    void
    spawnSlot(unsigned s)
    {
        Slot &slot = slots_[s];
        int fd = -1;
        try {
            slot.pid = spawnChild(s, &fd);
        } catch (const SimError &e) {
            vg_warn("worker %u failed to start: %s", s,
                    e.detail().c_str());
            slot.vacatedAt = Clock::now();
            std::lock_guard<std::mutex> lock(mutex_);
            noteLossLocked(slotKey(s));
            return;
        }
        if (slot.everSpawned)
            bumpCounter("engine.worker.restarts");
        slot.everSpawned = true;
        Peer &p = adopt(fd);
        p.pid = slot.pid;
        p.slot = s;
        p.identity = detail::csprintf("slot%u:pid%d", s, slot.pid);
    }

    /** fork/exec one `--worker` child over a socketpair, under the
     *  RLIMIT_AS cap: returns its pid and sets *fd to our end. Throws
     *  SimError(Io) on failure. */
    int
    spawnChild(unsigned s, int *fd)
    {
        // Deterministic spawn-fault probe, keyed by a monotonic attempt
        // ordinal so the pattern is independent of the worker count and
        // a failed attempt draws fresh on retry.
        {
            faultinject::Scope scope(
                workerKillScope(uint64_t{0x5350574e}, spawnAttempts_++));
            faultinject::site("worker.spawn", SimError::Kind::Io);
        }

        int fds[2];
        ipc::makeSocketPair(fds);
        char fdarg[16];
        std::snprintf(fdarg, sizeof(fdarg), "%d", fds[1]);
        const char *argv[] = {opts_.execPath.c_str(), "--worker", fdarg,
                              nullptr};
        pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            vg_throw(Io, "fork failed for worker %u: %s", s,
                     std::strerror(errno));
        }
        if (pid == 0) {
            // Child: async-signal-safe calls only between fork and exec.
            if (opts_.rlimitMb != 0) {
                struct rlimit rl;
                rl.rlim_cur = rl.rlim_max =
                    static_cast<rlim_t>(opts_.rlimitMb) << 20;
                ::setrlimit(RLIMIT_AS, &rl);
            }
            ::execv(argv[0], const_cast<char *const *>(argv));
            ::_exit(127);
        }
        ::close(fds[1]);
        *fd = fds[0];
        return pid;
    }

    void
    respawnOwned()
    {
        if (shutdownRequested())
            return;
        Clock::time_point now = Clock::now();
        for (unsigned s = 0; s < slots_.size(); ++s) {
            if (slots_[s].pid != 0)
                continue;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (broken_ || draining_ ||
                    backoffUntilLocked(slotKey(s), slots_[s].vacatedAt) >
                        now)
                    continue;
            }
            spawnSlot(s);
        }
    }

    /** Mark `p` dead; an owned peer's child is reaped (SIGKILLed first
     *  when `kill`) and its fate returned. */
    std::string
    vacate(Peer &p, bool kill)
    {
        p.dead = true;
        if (!p.owned())
            return "";
        Slot &slot = slots_[p.slot];
        slot.pid = 0;
        slot.vacatedAt = Clock::now();
        if (kill)
            ::kill(p.pid, SIGKILL);
        int status = 0;
        pid_t r;
        while ((r = ::waitpid(p.pid, &status, 0)) < 0 && errno == EINTR) {
        }
        return r == p.pid ? describeWaitStatus(status)
                          : "could not be reaped";
    }

    /** Exactly one SIGTERM per live child, a bounded reap, SIGKILL and
     *  a blocking reap for stragglers. No zombie survives this. */
    void
    reapChildren()
    {
        std::lock_guard<std::mutex> turn(turn_);
        std::vector<int> pending;
        for (Slot &slot : slots_) {
            if (slot.pid != 0)
                pending.push_back(slot.pid);
            slot.pid = 0;
        }
        for (int pid : pending)
            ::kill(pid, SIGTERM);
        auto deadline =
            Clock::now() + std::chrono::milliseconds(kReapTimeoutMs);
        while (!pending.empty() && Clock::now() < deadline) {
            for (size_t i = 0; i < pending.size();) {
                pid_t r = ::waitpid(pending[i], nullptr, WNOHANG);
                if (r == pending[i] || (r < 0 && errno == ECHILD))
                    pending.erase(pending.begin() + static_cast<long>(i));
                else
                    ++i;
            }
            if (!pending.empty())
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        for (int pid : pending) {
            ::kill(pid, SIGKILL);
            while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
            }
        }
    }

    void
    pumpPeers()
    {
        for (auto &pp : peers_) {
            Peer &p = *pp;
            if (p.dead)
                continue;
            for (;;) {
                ipc::Frame f;
                ipc::ReadStatus st;
                try {
                    st = p.chan.read(&f, 0); // non-blocking drain
                } catch (const SimError &e) {
                    losePeer(p, "protocol desync (" + e.detail() + ")",
                             /*kill=*/true);
                    break;
                }
                if (st == ipc::ReadStatus::Timeout)
                    break;
                if (st == ipc::ReadStatus::Eof) {
                    losePeer(p, "disconnected", /*kill=*/false);
                    break;
                }
                countFrame(p, f.type);
                if (!handleFrame(p, f))
                    break;
            }
        }
    }

    bool
    handleFrame(Peer &p, const ipc::Frame &f)
    {
        switch (f.type) {
        case ipc::kFrameHello:
            return handleHello(p, f.body);
        case ipc::kFrameClaim:
            if (p.helloed)
                p.claimPending = true;
            return true;
        case ipc::kFrameRenew: {
            FabricBody renew;
            std::string err;
            if (!parseFabricBody(f.body, "renew", &renew, &err))
                return true; // tolerate malformed renew: lease expires
            uint64_t lease = renew.num("lease");
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = leaseHistory_.find(lease);
            if (it != leaseHistory_.end()) {
                Offer &o = offers_[it->second];
                if (o.state == Offer::Leased && o.leaseId == lease)
                    o.leaseExpiry =
                        Clock::now() +
                        std::chrono::milliseconds(opts_.leaseMs);
            }
            return true;
        }
        case ipc::kFrameResult:
            return handleResult(p, f.body);
        case ipc::kFrameHeartbeat:
            return true;
        default:
            losePeer(p,
                     detail::csprintf("protocol desync (frame '%c')",
                                      f.type),
                     /*kill=*/true);
            return false;
        }
    }

    /** Validate a HELLO and mark `p` helloed; a TCP peer's identity
     *  becomes "pid@ip". No reply. False (peer untouched, `*error`
     *  set) on a malformed body. */
    bool
    parseHello(Peer &p, const std::string &body, std::string *error)
    {
        FabricBody hello;
        if (!parseFabricBody(body, "remote", &hello, error))
            return false;
        if (!p.owned()) {
            std::string ip = p.addr.substr(0, p.addr.rfind(':'));
            p.identity = std::to_string(hello.num("pid")) + "@" + ip;
        }
        p.helloed = true;
        return true;
    }

    bool
    handleHello(Peer &p, const std::string &body)
    {
        std::string err;
        if (!parseHello(p, body, &err)) {
            // losePeer names only helloed TCP peers; a refused one is
            // worth a line (a worker of another version, say).
            if (!p.owned())
                vg_warn("fabric: refused peer %s: %s", p.addr.c_str(),
                        err.c_str());
            // Say why before hanging up: a worker of another version
            // stops on it instead of reconnecting forever.
            std::string refusal = fabricBody("refused", {});
            ipc::appendBlob(&refusal, "reason", err);
            sendGoodbye(p, refusal);
            losePeer(p, "hello refused (" + err + ")", /*kill=*/true);
            return false;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (p.owned()) {
                ownedHellos_++;
                cv_.notify_all();
            } else if (!seenIdentities_.insert(p.identity).second) {
                // Same identity back again = a reconnect (source
                // ports change per connection, so the hello pid is
                // the anchor).
                bumpCounter("engine.net.reconnects");
                p.notBefore = backoffUntilLocked(p.identity,
                                                 Clock::now());
            }
        }

        std::string cfg_body =
            fabricBody("workerconfig", {{"lease-ms", opts_.leaseMs}});
        ipc::appendBlob(&cfg_body, "fault-plan", planSpec_);
        ipc::appendBlob(&cfg_body, "net-fault-plan", netPlanSpec_);
        if (sendToPeer(p, ipc::kFrameConfig, cfg_body) ==
            ipc::SendStatus::Disconnected) {
            losePeer(p, "lost during config", /*kill=*/true);
            return false;
        }
        return true;
    }

    bool
    handleResult(Peer &p, const std::string &body)
    {
        // Validate the payload before recording it as the truth
        // duplicates get compared against.
        FabricBody frame;
        WorkerResult parsed;
        std::string err;
        bool readable;
        try {
            readable = parseFabricBody(body, "remoteresult", &frame,
                                       &err) &&
                       parseWorkerResult(frame.blobs["result"], &parsed,
                                         &err);
        } catch (const SimError &e) {
            readable = false;
            err = e.detail();
        }
        if (!readable || frame.num("lease") == 0) {
            losePeer(p,
                     "unreadable worker result (" +
                         (readable ? std::string("lease 0") : err) + ")",
                     /*kill=*/true);
            return false;
        }
        const uint64_t lease = frame.num("lease");
        std::string &result_bytes = frame.blobs["result"];

        // A result must be for the leased job's slot. Checked while p
        // still holds the lease, so losePeer requeues it.
        std::string desync;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = leaseHistory_.find(lease);
            if (it != leaseHistory_.end()) {
                const Offer &o = offers_[it->second];
                if (o.state != Offer::Done && !o.discarded &&
                    parsed.slot != o.job.slot)
                    desync = detail::csprintf(
                        "protocol desync (result for slot %zu on the "
                        "lease of %s)",
                        parsed.slot, o.key.c_str());
            }
        }
        if (!desync.empty()) {
            losePeer(p, desync, /*kill=*/true);
            return false;
        }
        if (p.leaseId == lease)
            p.leaseId = 0;

        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = leaseHistory_.find(lease);
            if (it == leaseHistory_.end()) {
                vg_warn("fabric: result for unknown lease %llu from "
                        "%s; acknowledged and ignored",
                        static_cast<unsigned long long>(lease),
                        p.identity.c_str());
            } else if (Offer &o = offers_[it->second];
                       o.state == Offer::Done) {
                if (!p.owned())
                    bumpCounter("engine.net.duplicate_results");
                // The exactly-once proof: a duplicate completion must
                // be bit-identical to the recorded one. (A failed
                // offer has no recorded bytes; its late result is
                // just dropped.)
                if (!o.resultBytes.empty() &&
                    o.resultBytes != result_bytes) {
                    breakLocked(
                        SimError::Kind::Divergence,
                        detail::csprintf(
                            "duplicate completion of %s diverges from "
                            "the recorded result (%zu vs %zu bytes); a "
                            "worker is computing different bits for "
                            "the same job",
                            o.key.c_str(), result_bytes.size(),
                            o.resultBytes.size()));
                    return true;
                }
            } else {
                // First completion wins — whether it came from the
                // current leaseholder or a presumed-dead worker whose
                // lease already expired and was requeued.
                if (o.state == Offer::Queued)
                    removeFromQueue(o.id);
                if (p.owned() && opts_.metrics != nullptr &&
                    o.state == Offer::Leased) {
                    auto rtt = std::chrono::duration_cast<
                                   std::chrono::milliseconds>(
                                   Clock::now() - o.grantedAt)
                                   .count();
                    opts_.metrics
                        ->histogram("engine.worker.job_rtt",
                                    workerRttBoundsMs())
                        .observe(static_cast<uint64_t>(rtt));
                }
                o.resultBytes = std::move(result_bytes);
                o.result = std::move(parsed);
                o.leasedTo = p.identity;
                consecutiveDeaths_.erase(o.key);
                losses_[p.lossKey()] = 0;
                consecutiveLosses_ = 0;
                settleLocked(o);
            }
        }
        if (sendToPeer(p, ipc::kFrameResultAck, fabricBody("ack", {{"lease", lease}})) ==
            ipc::SendStatus::Disconnected) {
            losePeer(p, "lost during result ack", /*kill=*/true);
            return false;
        }
        return true;
    }

    void
    removeFromQueue(uint64_t id)
    {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (*it == id) {
                queue_.erase(it);
                return;
            }
        }
    }

    /** `p` is gone (EOF, desync, failed send). Its lease, if any, is
     *  lost; an owned peer's death is a loss even when idle, so a
     *  worker binary that cannot start trips the storm breaker. */
    void
    losePeer(Peer &p, std::string why, bool kill)
    {
        if (p.dead)
            return;
        std::string fate = vacate(p, kill);
        if (p.owned() && !kill)
            why = fate;
        std::lock_guard<std::mutex> lock(mutex_);
        if (Offer *o = heldOfferLocked(p)) {
            loseLeaseLocked(*o, p, why);
            return;
        }
        p.leaseId = 0;
        if (p.owned())
            noteLossLocked(p.lossKey());
        if (p.owned() || p.helloed)
            vg_warn("worker %s %s", p.identity.c_str(), why.c_str());
        if (!p.owned() && p.helloed)
            flightRecord("event", "fabric.peer_lost",
                         p.identity + ": " + why);
    }

    /** Every live lease has exactly one holder peer (a lost peer's
     *  lease is requeued with it), so expiry walks the peers. */
    void
    expireLeases()
    {
        std::vector<Peer *> hung;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Clock::time_point now = Clock::now();
            for (auto &pp : peers_) {
                Peer &p = *pp;
                Offer *o = p.dead ? nullptr : heldOfferLocked(p);
                if (o == nullptr || o->leaseExpiry > now)
                    continue;
                if (!p.owned()) {
                    bumpCounter("engine.net.leases_expired");
                    loseLeaseLocked(*o, p, "lease expired");
                    continue;
                }
                // Rule (a): a socketpair cannot partition, so a silent
                // owned peer is hung. A hang is a determination about
                // the job, not a supervision failure: non-transient,
                // no quarantine or storm bookkeeping.
                o->failed = true;
                o->failKind = SimError::Kind::Hang;
                o->failMessage = detail::csprintf(
                    "worker heartbeat deadline (%u ms) missed; killed "
                    "worker pid %d during %s job %zu",
                    opts_.leaseMs, p.pid, o->job.phase.c_str(),
                    o->job.slot);
                bumpCounter("engine.worker.heartbeat_misses");
                flightRecord("error", "worker.heartbeat_miss",
                             o->failMessage);
                consecutiveDeaths_.erase(o->key);
                consecutiveLosses_ = 0;
                p.leaseId = 0;
                hung.push_back(&p);
                settleLocked(*o);
            }
        }
        for (Peer *p : hung)
            vacate(*p, /*kill=*/true);
    }

    void
    grantLeases()
    {
        struct Grant
        {
            Peer *peer;
            std::string body;
        };
        std::vector<Grant> grants;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (broken_ || draining_ || shutdownRequested())
                return;
            Clock::time_point now = Clock::now();
            for (auto &pp : peers_) {
                Peer &p = *pp;
                if (p.dead || !p.helloed || !p.claimPending ||
                    p.leaseId != 0 || p.notBefore > now)
                    continue;
                Offer *next = nullptr;
                while (next == nullptr && !queue_.empty()) {
                    Offer &cand = offers_[queue_.front()];
                    queue_.pop_front();
                    if (cand.state == Offer::Queued && !cand.discarded)
                        next = &cand;
                }
                if (next == nullptr)
                    break; // queue empty: idle heartbeats cover it
                Offer &o = *next;
                o.job.delivery = deliveries_[o.key]++;
                o.state = Offer::Leased;
                o.leaseId = nextLeaseId_++;
                o.leasedTo = p.identity;
                o.leaseExpiry =
                    now + std::chrono::milliseconds(opts_.leaseMs);
                o.grantedAt = now;
                leaseHistory_[o.leaseId] = o.id;
                if (!p.owned()) {
                    bumpCounter("engine.net.leases_granted");
                    if (o.grants > 0)
                        bumpCounter("engine.net.leases_regranted");
                }
                o.grants++;
                std::string body =
                    fabricBody("lease", {{"lease", o.leaseId}});
                ipc::appendBlob(&body, "job", serializeWorkerJob(o.job));
                p.claimPending = false;
                // Held from here on, even if the send is dropped (the
                // worker never sees it; the lease expiry requeues —
                // the injected-duplicate/requeue drill path).
                p.leaseId = o.leaseId;
                grants.push_back({&p, std::move(body)});
            }
        }
        for (Grant &g : grants) {
            if (sendToPeer(*g.peer, ipc::kFrameLease, g.body) ==
                ipc::SendStatus::Disconnected)
                losePeer(*g.peer, "lost during lease grant",
                         /*kill=*/true);
        }
    }

    void
    heartbeatIdlePeers()
    {
        unsigned interval = heartbeatIntervalMs(opts_.leaseMs);
        Clock::time_point now = Clock::now();
        for (auto &pp : peers_) {
            Peer &p = *pp;
            if (p.dead || !p.helloed)
                continue;
            if (now - p.lastTx >=
                std::chrono::milliseconds(interval)) {
                // Keeps waiting workers from mistaking an empty queue
                // for a dead coordinator.
                if (sendToPeer(p, ipc::kFrameHeartbeat, "") ==
                    ipc::SendStatus::Disconnected)
                    losePeer(p, "lost during heartbeat", /*kill=*/true);
            }
        }
    }

    void
    reapDeadPeers()
    {
        for (size_t i = 0; i < peers_.size();) {
            if (peers_[i]->dead) {
                ::close(peers_[i]->fd);
                peers_.erase(peers_.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (shutdownDone_)
                return;
            shutdownDone_ = true;
            draining_ = true;
        }
        // Unhook the fabric-view closure before any teardown: an HTTP
        // scrape racing shutdown must not call into a dying Impl.
        if (opts_.telemetry != nullptr)
            opts_.telemetry->setFabricViewProvider(nullptr);
        stop_.store(true, std::memory_order_release);
        if (service_.joinable())
            service_.join();
        // An offer queued after the service thread's final drain pass
        // would otherwise wait forever.
        discardQueued();
        reapChildren();
    }

    Options opts_;
    int listenFd_ = -1;         ///< -1 when the peers are spawned
    uint16_t port_ = 0;
    std::string planSpec_;
    std::string netPlanSpec_;
    std::thread service_;
    std::atomic<bool> stop_{false};

    /** The turn: whoever holds it owns peers_ and slots_ — the
     *  service thread, an execute() caller granting a lease, or a
     *  workerPids() reader. Taken before mutex_, never while holding
     *  it. */
    mutable std::mutex turn_;
    std::vector<std::unique_ptr<Peer>> peers_;
    std::vector<Slot> slots_;   ///< one per spawned worker
    uint64_t acceptOrdinal_ = 0;
    uint64_t spawnAttempts_ = 0; ///< worker.spawn draw ordinal

    // Shared (guarded by mutex_):
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<uint64_t, Offer> offers_;
    std::deque<uint64_t> queue_;
    std::map<uint64_t, uint64_t> leaseHistory_; ///< lease -> offer
    std::map<std::string, uint64_t> deliveries_;
    std::map<std::string, unsigned> consecutiveDeaths_;
    std::map<std::string, unsigned> losses_;
    std::set<std::string> seenIdentities_; ///< TCP identities only
    size_t ownedHellos_ = 0;
    uint64_t nextOfferId_ = 1;
    uint64_t nextLeaseId_ = 1;
    unsigned consecutiveLosses_ = 0;
    bool broken_ = false;
    SimError::Kind brokenKind_ = SimError::Kind::Internal;
    std::string brokenReason_;
    bool draining_ = false;
    bool shutdownDone_ = false;
};

// ---------------------------------------------------------------------
// Worker lease loop (remote and spawned)
// ---------------------------------------------------------------------

namespace {

/** Sleep `ms` in small steps, bailing early on the shutdown latch.
 *  Returns false if shutdown was requested. */
bool
interruptibleSleep(unsigned ms)
{
    unsigned slept = 0;
    while (slept < ms) {
        if (shutdownRequested())
            return false;
        unsigned step = ms - slept < 25 ? ms - slept : 25;
        std::this_thread::sleep_for(std::chrono::milliseconds(step));
        slept += step;
    }
    return !shutdownRequested();
}

enum class ConnOutcome
{
    Drained,    ///< coordinator sent a DRAIN: exit cleanly
    Refused,    ///< coordinator refused the HELLO: exit with an error
    Lost,       ///< connection lost: reconnect (remote) or exit
    Shutdown,   ///< local SIGINT/SIGTERM latch: exit cleanly
    Acked,      ///< (serveLease only) result recorded: claim again
};

struct WorkerConn
{
    WorkerConn(int fd, uint64_t scope) : fd(fd), chan(fd), connScope(scope)
    {
    }

    int fd;
    ipc::FrameChannel chan;
    uint64_t connScope;
    uint64_t drawCursor = 0;
    std::mutex writeMutex;
    unsigned leaseMs = 10000;
    std::string refusal;    ///< the coordinator's reason (Refused)

    ipc::SendStatus
    send(char type, const std::string &body)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return ipc::sendFrameNet(fd, type, body, connScope,
                                 &drawCursor);
    }

    /**
     * Read one frame in shutdown-aware slices. `silence_ms` bounds
     * how long we tolerate a totally quiet coordinator before
     * declaring it partitioned (Timeout). A desynced stream reads as
     * Eof: either way the connection is gone.
     */
    ipc::ReadStatus
    readSliced(ipc::Frame *f, unsigned silence_ms)
    {
        Clock::time_point deadline =
            Clock::now() + std::chrono::milliseconds(silence_ms);
        for (;;) {
            if (shutdownRequested())
                return ipc::ReadStatus::Timeout;
            int left = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count());
            if (left <= 0)
                return ipc::ReadStatus::Timeout;
            ipc::ReadStatus st;
            try {
                st = chan.read(f, left < 200 ? left : 200);
            } catch (const SimError &) {
                return ipc::ReadStatus::Eof;
            }
            if (st != ipc::ReadStatus::Timeout)
                return st;
        }
    }
};

/** Handle the coordinator's CONFIG frame: lease duration and the two
 *  forwarded fault plans. */
bool
applyConfig(WorkerConn &conn, const std::string &body)
{
    FabricBody cfg;
    std::string err;
    if (!parseFabricBody(body, "workerconfig", &cfg, &err) ||
        cfg.num("lease-ms") == 0 ||
        cfg.num("lease-ms") > std::numeric_limits<unsigned>::max())
        return false;
    conn.leaseMs = static_cast<unsigned>(cfg.num("lease-ms"));
    try {
        const std::string &plan = cfg.blobs["fault-plan"];
        const std::string &net_plan = cfg.blobs["net-fault-plan"];
        if (plan.empty())
            faultinject::disarm();
        else
            faultinject::arm(parseFaultPlan(plan));
        if (net_plan.empty())
            faultinject::disarmNet();
        else
            faultinject::armNet(parseFaultPlan(net_plan));
    } catch (const SimError &) {
        return false;
    }
    return true;
}

/**
 * Renews the lease a connection is working on, every lease/4 from a
 * side thread. One per connection rather than per job, so no thread
 * start or join sits on a job's critical path.
 */
class Renewer
{
  public:
    explicit Renewer(WorkerConn &conn)
        : conn_(conn), thread_([this] { loop(); })
    {
    }

    ~Renewer()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
    }

    Renewer(const Renewer &) = delete;
    Renewer &operator=(const Renewer &) = delete;

    /** Renew `lease` (0: none) every interval_ms, the first time one
     *  interval from now. */
    void
    track(uint64_t lease, unsigned interval_ms)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            lease_ = lease;
            intervalMs_ = interval_ms;
            ++generation_;
        }
        if (lease != 0)
            cv_.notify_one();
    }

    /** A renew found the connection gone. */
    bool
    lost() const
    {
        return lost_.load(std::memory_order_acquire);
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            // A track() restarts the wait instead of renewing early.
            const uint64_t seen = generation_;
            if (cv_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                             [&] { return stop_ || generation_ != seen; }) ||
                lease_ == 0)
                continue;
            const uint64_t lease = lease_;
            lock.unlock();
            if (conn_.send(ipc::kFrameRenew,
                           fabricBody("renew", {{"lease", lease}})) ==
                ipc::SendStatus::Disconnected)
                lost_.store(true, std::memory_order_release);
            lock.lock();
        }
    }

    WorkerConn &conn_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    uint64_t lease_ = 0;
    unsigned intervalMs_ = 1000;
    uint64_t generation_ = 0; ///< bumped by every track()
    std::atomic<bool> lost_{false};
    std::thread thread_; ///< last: starts once the rest is built
};

/** Execute one leased job while `renewer` keeps its lease alive, then
 *  deliver the result until acknowledged. */
ConnOutcome
serveLease(WorkerConn &conn, JobBodyRunner &runner, Renewer &renewer,
           uint64_t lease, const WorkerJob &job)
{
    // The worker.heartbeat site: one draw per job (see
    // workerHeartbeatScope) either silences all of its renewals — the
    // lease then expires — or none. siteFires never counts, so the
    // injected gauges keep their cross-mode identity.
    bool suppressed;
    {
        faultinject::Scope scope(workerHeartbeatScope(job.scopeKey));
        suppressed = faultinject::siteFires("worker.heartbeat",
                                            SimError::Kind::Hang);
    }
    renewer.track(suppressed ? 0 : lease, heartbeatIntervalMs(conn.leaseMs));
    WorkerResult res = runner.run(job);
    renewer.track(0, heartbeatIntervalMs(conn.leaseMs));
    if (renewer.lost())
        return ConnOutcome::Lost;

    std::string body = fabricBody("remoteresult", {{"lease", lease}});
    ipc::appendBlob(&body, "result", serializeWorkerResult(res));

    // At-least-once delivery: retransmit until the coordinator ACKs.
    // A lost ACK therefore produces a duplicate completion on the
    // coordinator, which reconciles it by byte-comparison. On
    // connection loss the unACKed result is simply discarded —
    // re-execution after the re-grant is idempotent.
    for (unsigned attempt = 0; attempt < 5; ++attempt) {
        ipc::SendStatus st = conn.send(ipc::kFrameResult, body);
        if (st == ipc::SendStatus::Disconnected)
            return ConnOutcome::Lost;
        // Await the ACK (a Dropped send just looks like a lost ACK).
        Clock::time_point deadline =
            Clock::now() + std::chrono::milliseconds(conn.leaseMs);
        while (Clock::now() < deadline) {
            ipc::Frame f;
            ipc::ReadStatus rst = conn.readSliced(
                &f, static_cast<unsigned>(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(deadline -
                                                       Clock::now())
                            .count() +
                        1));
            if (rst == ipc::ReadStatus::Eof)
                return ConnOutcome::Lost;
            if (rst == ipc::ReadStatus::Timeout)
                break; // retransmit
            FabricBody ack;
            std::string err;
            if (f.type == ipc::kFrameResultAck) {
                if (parseFabricBody(f.body, "ack", &ack, &err) &&
                    ack.num("lease") == lease)
                    return ConnOutcome::Acked;
                continue; // stale ack for an older lease
            }
            if (f.type == ipc::kFrameDrain) {
                // The coordinator only drains once the sweep has
                // every result it needs; if ours mattered it was
                // recorded (possibly via a re-grant). Exit cleanly.
                return ConnOutcome::Drained;
            }
            // Heartbeats and anything else: keep waiting.
        }
        if (shutdownRequested())
            return ConnOutcome::Shutdown;
    }
    return ConnOutcome::Lost; // coordinator unresponsive: reconnect
}

ConnOutcome
serveConnection(WorkerConn &conn, JobBodyRunner &runner)
{
    if (conn.send(ipc::kFrameHello,
                  fabricBody("remote", {{"pid", ::getpid()}})) !=
        ipc::SendStatus::Ok)
        return ConnOutcome::Lost;

    // Config must arrive before any claim.
    for (;;) {
        ipc::Frame f;
        ipc::ReadStatus st = conn.readSliced(&f, 10000);
        if (shutdownRequested())
            return ConnOutcome::Shutdown;
        if (st != ipc::ReadStatus::Ok)
            return ConnOutcome::Lost;
        if (f.type == ipc::kFrameConfig) {
            if (!applyConfig(conn, f.body))
                return ConnOutcome::Lost;
            break;
        }
        if (f.type == ipc::kFrameDrain) {
            FabricBody refused;
            std::string err;
            if (!parseFabricBody(f.body, "refused", &refused, &err))
                return ConnOutcome::Drained;
            conn.refusal = refused.blobs["reason"];
            return ConnOutcome::Refused;
        }
    }

    // Claim/execute/report until drained.
    Renewer renewer(conn);
    for (;;) {
        if (shutdownRequested())
            return ConnOutcome::Shutdown;
        if (conn.send(ipc::kFrameClaim, fabricBody("claim", {})) ==
            ipc::SendStatus::Disconnected)
            return ConnOutcome::Lost;

        // Await the lease. Re-claim if the coordinator stays quiet
        // for a lease period (a dropped CLAIM or LEASE frame), and
        // declare it partitioned after two with *no* traffic at all.
        Clock::time_point claim_sent = Clock::now();
        bool leased = false;
        uint64_t lease = 0;
        WorkerJob job;
        while (!leased) {
            ipc::Frame f;
            ipc::ReadStatus st = conn.readSliced(&f, 2 * conn.leaseMs);
            if (shutdownRequested())
                return ConnOutcome::Shutdown;
            if (st != ipc::ReadStatus::Ok)
                return ConnOutcome::Lost; // EOF or total silence
            if (f.type == ipc::kFrameDrain)
                return ConnOutcome::Drained;
            if (f.type == ipc::kFrameLease) {
                FabricBody body;
                std::string err;
                if (!parseFabricBody(f.body, "lease", &body, &err) ||
                    body.num("lease") == 0 ||
                    !parseWorkerJob(body.blobs["job"], &job, &err))
                    return ConnOutcome::Lost;
                lease = body.num("lease");
                leased = true;
                continue;
            }
            // Heartbeats (idle queue) and strays: keep waiting, but
            // nudge with a fresh claim if a lease period passed (our
            // CLAIM may have been dropped on the wire).
            if (Clock::now() - claim_sent >
                std::chrono::milliseconds(conn.leaseMs)) {
                if (conn.send(ipc::kFrameClaim, fabricBody("claim", {})) ==
                    ipc::SendStatus::Disconnected)
                    return ConnOutcome::Lost;
                claim_sent = Clock::now();
            }
        }

        ConnOutcome out = serveLease(conn, runner, renewer, lease, job);
        if (out != ConnOutcome::Acked)
            return out;
        // Result acknowledged: claim the next job.
    }
}

} // namespace

int
runRemoteWorker(const std::string &host, uint16_t port)
{
    // One body runner for the whole process: the artifact cache
    // survives reconnects, so a flapping network doesn't force
    // retrain/recompile of what this worker already built.
    JobBodyRunner runner;
    faultinject::maybeArmNetFromEnv();

    const uint64_t pid = static_cast<uint64_t>(::getpid());
    uint64_t attempt = 0;
    unsigned consecutive_failures = 0;
    bool warned = false;

    for (;;) {
        if (shutdownRequested())
            return 0;
        unsigned delay = kBackoff.delayMs(consecutive_failures);
        if (delay != 0) {
            // Jitter: a fleet of workers restarted together must not
            // hammer a recovering coordinator in lockstep.
            delay += static_cast<unsigned>(mixJitter(pid ^ attempt) %
                                           (delay / 2 + 1));
            if (!interruptibleSleep(delay))
                return 0;
        }
        attempt++;

        std::string err;
        int fd = ipc::connectTcp(host, port, &err);
        if (fd < 0) {
            consecutive_failures++;
            if (!warned || consecutive_failures % 32 == 0) {
                vg_warn("remote worker: %s (attempt %llu); retrying",
                        err.c_str(),
                        static_cast<unsigned long long>(attempt));
                warned = true;
            }
            continue;
        }

        WorkerConn conn(fd, ipc::netConnScope(pid, attempt));
        ConnOutcome out;
        try {
            out = serveConnection(conn, runner);
        } catch (const SimError &e) {
            vg_warn("remote worker: connection error: %s",
                    e.detail().c_str());
            out = ConnOutcome::Lost;
        }
        ::close(fd);
        if (out == ConnOutcome::Drained) {
            vg_inform("remote worker: drained by coordinator; exiting");
            return 0;
        }
        if (out == ConnOutcome::Refused) {
            vg_warn("remote worker: refused by coordinator: %s",
                    conn.refusal.c_str());
            return 1;
        }
        if (out == ConnOutcome::Shutdown)
            return 0;
        consecutive_failures =
            consecutive_failures == 0 ? 1 : consecutive_failures + 1;
    }
}

int
runWorkerProcess(int fd)
{
    // A process-group SIGINT/SIGTERM latches the drain flag; the
    // in-flight job finishes and the loop exits cleanly. The
    // supervisor owns actual kill policy.
    installShutdownHandlers();
    JobBodyRunner runner;
    WorkerConn conn(fd, ipc::netConnScope(
                            static_cast<uint64_t>(::getpid()), 0));
    ConnOutcome out;
    try {
        out = serveConnection(conn, runner);
    } catch (const SimError &) {
        out = ConnOutcome::Lost;
    }
    // No reconnect: the socketpair is the only way back, so EOF (a
    // dead supervisor) means exit, like a DRAIN.
    return out == ConnOutcome::Lost || out == ConnOutcome::Refused ? 1 : 0;
}

Coordinator::Coordinator(const Options &opts) : impl_(new Impl(opts)) {}

Coordinator::~Coordinator() = default;

uint16_t
Coordinator::port() const
{
    return impl_->port_;
}

WorkerResult
Coordinator::execute(WorkerJob job)
{
    return impl_->execute(std::move(job));
}

void
Coordinator::shutdown()
{
    impl_->shutdown();
}

std::vector<int>
Coordinator::workerPids() const
{
    std::lock_guard<std::mutex> turn(impl_->turn_);
    std::vector<int> pids;
    for (const Impl::Slot &slot : impl_->slots_)
        if (slot.pid != 0)
            pids.push_back(slot.pid);
    return pids;
}

} // namespace vanguard
