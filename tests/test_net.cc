/**
 * @file
 * Sweep-fabric frame-layer unit tests (tier1): the TCP transport
 * (listen/accept/connect over loopback), frame integrity over a real
 * socket (torn writes, CRC corruption, slow byte-at-a-time writers,
 * mid-frame disconnects), the FrameChannel buffer-shrink policy, the
 * non-blocking drain read the coordinator's service loop uses, the
 * deterministic network-fault draw, the blob body codec the lease
 * protocol shares with the worker protocol, and — against hand-rolled
 * workers — the coordinator's answer to a result for the wrong slot,
 * its refusal of another version's HELLO (and the remote worker's
 * exit on one), and the telemetry peer rows it derives from its offer
 * table.
 * Everything here is in-process; the end-to-end coordinator/worker
 * drills live in test_net_sweep.cc (tier2_net).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.hh"
#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/ipc.hh"
#include "support/telemetry.hh"
#include "workloads/suites.hh"

#include <sys/socket.h>
#include <unistd.h>

namespace vanguard {
namespace {

/** A loopback listener + connected client/server fd pair. */
struct TcpPair
{
    int listen_fd = -1;
    int client_fd = -1;
    int server_fd = -1;
    std::string server_addr; ///< client's address as the server saw it

    TcpPair()
    {
        listen_fd = ipc::listenTcp(0);
        std::string err;
        client_fd =
            ipc::connectTcp("127.0.0.1", ipc::listenPort(listen_fd),
                            &err);
        EXPECT_GE(client_fd, 0) << err;
        server_fd = ipc::acceptPeer(listen_fd, 2000, &server_addr);
        EXPECT_GE(server_fd, 0);
    }
    ~TcpPair()
    {
        for (int fd : {listen_fd, client_fd, server_fd}) {
            if (fd >= 0)
                ::close(fd);
        }
    }
};

/** A hand-built wire image of one frame (length | crc | payload). */
std::string
wireFrame(const std::string &payload, uint32_t crc_xor = 0)
{
    uint32_t len = static_cast<uint32_t>(payload.size());
    uint32_t crc = crc32(payload) ^ crc_xor;
    std::string wire;
    for (int i = 0; i < 4; ++i)
        wire += static_cast<char>((len >> (8 * i)) & 0xff);
    for (int i = 0; i < 4; ++i)
        wire += static_cast<char>((crc >> (8 * i)) & 0xff);
    return wire + payload;
}

TEST(NetTransport, LoopbackRoundTripAndPeerAddress)
{
    TcpPair p;
    // The accept side learns "ip:port"; only the ip is identity (the
    // port changes every reconnect).
    EXPECT_EQ(p.server_addr.rfind("127.0.0.1:", 0), 0u)
        << p.server_addr;

    std::string binary("\x00\x01\xff\n\r\x7f lease", 12);
    ipc::writeFrame(p.client_fd, ipc::kFrameClaim, binary);
    ipc::writeFrame(p.client_fd, ipc::kFrameHeartbeat, "");

    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 2000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameClaim);
    EXPECT_EQ(f.body, binary);
    ASSERT_EQ(chan.read(&f, 2000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameHeartbeat);
    EXPECT_TRUE(f.body.empty());
}

TEST(NetTransport, AcceptTimesOutWithoutAConnection)
{
    int listen_fd = ipc::listenTcp(0);
    ASSERT_GE(listen_fd, 0);
    std::string addr;
    EXPECT_EQ(ipc::acceptPeer(listen_fd, 0, &addr), -1);
    EXPECT_EQ(ipc::acceptPeer(listen_fd, 20, &addr), -1);
    ::close(listen_fd);
}

TEST(NetTransport, TornWriteThenCloseIsEof)
{
    TcpPair p;
    // Half a frame then close: a worker SIGKILLed mid-send. The
    // reader must report Eof, never surface a partial frame.
    std::string wire = wireFrame("Mclaim-body");
    ASSERT_EQ(::write(p.client_fd, wire.data(), wire.size() / 2),
              static_cast<ssize_t>(wire.size() / 2));
    ::close(p.client_fd);
    p.client_fd = -1;

    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    EXPECT_EQ(chan.read(&f, 2000), ipc::ReadStatus::Eof);
}

TEST(NetTransport, CrcCorruptionOverTcpIsALoudIoError)
{
    TcpPair p;
    std::string wire = wireFrame("Lpayload", /*crc_xor=*/1);
    ASSERT_EQ(::write(p.client_fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));

    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    try {
        chan.read(&f, 2000);
        FAIL() << "CRC mismatch accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
    }
}

TEST(NetTransport, SlowWriterByteAtATimeStillAssemblesTheFrame)
{
    TcpPair p;
    // TCP segments frames arbitrarily; the channel must reassemble a
    // frame dribbled one byte per write (the pathological case).
    std::string wire = wireFrame("Rresult-bytes");
    std::thread writer([&] {
        for (char c : wire) {
            ASSERT_EQ(::write(p.client_fd, &c, 1), 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 5000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameResult);
    EXPECT_EQ(f.body, "result-bytes");
    writer.join();
}

TEST(NetTransport, MidFrameDisconnectIsEof)
{
    TcpPair p;
    std::string wire = wireFrame(std::string(1, ipc::kFrameLease) +
                                 std::string(4096, 'x'));
    // Send most of the frame, then hard-disconnect both directions —
    // the injected net.disconnect fault does exactly this.
    ASSERT_EQ(::write(p.client_fd, wire.data(), wire.size() - 7),
              static_cast<ssize_t>(wire.size() - 7));
    ::shutdown(p.client_fd, SHUT_RDWR);

    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    EXPECT_EQ(chan.read(&f, 2000), ipc::ReadStatus::Eof);
}

TEST(NetTransport, DrainReadIsNonBlocking)
{
    TcpPair p;
    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    // timeout 0 = drain what's queued, never block: the coordinator's
    // service loop polls every peer this way.
    EXPECT_EQ(chan.read(&f, 0), ipc::ReadStatus::Timeout);
    ipc::writeFrame(p.client_fd, ipc::kFrameRenew, "renew-body");
    // Allow the loopback delivery a moment, then drain.
    ipc::Frame g;
    ASSERT_EQ(chan.read(&g, 2000), ipc::ReadStatus::Ok);
    EXPECT_EQ(g.type, ipc::kFrameRenew);
    EXPECT_EQ(chan.read(&g, 0), ipc::ReadStatus::Timeout);
}

TEST(NetTransport, BufferShrinksOnceDrained)
{
    TcpPair p;
    // A frame bigger than the retain cap balloons the reassembly
    // buffer; draining it must give the memory back (a coordinator
    // holds one channel per worker for the whole sweep).
    std::string big(ipc::kBufRetainCapacity + (64 << 10), 'y');
    big[0] = ipc::kFrameResult;
    std::thread writer(
        [&] { ipc::writeFrame(p.client_fd, big[0], big.substr(1)); });
    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 10000), ipc::ReadStatus::Ok);
    writer.join();
    EXPECT_EQ(f.body.size(), big.size() - 1);
    EXPECT_LE(chan.bufferCapacity(), ipc::kBufRetainCapacity);
}

TEST(NetFault, SendFrameNetDropsAndDisconnectsDeterministically)
{
    // An always-on Io plan: draw 2 of every frame's fixed 3-draw
    // sequence (delay, drop, disconnect) fires, so every send reports
    // Dropped — without writing a byte.
    FaultPlan plan = parseFaultPlan("io:1.0,seed=7");
    faultinject::armNet(plan);
    TcpPair p;
    uint64_t cursor = 0;
    EXPECT_EQ(ipc::sendFrameNet(p.client_fd, ipc::kFrameClaim, "c",
                                ipc::netConnScope(1, 2), &cursor),
              ipc::SendStatus::Dropped);
    EXPECT_EQ(cursor, 3u); // the full draw sequence advanced
    faultinject::disarmNet();

    // Disarmed, the same call delivers.
    uint64_t cursor2 = 0;
    EXPECT_EQ(ipc::sendFrameNet(p.client_fd, ipc::kFrameClaim, "c",
                                ipc::netConnScope(1, 2), &cursor2),
              ipc::SendStatus::Ok);
    EXPECT_EQ(cursor2, 3u);
    ipc::FrameChannel chan(p.server_fd);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 2000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.body, "c");
}

TEST(NetFault, DrawIsAPureFunctionOfSiteScopeAndDraw)
{
    FaultPlan plan = parseFaultPlan("io:0.5,seed=42");
    faultinject::armNet(plan);
    // Same (site, kind, scope, draw) -> same verdict, every time:
    // fault schedules must not depend on thread interleaving.
    for (uint64_t draw = 0; draw < 64; ++draw) {
        bool first = faultinject::netSiteFires(
            "net.frame.drop", SimError::Kind::Io, 99, draw);
        for (int rep = 0; rep < 3; ++rep) {
            EXPECT_EQ(faultinject::netSiteFires("net.frame.drop",
                                                SimError::Kind::Io,
                                                99, draw),
                      first);
        }
    }
    // Distinct scopes see distinct schedules (sooner or later one
    // disagrees; 64 draws at rate 0.5 make a tie astronomically
    // unlikely).
    bool any_differ = false;
    for (uint64_t draw = 0; draw < 64 && !any_differ; ++draw) {
        any_differ =
            faultinject::netSiteFires("net.frame.drop",
                                      SimError::Kind::Io, 1, draw) !=
            faultinject::netSiteFires("net.frame.drop",
                                      SimError::Kind::Io, 2, draw);
    }
    EXPECT_TRUE(any_differ);
    faultinject::disarmNet();

    // Disarmed: nothing fires, no draws are consumed from anywhere.
    EXPECT_FALSE(faultinject::netSiteFires(
        "net.frame.drop", SimError::Kind::Io, 1, 0));
}

TEST(NetCodec, BlobRoundTripsBinaryPayloads)
{
    std::string body = "vanguard-lease v1\nlease 7\n";
    std::string payload("\x00\xff\n\nraw \x01 bytes", 15);
    ipc::appendBlob(&body, "job", payload);

    ipc::BodyCursor cur{body, 0};
    std::string line;
    ASSERT_TRUE(cur.line(&line));
    EXPECT_EQ(line, "vanguard-lease v1");
    ASSERT_TRUE(cur.line(&line));
    EXPECT_EQ(line, "lease 7");
    ASSERT_TRUE(cur.line(&line));
    // "blob <name> <len>" header, then exactly <len> raw bytes.
    ASSERT_EQ(line.rfind("blob job ", 0), 0u);
    size_t len = std::stoul(line.substr(9));
    EXPECT_EQ(len, payload.size());
    std::string raw;
    ASSERT_TRUE(cur.raw(len, &raw));
    EXPECT_EQ(raw, payload);
    EXPECT_FALSE(cur.line(&line)); // nothing after the blob
}

/** Connect to a coordinator on `port` and say hello as `pid` in
 *  fabric protocol `version` ("v3"). Returns the connected fd. */
int
helloPeer(uint16_t port, int pid, const std::string &version)
{
    std::string err;
    int fd = ipc::connectTcp("127.0.0.1", port, &err);
    EXPECT_GE(fd, 0) << err;
    ipc::writeFrame(fd, ipc::kFrameHello,
                    "vanguard-remote " + version + "\npid " +
                        std::to_string(pid) + "\n");
    return fd;
}

/** A hand-rolled remote worker: connects, says hello as `pid`, reads
 *  its CONFIG, claims, and returns the leased job with its lease id. */
struct FakeWorker
{
    int fd = -1;
    ipc::FrameChannel chan;

    FakeWorker(uint16_t port, int pid) : fd(helloPeer(port, pid, "v3"))
    {
        chan.reset(fd);
        EXPECT_EQ(next(ipc::kFrameConfig).type, ipc::kFrameConfig);
    }
    ~FakeWorker() { ::close(fd); }

    /** The next frame of `type` within 5 s, skipping heartbeats and
     *  acks (the last frame read when none comes). */
    ipc::Frame
    next(char type)
    {
        ipc::Frame f;
        auto end = std::chrono::steady_clock::now() +
                   std::chrono::seconds(5);
        while (chan.read(&f, 5000) == ipc::ReadStatus::Ok &&
               f.type != type && std::chrono::steady_clock::now() < end) {
        }
        return f;
    }

    WorkerJob
    claim(uint64_t *lease)
    {
        ipc::writeFrame(fd, ipc::kFrameClaim, "vanguard-claim v3\n");
        ipc::Frame f = next(ipc::kFrameLease);
        FabricBody body;
        WorkerJob job;
        std::string err;
        EXPECT_EQ(f.type, ipc::kFrameLease);
        EXPECT_TRUE(parseFabricBody(f.body, "lease", &body, &err) &&
                    parseWorkerJob(body.blobs["job"], &job, &err))
            << err;
        *lease = body.nums["lease"];
        return job;
    }

    void
    report(uint64_t lease, size_t slot, const std::string &profile)
    {
        WorkerResult r;
        r.ok = true;
        r.slot = slot;
        r.profileText = profile;
        std::string body =
            "vanguard-remoteresult v3\nlease " + std::to_string(lease) +
            "\n";
        ipc::appendBlob(&body, "result", serializeWorkerResult(r));
        ipc::writeFrame(fd, ipc::kFrameResult, body);
    }
};

/** A train job for `slot`, as the runner would offer it. */
WorkerJob
trainJob(size_t slot)
{
    WorkerJob job;
    job.phase = "train";
    job.slot = slot;
    job.spec = findBenchmark("gcc-like");
    job.specName = job.spec.name;
    return job;
}

TEST(NetFabric, ResultForAnotherSlotIsADesyncAndTheLeaseRequeues)
{
    Coordinator fabric(Coordinator::Options{});
    WorkerResult got;
    std::thread caller([&] { got = fabric.execute(trainJob(4)); });

    // A result naming slot 5 on the lease of slot 4 drops the peer...
    uint64_t lease = 0;
    {
        FakeWorker bad(fabric.port(), 1);
        EXPECT_EQ(bad.claim(&lease).slot, 4u);
        bad.report(lease, 5, "wrong");
        ipc::Frame f;
        EXPECT_EQ(bad.chan.read(&f, 5000), ipc::ReadStatus::Eof);
    }
    // ...and the job goes to the next claimant (the same worker,
    // reconnected), whose result counts.
    FakeWorker good(fabric.port(), 1);
    EXPECT_EQ(good.claim(&lease).slot, 4u);
    good.report(lease, 4, "right");
    caller.join();
    EXPECT_EQ(got.profileText, "right");
    fabric.shutdown();
    EXPECT_EQ(good.next(ipc::kFrameDrain).type, ipc::kFrameDrain);
}

TEST(NetFabric, HelloOfAnotherVersionGetsARefusalThenEof)
{
    Coordinator fabric(Coordinator::Options{});
    int fd = helloPeer(fabric.port(), 1, "v2");
    ipc::FrameChannel chan(fd);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 5000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameDrain);
    FabricBody refused;
    std::string err;
    ASSERT_TRUE(parseFabricBody(f.body, "refused", &refused, &err)) << err;
    // The reason names the version the peer spoke.
    EXPECT_NE(refused.blobs["reason"].find("'v2'"), std::string::npos)
        << refused.blobs["reason"];
    EXPECT_EQ(chan.read(&f, 5000), ipc::ReadStatus::Eof);
    ::close(fd);
    fabric.shutdown();
}

TEST(NetFabric, RefusedRemoteWorkerExitsOneWithoutReconnecting)
{
    int listen_fd = ipc::listenTcp(0);
    unsigned hellos = 0;
    std::thread refuser([&] {
        // Refuse the first connection; a worker that reconnected
        // anyway would show up as a second HELLO.
        auto end = std::chrono::steady_clock::now() +
                   std::chrono::seconds(1);
        while (std::chrono::steady_clock::now() < end) {
            int fd = ipc::acceptPeer(listen_fd, 100, nullptr);
            if (fd < 0)
                continue;
            ipc::FrameChannel chan(fd);
            ipc::Frame f;
            if (chan.read(&f, 5000) == ipc::ReadStatus::Ok &&
                f.type == ipc::kFrameHello && hellos++ == 0) {
                std::string body = "vanguard-refused v3\n";
                ipc::appendBlob(&body, "reason", "wrong fabric");
                ipc::writeFrame(fd, ipc::kFrameDrain, body);
            }
            ::close(fd);
        }
    });
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(runRemoteWorker("127.0.0.1", ipc::listenPort(listen_fd)),
              1);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(3));
    refuser.join();
    ::close(listen_fd);
    EXPECT_EQ(hellos, 1u);
}

TEST(NetFabric, PeerRowsReconcileWithDeliveredResults)
{
    MetricsRegistry reg;
    TelemetryServer::Options topts;
    topts.registry = &reg;
    TelemetryServer telemetry(topts);
    Coordinator::Options copts;
    copts.telemetry = &telemetry;
    Coordinator fabric(copts);

    constexpr size_t kJobs = 6;
    std::vector<std::thread> callers;
    for (size_t i = 0; i < kJobs; ++i) {
        callers.emplace_back([&fabric, i] {
            EXPECT_EQ(fabric.execute(trainJob(i)).profileText,
                      "p" + std::to_string(i));
        });
    }

    FakeWorker a(fabric.port(), 11);
    FakeWorker b(fabric.port(), 12);
    const std::string id_a = "11@127.0.0.1";
    const std::string id_b = "12@127.0.0.1";
    // b settles four jobs, a two; a's last lease is checked while held.
    std::map<std::string, uint64_t> delivered;
    const std::pair<FakeWorker *, std::string> order[kJobs] = {
        {&b, id_b}, {&a, id_a}, {&b, id_b},
        {&b, id_b}, {&b, id_b}, {&a, id_a}};
    for (size_t i = 0; i < kJobs; ++i) {
        auto &[worker, identity] = order[i];
        uint64_t lease = 0;
        WorkerJob job = worker->claim(&lease);
        if (i + 1 == kJobs) {
            FabricView held = telemetry.fabricView();
            ASSERT_EQ(held.leases.size(), 1u);
            EXPECT_EQ(held.leases[0].id, lease);
            EXPECT_EQ(held.leases[0].peer, identity);
            for (const PeerInfo &row : held.peers)
                EXPECT_EQ(row.lease, row.identity == identity ? lease : 0)
                    << row.identity;
        }
        worker->report(lease, job.slot, "p" + std::to_string(job.slot));
        // Settled before the next claim, so one lease is live at most.
        EXPECT_EQ(worker->next(ipc::kFrameResultAck).type,
                  ipc::kFrameResultAck);
        delivered[identity]++;
    }
    for (std::thread &t : callers)
        t.join();

    FabricView view = telemetry.fabricView();
    EXPECT_TRUE(view.leases.empty());
    ASSERT_EQ(view.peers.size(), 2u);
    uint64_t sum = 0;
    for (const PeerInfo &row : view.peers) {
        EXPECT_EQ(row.jobsDone, delivered[row.identity]) << row.identity;
        EXPECT_EQ(row.lease, 0u) << row.identity;
        sum += row.jobsDone;
    }
    EXPECT_EQ(sum, kJobs);
    EXPECT_EQ(delivered[id_a], 2u);
    EXPECT_EQ(delivered[id_b], 4u);

    // Both renderings carry the same rows.
    EXPECT_NE(progressJson(reg, view, 1.0)
                  .find("{\"identity\": \"12@127.0.0.1\", "
                        "\"jobs_done\": 4, \"lease\": 0}"),
              std::string::npos);
    ParsedProm prom = parsePrometheusText(metricsText(reg, view));
    ASSERT_TRUE(prom.ok) << prom.error;
    EXPECT_EQ(prom.samples.at(
                  "vanguard_peer_jobs_done{peer=\"11@127.0.0.1\"}"),
              2.0);
    fabric.shutdown();
}

TEST(NetFabric, ALateResultCountsForThePeerThatSentIt)
{
    MetricsRegistry reg;
    TelemetryServer::Options topts;
    topts.registry = &reg;
    TelemetryServer telemetry(topts);
    Coordinator::Options copts;
    copts.telemetry = &telemetry;
    copts.leaseMs = 100;
    Coordinator fabric(copts);
    std::thread caller([&] { fabric.execute(trainJob(0)); });

    // slow never renews, so its lease expires and the job is
    // re-granted to fast...
    FakeWorker slow(fabric.port(), 21);
    FakeWorker fast(fabric.port(), 22);
    uint64_t first = 0, second = 0;
    WorkerJob job = slow.claim(&first);
    fast.claim(&second);
    EXPECT_NE(second, first);
    // ...but slow's result lands first and settles the offer; fast's
    // byte-equal duplicate settles nothing.
    slow.report(first, job.slot, "same");
    EXPECT_EQ(slow.next(ipc::kFrameResultAck).type, ipc::kFrameResultAck);
    caller.join();
    fast.report(second, job.slot, "same");
    EXPECT_EQ(fast.next(ipc::kFrameResultAck).type, ipc::kFrameResultAck);

    FabricView view = telemetry.fabricView();
    EXPECT_TRUE(view.leases.empty());
    ASSERT_EQ(view.peers.size(), 1u);
    EXPECT_EQ(view.peers[0].identity, "21@127.0.0.1");
    EXPECT_EQ(view.peers[0].jobsDone, 1u);
    fabric.shutdown();
}

TEST(NetCodec, ConnScopeMixesBothOperands)
{
    EXPECT_NE(ipc::netConnScope(1, 0), ipc::netConnScope(2, 0));
    EXPECT_NE(ipc::netConnScope(1, 0), ipc::netConnScope(0, 1));
    EXPECT_EQ(ipc::netConnScope(3, 4), ipc::netConnScope(3, 4));
}

} // namespace
} // namespace vanguard
