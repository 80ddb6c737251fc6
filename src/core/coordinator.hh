/**
 * @file
 * The job-execution fabric: a coordinator that leases self-contained
 * job bodies to worker peers, plus the worker-side claim/lease loop.
 *
 * Every remote job body — `--isolate-jobs` and `--serve-sweep` alike —
 * runs through this one lease table. The bodies are the WorkerJob /
 * WorkerResult codecs of core/worker_pool.hh, carried in the CRC-framed
 * protocol of support/ipc.hh. All sweep bookkeeping (journal, metric
 * merges, result slots, retry policy) stays in the coordinator's
 * process, which is why every mode is byte-identical to an in-process
 * run: the runner consumes the same slot-indexed results either way.
 *
 * Peers come from one of two sources:
 *   - a TCP listener (`--serve-sweep`): `--remote-worker` processes
 *     connect, reconnect and come and go at will;
 *   - a Spawner (`--isolate-jobs`, core/worker_pool.hh): N children
 *     forked over socketpairs and handed over already connected. The
 *     coordinator *owns* such a peer's pid.
 *
 * Lease protocol (all frame bodies versioned; see ipc.hh for types):
 *
 *   worker                    coordinator
 *   ------                    -----------
 *   HELLO "vanguard-remote"->
 *                          <- CONFIG (lease-ms, fault plans)
 *   CLAIM                  ->
 *                          <- LEASE (lease id, job body)   [or: idle
 *                                                           HEARTBEATs
 *                                                           while the
 *                                                           queue is
 *                                                           empty]
 *   RENEW (every lease/4)  ->
 *   RESULT (lease id, body)->
 *                          <- RESULT-ACK (lease id)
 *   ...claim again...
 *                          <- DRAIN (final)                [shutdown]
 *
 * Lease state machine (per offered job):
 *
 *   Queued --grant--> Leased --result--> Done
 *     ^                  |                 ^
 *     |   expiry/peer    |                 |  late/duplicate result:
 *     +---- loss --------+                 |  byte-compare against the
 *           (re-grant to a live peer;      |  recorded result; mismatch
 *            kQuarantineLosses consecutive |  is a loud
 *            losses fail the job)          +- SimError(Divergence)
 *
 * Delivery is at least once: an expired lease is re-granted even
 * though the original worker may still finish. The first result for
 * an offer is recorded; every later one must be bit-identical to it
 * or the sweep dies with SimError(Divergence). At-least-once delivery
 * plus an idempotent, slot-keyed ledger merge gives an exactly-once
 * effect, and the byte-compare proves it held.
 *
 * One supervision policy serves both peer sources: a peer identity
 * that loses work is given new work only after the BackoffPolicy
 * delay; a job that loses kQuarantineLosses consecutive leases fails
 * as poison (SimError(Internal)); kStormLosses consecutive losses with
 * no completion anywhere break the fabric. Exactly two rules key off
 * an owned pid:
 *   (a) a lease that expires on an owned peer is a hang (a socketpair
 *       cannot partition): the child is SIGKILLed and the job fails
 *       as SimError(Hang), where a TCP expiry re-grants;
 *   (b) owned peers bump engine.worker.* and TCP peers bump
 *       engine.net.*, so every mode dumps the same counter shapes.
 * SIGINT/SIGTERM (the process-wide shutdown latch) discards
 * queued-but-unleased offers — their execute() calls raise
 * JobDiscarded so the runner records nothing for them — while leased
 * offers run to completion and checkpoint.
 *
 * The worker loop (runRemoteWorker, runWorkerProcess) wraps
 * JobBodyRunner: it claims, renews its lease from a side thread while
 * the body runs, and retransmits unacknowledged results. Only the
 * remote worker reconnects (with jittered exponential backoff, across
 * coordinator restarts and injected partitions); a spawned worker
 * exits when its socketpair closes.
 */

#ifndef VANGUARD_CORE_COORDINATOR_HH
#define VANGUARD_CORE_COORDINATOR_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "core/worker_pool.hh"
#include "support/metrics.hh"

namespace vanguard {

/**
 * Raised by Coordinator::execute for offers discarded by a
 * SIGINT/SIGTERM drain before any worker leased them. Deliberately
 * not a SimError: a discarded job did not run and must leave no
 * journal record, no failure-table entry, no retry — exactly like a
 * queued thread-pool job discarded by the in-process drain.
 */
struct JobDiscarded : std::exception
{
    const char *
    what() const noexcept override
    {
        return "job discarded by shutdown drain before lease";
    }
};

class Coordinator
{
  public:
    struct Options
    {
        uint16_t port = 0;          ///< 0 = ephemeral (see port())
        unsigned leaseMs = 10000;   ///< lease duration / renew base
        /** Registry for the engine.net.* / engine.worker.* counters
         *  (optional). */
        MetricsRegistry *metrics = nullptr;
        /** Live telemetry sink: peer STATS frames feed it, and the
         *  coordinator registers its lease table as the hub's
         *  /progress source. Advisory only (optional). */
        TelemetryHub *telemetry = nullptr;
    };

    /**
     * The process side of owned peers (core/worker_pool.cc). Called
     * from the coordinator's constructor and service thread only.
     */
    class Spawner
    {
      public:
        virtual ~Spawner() = default;
        /** How many worker slots to keep populated. */
        virtual unsigned slots() const = 0;
        /** Start slot `slot`'s worker: returns its pid and sets *fd to
         *  the connected supervisor end. Throws SimError on failure. */
        virtual int spawn(unsigned slot, int *fd) = 0;
        /** Reap `pid` (SIGKILLing it first when `kill`) and describe
         *  its fate ("died on signal 11 (Segmentation fault)"). */
        virtual std::string retire(int pid, bool kill) = 0;
    };

    /** Binds the TCP listener and starts the service thread. Throws
     *  SimError(Io) if the port cannot be bound. */
    explicit Coordinator(const Options &opts);

    /** No listener: every peer is one of `spawner`'s children. Spawns
     *  them all and returns once each has said hello (bounded). */
    Coordinator(const Options &opts, Spawner &spawner);

    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** The bound port (resolves port 0 to the kernel's pick; 0 when
     *  there is no listener). */
    uint16_t port() const;

    /**
     * Run one job body on some worker peer (blocking; thread-safe;
     * called from runner pool threads). Returns only an ok result.
     * Worker-reported failures rethrow as SimError(kind, message)
     * verbatim; poison jobs throw SimError(Internal); a hang on an
     * owned peer throws SimError(Hang); a broken fabric (loss storm,
     * divergent duplicate) throws its reason from every call; a
     * shutdown drain throws JobDiscarded for offers no worker had
     * leased.
     */
    WorkerResult execute(WorkerJob job);

    /**
     * Drain and stop: discards queued offers, sends every connected
     * peer a final DRAIN frame, closes all sockets, joins the service
     * thread. Owned children are left for their spawner to reap.
     * Idempotent; the destructor calls it.
     */
    void shutdown();

    /** Supervision tallies (heartbeat misses, quarantined jobs). */
    WorkerPool::Stats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Remote-worker entry (`vanguard_cli --remote-worker host:port`):
 * claim/execute/report against a coordinator until a final DRAIN
 * frame or a shutdown signal. Returns the process exit code (0 =
 * drained or signalled, 1 = unrecoverable local error). Connection
 * loss is not an error: the loop reconnects with jittered exponential
 * backoff indefinitely, surviving coordinator restarts.
 */
int runRemoteWorker(const std::string &host, uint16_t port);

} // namespace vanguard

#endif // VANGUARD_CORE_COORDINATOR_HH
