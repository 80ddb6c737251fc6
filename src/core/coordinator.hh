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
 * One Coordinator, one constructor; Options::workers picks the peer
 * source:
 *   - workers == 0 (`--serve-sweep`): a TCP listener on `port`;
 *     `--remote-worker` processes connect, reconnect and come and go
 *     at will;
 *   - workers > 0 (`--isolate-jobs`): that many `--worker` children,
 *     fork/exec'd over socketpairs and adopted already connected. The
 *     coordinator *owns* such a peer's pid: it respawns a lost slot,
 *     and shutdown() reaps every child.
 *
 * Lease protocol (bodies are "vanguard-<kind> v3" text, a HEARTBEAT's
 * empty; see ipc.hh for the frame types):
 *
 *   worker                    coordinator
 *   ------                    -----------
 *   HELLO "vanguard-remote"->
 *                          <- CONFIG (lease-ms, fault plans)
 *                             [or: a DRAIN "vanguard-refused" naming
 *                              the reason, then EOF — another
 *                              version's HELLO, say]
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
 *                          <- DRAIN                        [shutdown]
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
 *       These registry counters are the only supervision tally.
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
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/worker_pool.hh"
#include "support/metrics.hh"

namespace vanguard {

class TelemetryServer;

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
        /** The peer source: > 0 spawns and owns that many `--worker`
         *  children; 0 listens on `port` for remote workers. */
        unsigned workers = 0;
        /** Spawned workers' binary ("" = this executable, via
         *  /proc/self/exe); must understand `--worker <fd>`. */
        std::string execPath;
        unsigned rlimitMb = 0;      ///< spawned workers' RLIMIT_AS (0 = none)
        uint16_t port = 0;          ///< listener; 0 = ephemeral (see port())
        /** Lease duration; workers renew every quarter of it. An
         *  expiry on a spawned worker is a hang, on a TCP peer a
         *  re-grant. */
        unsigned leaseMs = 10000;
        /** Registry for the engine.net.* / engine.worker.* counters
         *  (optional). */
        MetricsRegistry *metrics = nullptr;
        /** Live telemetry endpoint: the coordinator installs its
         *  fabric view (leases plus one row per peer identity, read
         *  from the offer table) as the /progress and /metrics peer
         *  source. Observational only (optional). */
        TelemetryServer *telemetry = nullptr;
    };

    /** Spawns every worker and returns once each has said hello
     *  (bounded), or binds the TCP listener — SimError(Io) if the
     *  port cannot be bound. Either way starts the service thread. */
    explicit Coordinator(const Options &opts);

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
     * peer a DRAIN frame, closes all sockets, joins the service
     * thread; then exactly one SIGTERM per live spawned child, a
     * bounded reap, SIGKILL for stragglers. No child outlives it.
     * Idempotent; the destructor calls it.
     */
    void shutdown();

    /** Live spawned-worker pids (test hooks: SIGSTOP/SIGKILL drills). */
    std::vector<int> workerPids() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * A lease-protocol frame body, parsed: the one reader of every fabric
 * frame, on both ends of the connection. Strict, like parseWorkerJob:
 * the header must be "vanguard-<kind> v3", and each of the kind's keys
 * and blobs must appear exactly once, each value one whole unsigned
 * token. A missing, repeated or unknown key, a bad value, a torn blob
 * or another version fails with an `*error` naming it.
 */
struct FabricBody
{
    std::map<std::string, uint64_t> nums;
    std::map<std::string, std::string> blobs;

    uint64_t num(const std::string &key) const { return nums.at(key); }
};

bool parseFabricBody(const std::string &body, const std::string &kind,
                     FabricBody *out, std::string *error);

/**
 * Remote-worker entry (`vanguard_cli --remote-worker host:port`):
 * claim/execute/report against a coordinator until a DRAIN frame or a
 * shutdown signal. Returns the process exit code (0 =
 * drained or signalled, 1 = refused by the coordinator, whose reason
 * it prints, or an unrecoverable local error). Connection loss is not
 * an error: the loop reconnects with jittered exponential backoff
 * indefinitely, surviving coordinator restarts.
 */
int runRemoteWorker(const std::string &host, uint16_t port);

} // namespace vanguard

#endif // VANGUARD_CORE_COORDINATOR_HH
