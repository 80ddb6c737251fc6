/**
 * @file
 * Process-isolated job execution: the job-body codecs, the per-process
 * body runner, and the worker-process spawner behind `--isolate-jobs`.
 *
 * The in-process pool (support/thread_pool.hh) can only contain
 * failures that unwind as C++ exceptions; a SIGSEGV, OOM kill, or
 * runaway allocation in one (benchmark × width × config × seed) job
 * takes the whole sweep down. Process isolation moves job *bodies*
 * into N long-lived worker processes — re-execs of `vanguard_cli
 * --worker <fd>` — while every piece of sweep bookkeeping (journal,
 * metrics merges, result slots, retry policy, failure tables) stays in
 * the supervisor. That split is what makes sweep output byte-identical
 * between isolation modes.
 *
 * Job bodies cross the boundary fully self-contained (complete
 * BenchmarkSpec, exact hexfloat-encoded options, and — for simulate
 * jobs — the serialized TRAIN profile), so workers never touch the
 * filesystem and any single job is replayable by construction. Train
 * jobs return the serialized profile (the supervisor re-derives
 * selection via trainFromProfile, proven bit-identical by the resume
 * path); simulate jobs return SimStats through the journal's
 * CRC-guarded record codec, the same bytes a resumed sweep replays.
 *
 * WorkerPool is only a spawner. It fork/execs the children over
 * socketpairs (with an optional RLIMIT_AS cap between fork and exec),
 * reaps them and names their fate ("died on signal 11 (Segmentation
 * fault)"), and drains them at shutdown: a final DRAIN frame, exactly
 * one SIGTERM each, a bounded reap, SIGKILL for stragglers — no zombie
 * outlives the pool. Everything else — leases, redelivery, poison
 * quarantine, restart backoff, the loss-storm breaker, STATS intake —
 * is the lease coordinator's (core/coordinator.hh), which takes each
 * child as an already-connected peer it owns. A lease that expires on
 * an owned peer is a hang: the child is SIGKILLed and the job fails as
 * SimError(Hang), mirroring the in-process watchdog taxonomy.
 *
 * POSIX-only (fork/exec/waitpid); WorkerPool::supported() gates it and
 * the CLI turns unsupported platforms into exit 2.
 */

#ifndef VANGUARD_CORE_WORKER_POOL_HH
#define VANGUARD_CORE_WORKER_POOL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/vanguard.hh"
#include "support/fault_inject.hh"
#include "support/metrics.hh"
#include "uarch/pipeline.hh"
#include "workloads/kernel.hh"

namespace vanguard {

class TelemetryHub;

/**
 * Exponential backoff schedule for a worker identity that keeps losing
 * work (respawn of an owned slot, re-grant to a remote peer, remote
 * reconnect). Pure function of the consecutive-failure count:
 * delayMs(0) = 0 (first try is free), then base, 2*base, 4*base, ...
 * clamped to cap.
 */
struct BackoffPolicy
{
    unsigned baseMs = 25;
    unsigned capMs = 1000;

    unsigned
    delayMs(unsigned consecutive_failures) const
    {
        if (consecutive_failures == 0)
            return 0;
        unsigned shift = consecutive_failures - 1;
        if (shift > 20)
            shift = 20;
        uint64_t d = static_cast<uint64_t>(baseMs) << shift;
        return d > capMs ? capMs : static_cast<unsigned>(d);
    }
};

/** Workers renew at a quarter of the lease: four missed renewals, not
 *  one scheduling hiccup, let a lease expire. */
inline unsigned
heartbeatIntervalMs(unsigned deadline_ms)
{
    unsigned interval = deadline_ms / 4;
    return interval == 0 ? 1 : interval;
}

/**
 * The scope key under which a worker draws the `worker.kill` site:
 * mixes the job scope with the delivery ordinal, so a job whose first
 * delivery killed its worker draws fresh on redelivery (a fault-plan
 * kill is a one-shot crash, not a poison job). Distinct from the job
 * scope itself so kill draws never perturb in-body draw sequences.
 */
inline uint64_t
workerKillScope(uint64_t job_scope, uint64_t delivery)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : {job_scope, delivery, uint64_t{0x6b696c6c}}) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** Per-job renew-suppression scope (see the worker.heartbeat site):
 *  a job draws once under this key at draw 0, so a plan either
 *  suppresses all of a job's renewals (guaranteed lease expiry) or
 *  none — a worker-count-independent pattern. */
inline uint64_t
workerHeartbeatScope(uint64_t job_scope)
{
    return workerKillScope(job_scope, uint64_t{0xb3a7});
}

/**
 * One job body shipped to a worker. Everything the worker needs is in
 * here; `spec.name` points into `specName` after parse (call
 * bindSpecName() after copying or assignment).
 */
struct WorkerJob
{
    std::string phase = "simulate"; ///< "train" | "simulate"
    size_t slot = 0;                ///< job index within its phase
    uint64_t scopeKey = 0;          ///< fault-injection scope key
    /** Draws the supervisor already consumed under scopeKey before
     *  dispatch (the job.attempt probe); the worker resumes there. */
    uint64_t scopeStartDraw = 1;
    uint64_t delivery = 0;          ///< stamped per lease grant

    BenchmarkSpec spec;
    std::string specName;           ///< owning storage for spec.name
    VanguardOptions options;

    int config = 1;                 ///< 0 base, 1 exp (simulate)
    /** Simulate: every width to time in one fused pass (at most
     *  kMaxSweepWidths, each 1..kMaxWidthValue; options.width is
     *  ignored). */
    std::vector<unsigned> widths;
    uint64_t seed = 0;              ///< REF seed (simulate)
    bool collectStalls = false;     ///< simulate: base-config stalls
    std::string profileText;        ///< simulate: serialized TRAIN profile

    void bindSpecName() { spec.name = specName.c_str(); }
};

/** What came back over the result frame. */
struct WorkerResult
{
    bool ok = false;
    size_t slot = 0;

    // ok payloads
    std::string profileText;        ///< train
    std::vector<unsigned> widths;   ///< simulate: the job's widths
    std::vector<SimStats> lanes;    ///< simulate: one per width

    // fail payload: rethrown by the supervisor verbatim, so journal
    // and failure-table bytes match the in-process pool.
    SimError::Kind kind = SimError::Kind::Internal;
    std::string message;

    /** Per-kind faults injected while the job body ran (folded into
     *  the supervisor's counters for gauge identity across modes). */
    uint64_t injected[FaultPlan::kNumKinds] = {};
};

/** Bucket bounds (ms, powers of two) for the engine.worker.job_rtt
 *  histogram — shared by the pool and the runner's unconditional
 *  registration so both isolation modes dump identical shapes. */
std::vector<uint64_t> workerRttBoundsMs();

/** Frame-body codecs (versioned text, exact numeric round-trips). */
std::string serializeWorkerJob(const WorkerJob &job);
bool parseWorkerJob(const std::string &body, WorkerJob *out,
                    std::string *error);
std::string serializeWorkerResult(const WorkerResult &res);
bool parseWorkerResult(const std::string &body, WorkerResult *out,
                       std::string *error);

/**
 * Per-process execution of one self-contained job body: the core of
 * the worker lease loop (core/coordinator.cc), spawned or remote. Owns the (spec × options × config ×
 * profile) compile cache so every REF seed of a group reuses one
 * artifact, re-enters the job's fault scope past the draws the
 * supervisor consumed, honors the deliberate-crash chaos hooks, and
 * reports per-kind injected-fault deltas in the result. Job failures
 * never throw — they come back as ok=false results carrying the
 * SimError kind/message verbatim, which is what keeps journal bytes
 * identical across execution modes. The job's spec.name must be bound
 * (parseWorkerJob binds it).
 */
class JobBodyRunner
{
  public:
    JobBodyRunner();
    ~JobBodyRunner();

    JobBodyRunner(const JobBodyRunner &) = delete;
    JobBodyRunner &operator=(const JobBodyRunner &) = delete;

    WorkerResult run(const WorkerJob &job);

    /**
     * Advisory running totals across every run() so far — the payload
     * of the live STATS frames. Readable from another thread (the
     * worker's renew thread) while a job runs; never part of any authoritative result.
     */
    struct BodyStats
    {
        uint64_t jobsDone = 0;
        uint64_t instsRetired = 0;  ///< dynamic insts of ok simulates
        uint64_t cacheHits = 0;     ///< compile-artifact cache hits
        uint64_t cacheMisses = 0;
    };
    BodyStats bodyStats() const;

  private:
    struct Cache;
    std::unique_ptr<Cache> cache_;
    std::atomic<uint64_t> jobsDone_{0};
    std::atomic<uint64_t> instsRetired_{0};
};

class Coordinator;

class WorkerPool
{
  public:
    struct Options
    {
        unsigned workers = 1;
        /** Binary to exec ("" = this executable, via /proc/self/exe);
         *  must understand `--worker <fd>`. */
        std::string execPath;
        /** Lease duration: a worker that goes this long without
         *  renewing is SIGKILLed and its job fails as a hang. */
        unsigned heartbeatTimeoutMs = 10000;
        unsigned rlimitMb = 0;          ///< RLIMIT_AS cap (0 = none)
        /** Registry for the engine.worker.* instruments (optional). */
        MetricsRegistry *metrics = nullptr;
        /** Live telemetry sink for worker STATS frames (optional;
         *  advisory only — never touches the registry merges). */
        TelemetryHub *telemetry = nullptr;
    };

    /** Does this build/platform carry fork/exec supervision? */
    static bool supported();

    /** Spawns every worker and returns once each has said hello. */
    explicit WorkerPool(const Options &opts);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** The lease coordinator that owns this pool's workers. */
    Coordinator &coordinator();

    /** coordinator().execute(job): blocking, thread-safe, returns
     *  only an ok result (see Coordinator::execute). */
    WorkerResult execute(WorkerJob job);

    /**
     * Graceful drain: DRAIN frame + exactly one SIGTERM per live
     * worker, bounded reap, SIGKILL stragglers. Idempotent; the
     * destructor calls it. No child of this pool survives it.
     */
    void shutdown();

    /** Live worker pids (test hooks: SIGSTOP/SIGKILL drills). */
    std::vector<int> workerPids() const;

    struct Stats
    {
        uint64_t heartbeatMisses = 0;
        uint64_t quarantinedJobs = 0;
    };
    Stats stats() const;

  private:
    struct Spawner;
    std::unique_ptr<Spawner> spawner_;
    std::unique_ptr<Coordinator> fabric_; ///< destroyed before spawner_
};

/**
 * Worker-process entry (the `--worker <fd>` mode of vanguard_cli and
 * of any test binary that embeds the pool): the lease loop of
 * runRemoteWorker (core/coordinator.hh) on an inherited socketpair,
 * minus reconnect — a final DRAIN or EOF means exit. Returns the
 * process exit code. Installs the shutdown latch so a process-group
 * SIGINT/SIGTERM finishes the in-flight job before exiting (the
 * supervisor owns drain policy).
 */
int runWorkerProcess(int fd);

} // namespace vanguard

#endif // VANGUARD_CORE_WORKER_POOL_HH
