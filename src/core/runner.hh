/**
 * @file
 * Parallel experiment engine: flattens a (benchmark x width x config
 * x REF-seed) sweep into independent jobs on a shared thread pool,
 * with per-job fault isolation.
 *
 * One job graph on one pool, three job kinds:
 *   1. train   — one job per benchmark (training is width-independent);
 *      it submits its benchmark's compile,
 *   2. compile — one job per benchmark: both configurations (compile
 *      output is width-independent too, so every width shares it);
 *      it submits its benchmark's simulate jobs,
 *   3. simulate — one job per (benchmark, config, seed), timing every
 *      width of the sweep in one fused pass (simulateConfigWidths:
 *      the functional, predictor and cache work runs once, the
 *      per-width timing once per width). Each job builds its own
 *      Memory and predictor, reads its benchmark's CompiledConfig
 *      strictly read-only, and fills one result slot per width,
 * then assembly — single-threaded, in index order, after the graph.
 *
 * Every job is keyed by its benchmark's position and the pool runs
 * the lowest key first, so a benchmark's compile and simulate jobs
 * overtake later trains: at most `jobs` benchmarks are between their
 * first train and their last simulate job at any moment. A
 * benchmark's programs are dropped after its last simulate job; only
 * what assembly reads (profile, selection, static counts, ALPBB, PHI)
 * stays.
 *
 * A sweep over B benchmarks runs B + B + 6B jobs (3 REF
 * seeds x 2 configs), whatever its number of widths.
 *
 * Fault isolation: every job runs under a try/catch that converts a
 * SimError (or any exception) into a JobFailure slot instead of
 * killing the sweep. Jobs downstream of a failure (compiles of a
 * failed train, simulations of a failed compile) are skipped without
 * generating their own records, so the failure list holds root causes
 * only, in deterministic job-index order. Transient kinds
 * (SimError::isTransient) are retried up to maxAttempts times —
 * deterministically, since each job is a pure function of its inputs.
 * The suite completes with partial results: failed seeds are dropped
 * from a benchmark's mean/best (SeedSummary::failedSeeds counts
 * them), fully-failed rows are excluded from suite geomeans.
 *
 * Failure replay: with a non-empty replayDir, each root-cause failure
 * writes a replay bundle (core/replay.hh) — the failed job's worker
 * frame — that `vanguard_cli --replay <bundle>` re-executes solo
 * through JobBodyRunner under the lockstep oracle.
 *
 * Determinism contract: jobs write into pre-sized slots keyed by job
 * index, never by completion order, and every job is a pure function
 * of its (spec, options, seed) inputs — so results are bit-identical
 * to the serial path at any worker count, including VANGUARD_JOBS=1,
 * and every non-failed slot of a partially-failed sweep is
 * bit-identical to the same slot of a clean run. Progress lines go to
 * stderr through a mutex-guarded, rate-limited reporter and are the
 * only nondeterministic output.
 *
 * A fused job fails as a whole: one lane's watchdog Hang fails every
 * width of that (benchmark, config, seed). The failure then names the
 * lane's width (JobIdentity::width and the replay bundle), so the
 * bundle replays solo on the machine that hung.
 *
 * Crash safety: with RunnerOptions::checkpointDir set, every
 * completed job appends a checksummed record to a `vanguard-journal
 * v3` ledger (core/journal.hh) — simulate records carry one full
 * SimStats per width, train records pair with an atomically-written
 * profile checkpoint, failures record their JobFailure. A later run with
 * `resume = true` validates the journal against the sweep spec and
 * replays completed slots without re-executing them, re-running only
 * missing/corrupt entries; because jobs are pure, the resumed report
 * is bit-identical to an uninterrupted run. Graceful shutdown
 * (support/shutdown.hh; SIGINT/SIGTERM in the CLI) drains the pool —
 * queued jobs are discarded, in-flight jobs finish and checkpoint —
 * and the report comes back with `interrupted` set.
 */

#ifndef VANGUARD_CORE_RUNNER_HH
#define VANGUARD_CORE_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "support/error.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace vanguard {

class Coordinator;
class TelemetryServer;

/** Which experiment job is (or was) running; attached to failures. */
struct JobIdentity
{
    const char *phase = "";     ///< "train" | "compile" | "simulate"
    std::string benchmark;
    /** 0 for jobs that span every width (train, compile, and fused
     *  simulate jobs of a multi-width sweep) — unless the job failed
     *  in one lane, which it then names. */
    unsigned width = 0;
    int config = -1;            ///< 0 baseline, 1 experimental, -1 n/a
    uint64_t seed = 0;          ///< 0 when not seed-specific
    size_t index = 0;           ///< job index within its phase

    std::string describe() const;
};

/** One failed job: identity plus the structured error it raised. */
struct JobFailure
{
    JobIdentity id;
    SimError::Kind kind = SimError::Kind::Internal;
    std::string message;        ///< SimError::detail (undecorated)
    unsigned attempts = 1;      ///< tries consumed (retries included)
    std::string bundlePath;     ///< replay bundle, "" if not written
};

/**
 * Where job bodies execute. `inproc` (the default) runs them on the
 * shared thread pool; `process` routes train and simulate bodies
 * through a supervised pool of worker processes (core/coordinator.hh)
 * so a SIGSEGV, OOM kill, or hang in one job cannot take down the
 * sweep. Every piece of bookkeeping stays in the supervisor, so sweep
 * output is byte-identical between the modes at any worker count.
 */
enum class JobIsolation
{
    inproc,
    process,
};

struct RunnerOptions
{
    /** Worker threads; 0 defers to VANGUARD_JOBS, then
     *  hardware_concurrency (ThreadPool::resolveWorkerCount). */
    unsigned jobs = 0;

    /** Job-body execution mode. */
    JobIsolation isolation = JobIsolation::inproc;

    /** Process mode: worker lease in ms (a worker that stops renewing
     *  for that long is SIGKILLed and its job fails with
     *  SimError(Hang)). */
    unsigned leaseMs = 10000;

    /** Process mode: RLIMIT_AS cap per worker in MiB (0 = none). */
    unsigned workerRlimitMb = 0;

    /**
     * Distributed mode: when set, train and simulate bodies are leased
     * to remote workers through this sweep coordinator
     * (core/coordinator.hh) instead of running in-process. All
     * bookkeeping (journal, metrics, result slots, retries) stays
     * local, so output is byte-identical to the in-process and
     * --isolate-jobs paths. Mutually exclusive with
     * JobIsolation::process. Not owned.
     */
    Coordinator *coordinator = nullptr;

    /** Per-benchmark mean/best summary lines on stderr. */
    bool verbose = false;

    /** Prefix for rate-limited progress lines ("" disables them). */
    std::string tag;

    /** Total tries per job for transient failure kinds (>= 1);
     *  non-transient kinds never retry. */
    unsigned maxAttempts = 2;

    /** Failures tolerated before SuiteReport::exceededThreshold()
     *  reports the sweep itself as failed. */
    size_t failureThreshold = 0;

    /** Directory for replay bundles ("" disables writing them). */
    std::string replayDir;

    /**
     * Directory for the crash-safety journal and TRAIN-profile
     * checkpoints ("" disables journaling). Created if missing.
     */
    std::string checkpointDir;

    /**
     * Resume from checkpointDir's journal: validate its spec
     * fingerprint against this sweep (SimError(Config) on mismatch),
     * replay completed slots, re-run only missing/corrupt ones.
     */
    bool resume = false;

    /**
     * Test-only fault injection: invoked at the top of every job
     * attempt with the job's identity; throwing from it fails the
     * attempt exactly as if the job body threw.
     */
    std::function<void(const JobIdentity &)> faultInjection;

    /**
     * Metrics sink: the engine registers/updates `engine.*` counters
     * and folds every job's snapshot in (per-job scopes named
     * `train.<bench>`, `compile.<bench>`, and one
     * `sim.<bench>.w<w>.<base|exp>.s<i>` per width of each fused
     * simulate job). Null runs the sweep
     * against a private throwaway registry — the merge-time
     * bit-identity assertion still fires either way.
     */
    MetricsRegistry *metrics = nullptr;

    /**
     * Event-trace sink: train/compile/simulate spans per job (with
     * benchmark/widths/config/seed/attempt args), retry/failure/
     * checkpoint instants, coarse per-phase spans, and — through the
     * ambient tracer — the compile passes (`compile.superblock`,
     * `.decompose`, `.schedule`, `.linearize`, `.decode`) and each
     * simulate job's `sim.memory` / `sim.timing` split. Null disables
     * tracing entirely (no overhead beyond a branch).
     */
    Tracer *tracer = nullptr;

    /**
     * Live telemetry endpoint (support/telemetry.hh): forwarded to
     * the spawned workers' coordinator, which installs its fabric
     * view there. Strictly observational — null or not, registry
     * dumps, journals, and stdout are byte-identical. Not owned.
     */
    TelemetryServer *telemetry = nullptr;
};

/** Everything a fault-tolerant sweep produced. */
struct SuiteReport
{
    /** One SuiteResult per width (partial where jobs failed). */
    std::vector<SuiteResult> results;

    /** Root-cause failures, in deterministic job-index order. */
    std::vector<JobFailure> failures;

    size_t totalJobs = 0;

    /** Jobs satisfied from the journal instead of re-executed. */
    size_t replayedJobs = 0;

    /**
     * A shutdown request drained the sweep before it finished;
     * `results` is empty (nothing was assembled) and, when
     * journaling, completed jobs are checkpointed for --resume.
     */
    bool interrupted = false;

    bool
    exceededThreshold(size_t threshold) const
    {
        return failures.size() > threshold;
    }
};

/**
 * Evaluate a suite at every requested width through one pool,
 * surviving and recording individual job failures. `widths` must hold
 * 1..kMaxSweepWidths values, each 1..kMaxWidthValue (core/journal.hh);
 * SimError(Config) otherwise.
 */
SuiteReport runSuiteWidthsReport(
    const std::vector<BenchmarkSpec> &suite,
    const std::vector<unsigned> &widths, const VanguardOptions &base,
    const RunnerOptions &ropts = {});

/**
 * Strict variant: identical results, but any job failure rethrows the
 * first root cause (annotated with its job identity) after the sweep
 * completes. Callers that want partial results use the Report form.
 */
std::vector<SuiteResult>
runSuiteWidths(const std::vector<BenchmarkSpec> &suite,
               const std::vector<unsigned> &widths,
               const VanguardOptions &base,
               const RunnerOptions &ropts = {});

/** Render the failure summary table ("" when no failures). */
std::string renderFailureTable(const std::vector<JobFailure> &failures);

} // namespace vanguard

#endif // VANGUARD_CORE_RUNNER_HH
