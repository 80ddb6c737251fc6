#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/coordinator.hh"
#include "core/journal.hh"
#include "core/replay.hh"
#include "core/worker_pool.hh"
#include "profile/profile_io.hh"
#include "support/atomic_file.hh"
#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/progress.hh"
#include "support/shutdown.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace vanguard {

namespace {

/**
 * Deterministic fault-injection scope key for one job attempt: a pure
 * function of (phase, job index, attempt), never of thread identity
 * or scheduling, so an armed injector reproduces the same faults at
 * any worker count.
 */
uint64_t
jobScopeKey(const JobIdentity &id, unsigned attempt)
{
    uint64_t h = fnv1a64(id.phase, std::strlen(id.phase));
    h = (h ^ (id.index + 1)) * 0x100000001b3ull;
    h = (h ^ attempt) * 0x100000001b3ull;
    return h;
}

/**
 * Run one job body under fault isolation: any exception becomes a
 * JobFailure instead of escaping to the pool. Transient kinds retry
 * up to ropts.maxAttempts total tries — deterministically, because
 * every job is a pure function of its inputs. Retries tick the
 * engine.jobs.retries counter and emit a trace instant; final
 * failures emit one too, so the timeline shows where a sweep bled.
 * The body receives the 1-based attempt number so process-isolated
 * dispatch can rebuild the attempt's fault scope worker-side.
 */
std::optional<JobFailure>
runGuarded(const JobIdentity &id, const RunnerOptions &ropts,
           Tracer *tracer, Counter &retries,
           const std::function<void(unsigned)> &body)
{
    unsigned max_attempts = std::max(1u, ropts.maxAttempts);
    for (unsigned attempt = 1;; ++attempt) {
        try {
            faultinject::Scope attempt_scope(jobScopeKey(id, attempt));
            faultinject::site("job.attempt", SimError::Kind::Io);
            if (ropts.faultInjection)
                ropts.faultInjection(id);
            body(attempt);
            return std::nullopt;
        } catch (const JobDiscarded &) {
            // A shutdown drain discarded the offer before any worker
            // leased it: not a failure, not retryable — the caller
            // records nothing, exactly like a queued job the
            // in-process drain never dequeued.
            throw;
        } catch (const SimError &e) {
            if (SimError::isTransient(e.kind()) &&
                attempt < max_attempts) {
                retries.add();
                if (tracer != nullptr) {
                    tracer->instant(
                        "job.retry",
                        Tracer::args(
                            {{"job", id.describe()},
                             {"kind", SimError::kindName(e.kind())},
                             {"attempt",
                              std::to_string(attempt)}}));
                }
                continue;
            }
            JobFailure f;
            f.id = id;
            f.kind = e.kind();
            f.message = e.detail();
            f.attempts = attempt;
            if (tracer != nullptr) {
                tracer->instant(
                    "job.failure",
                    Tracer::args(
                        {{"job", id.describe()},
                         {"kind", SimError::kindName(f.kind)},
                         {"attempts", std::to_string(attempt)}}));
            }
            return f;
        } catch (const std::exception &e) {
            JobFailure f;
            f.id = id;
            f.kind = SimError::Kind::Internal;
            f.message = e.what();
            f.attempts = attempt;
            if (tracer != nullptr) {
                tracer->instant(
                    "job.failure",
                    Tracer::args(
                        {{"job", id.describe()},
                         {"kind", "Internal"},
                         {"attempts", std::to_string(attempt)}}));
            }
            return f;
        }
    }
}

/**
 * Flight-record a root-cause failure and, with a replay dir, write its
 * bundle (best effort): the job as a worker runs it, cut to the width
 * lane that failed. `job` builds that frame only when it is written.
 */
void
recordFailure(JobFailure &f, const RunnerOptions &ropts,
              const std::function<WorkerJob()> &job)
{
    // Every call is a freshly-executed root-cause failure (replayed
    // failures rematerialize from the journal without coming here),
    // which makes this the one chokepoint to flight-record it.
    flightRecord("error", "job.failed",
                 f.id.describe() + ": " +
                     std::string(SimError::kindName(f.kind)) + ": " +
                     f.message);
    if (ropts.replayDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(ropts.replayDir, ec);
    if (ec) {
        vg_warn("cannot create replay dir %s: %s",
                ropts.replayDir.c_str(), ec.message().c_str());
        return;
    }

    ReplayJob r;
    r.job = job();
    r.job.bindSpecName();
    if (f.id.width != 0)
        r.job.widths = {f.id.width};
    r.errorKind = SimError::kindName(f.kind);
    r.errorMessage = f.message;

    std::string name = f.id.benchmark + "-" + f.id.phase;
    if (f.id.width != 0)
        name += "-w" + std::to_string(f.id.width);
    if (f.id.config >= 0)
        name += f.id.config == 0 ? "-base" : "-exp";
    if (f.id.seed != 0)
        name += "-s" + hexU64(f.id.seed);
    std::string path = ropts.replayDir + "/" + name + ".vgr";

    try {
        writeFileAtomic(path, serializeReplayJob(r));
    } catch (const SimError &e) {
        vg_warn("cannot write replay bundle %s: %s", path.c_str(),
                e.detail().c_str());
        return;
    }
    f.bundlePath = path;
}

/** Where a job's outcome came from. */
enum class Source
{
    Fresh,      ///< executed now; journaled when checkpointing
    Journal,    ///< rematerialized from the resume journal, not re-run
    Rerun,      ///< journaled as done, re-executed (compile artifacts
                ///< must exist in memory); counts as replayed
};

/** Append one job kind's failures to the report in job-index order. */
void
collectPhase(std::vector<std::optional<JobFailure>> &slots,
             SuiteReport &report)
{
    for (auto &slot : slots) {
        if (slot.has_value())
            report.failures.push_back(std::move(*slot));
    }
}

/**
 * First start to last end of one job kind, in tracer time. Job kinds
 * overlap in the job graph, so the envelope is recorded after the
 * graph on a track of its own (Tracer::envelope).
 */
struct JobEnvelope
{
    std::mutex mutex;
    uint64_t first = UINT64_MAX;
    uint64_t last = 0;

    void
    widen(uint64_t begin_us, uint64_t end_us)
    {
        std::lock_guard<std::mutex> lock(mutex);
        first = std::min(first, begin_us);
        last = std::max(last, end_us);
    }

    void
    record(Tracer *tracer, const char *name) const
    {
        if (tracer != nullptr && first != UINT64_MAX)
            tracer->envelope(name, first, last);
    }
};

/**
 * Per-sweep checkpoint state: the journal writer plus, on resume, the
 * prior journal's contents. Lives behind a unique_ptr; null when
 * RunnerOptions::checkpointDir is empty.
 */
struct Checkpoint
{
    std::string dir;
    JournalContents prior;  ///< empty maps on a fresh sweep
    JournalWriter writer;
    std::atomic<size_t> replayed{0};
    Tracer *tracer = nullptr;

    std::string
    trainProfilePath(const std::string &benchmark) const
    {
        return dir + "/train-" + benchmark + ".vgp";
    }

    void
    countReplay()
    {
        replayed.fetch_add(1, std::memory_order_relaxed);
    }

    /** Best-effort durable append: an Io failure (disk full, injected
     *  fault) only means this record re-runs on resume — it must
     *  never fail the sweep itself. */
    void
    append(const JournalRecord &rec)
    {
        try {
            writer.append(rec);
            if (tracer != nullptr) {
                tracer->instant(
                    "journal.checkpoint",
                    Tracer::args(
                        {{"phase", std::string(1, rec.phase)},
                         {"index", std::to_string(rec.index)},
                         {"ok", rec.ok ? "true" : "false"}}));
            }
        } catch (const SimError &e) {
            vg_warn("journal append failed (%s); %c %zu is not "
                    "durable and will re-run on resume",
                    e.detail().c_str(), rec.phase, rec.index);
        }
    }
};

JobFailure
failureFromRecord(const JobIdentity &id, const JournalRecord &rec)
{
    JobFailure f;
    f.id = id;
    f.kind = rec.kind;
    f.message = rec.message;
    f.attempts = rec.attempts;
    f.bundlePath = rec.bundlePath;
    return f;
}

JournalRecord
recordFromFailure(char phase, size_t index, const JobFailure &f)
{
    JournalRecord rec;
    rec.phase = phase;
    rec.index = index;
    rec.ok = false;
    rec.kind = f.kind;
    rec.attempts = f.attempts;
    rec.message = f.message;
    rec.bundlePath = f.bundlePath;
    return rec;
}

/**
 * Build the checkpoint state for this sweep, or null when journaling
 * is off. Fresh sweeps write a new journal header (warning if one is
 * being overwritten); resume validates the existing journal's spec
 * fingerprint and refuses with SimError(Config) when the journal is
 * missing, headerless, or belongs to a different sweep.
 */
std::unique_ptr<Checkpoint>
openCheckpoint(const RunnerOptions &ropts,
               const std::vector<BenchmarkSpec> &suite,
               const std::vector<unsigned> &widths,
               const VanguardOptions &base, size_t total_jobs)
{
    if (ropts.checkpointDir.empty())
        return nullptr;
    auto ckpt = std::make_unique<Checkpoint>();
    ckpt->dir = ropts.checkpointDir;
    std::error_code ec;
    std::filesystem::create_directories(ckpt->dir, ec);
    if (ec) {
        vg_throw(Io, "cannot create checkpoint dir %s: %s",
                 ckpt->dir.c_str(), ec.message().c_str());
    }
    std::string path = ckpt->dir + "/journal.vgj";
    std::string hash = sweepSpecHash(suite, widths, base);
    if (ropts.resume) {
        JournalContents prior = loadJournalFile(path);
        if (!prior.ok) {
            vg_throw(Config, "cannot resume from %s: %s",
                     path.c_str(), prior.error.c_str());
        }
        if (prior.version != kJournalVersion) {
            vg_throw(Config,
                     "cannot resume from %s: it is a v%u journal, whose "
                     "job layout this v%u engine does not replay; "
                     "re-run the sweep without --resume",
                     path.c_str(), prior.version, kJournalVersion);
        }
        if (prior.specHash != hash) {
            vg_throw(Config,
                     "journal %s was written by a different sweep "
                     "(spec %s, this sweep is %s); refusing to mix "
                     "checkpoints across sweeps",
                     path.c_str(), prior.specHash.c_str(),
                     hash.c_str());
        }
        ckpt->prior = std::move(prior);
        ckpt->writer.openAppend(path);
    } else {
        if (std::filesystem::exists(path, ec)) {
            vg_warn("overwriting existing journal %s "
                    "(pass --resume to continue it instead)",
                    path.c_str());
        }
        ckpt->writer.create(path, hash, total_jobs);
    }
    return ckpt;
}

} // namespace

std::string
JobIdentity::describe() const
{
    std::string out = benchmark;
    if (width != 0)
        out += " w" + std::to_string(width);
    if (config >= 0)
        out += config == 0 ? " base" : " exp";
    if (seed != 0)
        out += " seed " + hexU64(seed);
    out += " (";
    out += phase;
    out += ")";
    return out;
}

SuiteReport
runSuiteWidthsReport(const std::vector<BenchmarkSpec> &suite,
                     const std::vector<unsigned> &widths,
                     const VanguardOptions &base,
                     const RunnerOptions &ropts)
{
    const size_t B = suite.size();
    const size_t W = widths.size();
    const size_t S = kNumRefSeeds;

    if (W == 0 || W > kMaxSweepWidths)
        vg_throw(Config, "a sweep takes 1..%zu widths, got %zu",
                 kMaxSweepWidths, W);
    for (unsigned w : widths) {
        if (w == 0 || w > kMaxWidthValue)
            vg_throw(Config, "width %u is outside 1..%u", w,
                     kMaxWidthValue);
    }
    // Compile and simulate jobs run at every width at once; options
    // carry the first so a width-free failure still names a machine.
    VanguardOptions lead = base;
    lead.width = widths[0];

    SuiteReport report;
    report.totalJobs = B + B + B * S * 2;

    // Metrics + tracing sinks. A null RunnerOptions::metrics still
    // runs against a private registry so the merge-time bit-identity
    // assertion protects every sweep, not just instrumented ones.
    MetricsRegistry local_registry;
    MetricsRegistry &reg =
        ropts.metrics != nullptr ? *ropts.metrics : local_registry;
    Tracer *tracer = ropts.tracer;

    Counter &jobs_total = reg.counter("engine.jobs.total");
    Counter &jobs_completed = reg.counter("engine.jobs.completed");
    Counter &jobs_failed = reg.counter("engine.jobs.failed");
    Counter &jobs_skipped = reg.counter("engine.jobs.skipped");
    Counter &jobs_retries = reg.counter("engine.jobs.retries");
    Counter &jobs_replayed = reg.counter("engine.jobs.replayed");
    Counter &train_done = reg.counter("engine.phase.train.completed");
    Counter &train_failed = reg.counter("engine.phase.train.failed");
    Counter &compile_done =
        reg.counter("engine.phase.compile.completed");
    Counter &compile_failed =
        reg.counter("engine.phase.compile.failed");
    Counter &sim_done = reg.counter("engine.phase.simulate.completed");
    Counter &sim_failed = reg.counter("engine.phase.simulate.failed");
    // Per-simulation cycle counts: deterministic observations into
    // fixed power-of-two buckets, so the histogram (and its
    // percentiles) is worker-count independent.
    std::vector<uint64_t> cycle_bounds;
    for (unsigned shift = 10; shift <= 30; shift += 2)
        cycle_bounds.push_back(uint64_t{1} << shift);
    Histogram &sim_cycles =
        reg.histogram("engine.sim.cycles", cycle_bounds);
    // Worker-supervision instruments exist in BOTH isolation modes
    // (all-zero under inproc) so registry dumps differ between modes
    // only in values that are genuinely wall-clock (job_rtt) — never
    // in shape. job_rtt is the one deliberate carve-out from the
    // cross-mode identity contract.
    reg.counter("engine.worker.restarts");
    reg.counter("engine.worker.heartbeat_misses");
    reg.counter("engine.worker.quarantined_jobs");
    reg.counter("engine.worker.frames");
    reg.histogram("engine.worker.job_rtt", workerRttBoundsMs());
    // Sweep-fabric instruments follow the same rule: registered in
    // every mode (all-zero without --serve-sweep) so dump shape is
    // identical between local, process-isolated, and distributed runs.
    reg.counter("engine.net.leases_granted");
    reg.counter("engine.net.leases_expired");
    reg.counter("engine.net.leases_regranted");
    reg.counter("engine.net.reconnects");
    reg.counter("engine.net.duplicate_results");
    reg.counter("engine.net.frames");
    jobs_total.add(report.totalJobs);

    std::unique_ptr<Checkpoint> ckpt =
        openCheckpoint(ropts, suite, widths, base, report.totalJobs);
    if (ckpt != nullptr)
        ckpt->tracer = tracer;
    auto stampReplayed = [&report, &ckpt] {
        if (ckpt != nullptr)
            report.replayedJobs =
                ckpt->replayed.load(std::memory_order_relaxed);
    };
    auto stampFaultGauges = [&reg] {
        for (size_t k = 0; k < FaultPlan::kNumKinds; ++k) {
            auto kind = static_cast<SimError::Kind>(k);
            std::string key = sanitizeMetricKey(
                SimError::kindName(kind));
            for (char &c : key)
                c = static_cast<char>(std::tolower(
                    static_cast<unsigned char>(c)));
            reg.gauge("engine.faults.injected." + key)
                .set(static_cast<double>(
                    faultinject::injectedCount(kind)));
        }
    };

    // Remote job bodies: train and simulate bodies are serialized into
    // WorkerJobs and leased out by one coordinator — over TCP
    // (--serve-sweep) or to this process's own spawned workers
    // (--isolate-jobs); compile and all bookkeeping stay here. The
    // spawning coordinator is declared before the thread pool so
    // destruction joins the job threads first, then drains the workers
    // (DRAIN + one SIGTERM each, bounded reap — no zombies).
    Coordinator *fabric = ropts.coordinator;
    std::unique_ptr<Coordinator> spawned;
    if (ropts.isolation == JobIsolation::process) {
        if (fabric != nullptr)
            vg_throw(Config,
                     "--serve-sweep and --isolate-jobs are mutually "
                     "exclusive: pick one remote-body transport");
        Coordinator::Options co;
        co.workers = ThreadPool::resolveWorkerCount(ropts.jobs);
        co.leaseMs = ropts.leaseMs;
        co.rlimitMb = ropts.workerRlimitMb;
        co.metrics = &reg;
        co.telemetry = ropts.telemetry;
        spawned = std::make_unique<Coordinator>(co);
        fabric = spawned.get();
    }

    // The sweep is one job graph on one pool: train(b) submits
    // compile(b), and compile(b) submits b's 2·S simulate jobs; a
    // failed train or compile submits nothing and counts its
    // dependents skipped. Every job is keyed by its benchmark's
    // position and the pool runs the lowest key first, so a
    // benchmark's compile and simulate jobs overtake later trains and
    // at most `jobs` benchmarks hold compiled programs at once.
    // Each benchmark drops its programs after its last simulate job
    // (releasePrograms), keeping only what assembly reads. Failures
    // are collected after the graph, per job kind in job-index order,
    // so the report does not depend on the interleaving.

    // Job identities and bodies. Each train and simulate job is built
    // in one place, as the WorkerJob a worker runs: the fabric
    // dispatches it and a failure's replay bundle holds it. Only
    // dispatch stamps scopeStartDraw and delivery, so a bundle's bytes
    // do not depend on the execution mode.
    auto trainId = [&](size_t b) {
        JobIdentity id;
        id.phase = "train";
        id.benchmark = suite[b].name;
        id.index = b;
        return id;
    };
    auto simId = [&](size_t i) {
        JobIdentity id;
        id.phase = "simulate";
        id.benchmark = suite[i / (2 * S)].name;
        id.width = W == 1 ? widths[0] : 0;
        id.config = static_cast<int>(i % 2);
        id.seed = kRefSeeds[(i / 2) % S];
        id.index = i;
        return id;
    };
    auto trainJobBody = [&](size_t b, unsigned attempt) {
        WorkerJob wj;
        wj.phase = "train";
        wj.slot = b;
        wj.scopeKey = jobScopeKey(trainId(b), attempt);
        wj.spec = suite[b];
        wj.specName = suite[b].name;
        wj.options = base;
        return wj;
    };
    auto simJobBody = [&](size_t i, unsigned attempt,
                          std::string profile) {
        JobIdentity id = simId(i);
        size_t b = i / (2 * S);
        WorkerJob wj;
        wj.phase = "simulate";
        wj.slot = i;
        wj.scopeKey = jobScopeKey(id, attempt);
        wj.spec = suite[b];
        wj.specName = suite[b].name;
        wj.options = lead;
        wj.config = id.config;
        wj.widths = widths;
        wj.seed = id.seed;
        wj.collectStalls = id.config == 0;
        wj.profileText = std::move(profile);
        return wj;
    };

    // Every job outcome settles in one place: fresh ok, fresh failure,
    // replayed ok, replayed failure. A job kind parameterises it with
    // its journal tag, its phase counters, what an ok job merges into
    // the registry and journals, and the frame a failure's replay
    // bundle holds.
    ProgressReporter progress(ropts.tag, reg);
    struct JobKind
    {
        char tag;                   ///< journal record phase
        Counter &completed;         ///< engine.phase.<kind>.completed
        Counter &failed;            ///< engine.phase.<kind>.failed
        std::function<void(size_t)> merge;
        /** Fill an ok journal record (and write what it points at). */
        std::function<void(size_t, JournalRecord &)> journalOk;
        /** The frame a failure's replay bundle holds (index, tries). */
        std::function<WorkerJob(size_t, unsigned)> bundle;
    };
    auto settle = [&](const JobKind &kind, const JobIdentity &id,
                      std::optional<JobFailure> &fail, Source src) {
        if (src != Source::Fresh) {
            ckpt->countReplay();
            jobs_replayed.add();
        }
        if (fail.has_value()) {
            if (src != Source::Journal) {
                recordFailure(*fail, ropts, [&] {
                    return kind.bundle(id.index, fail->attempts);
                });
            }
            jobs_failed.add();
            kind.failed.add();
        } else {
            jobs_completed.add();
            kind.completed.add();
            kind.merge(id.index);
            if (src == Source::Journal && tracer != nullptr) {
                tracer->instant("job.replayed",
                                Tracer::args({{"job", id.describe()}}));
            }
        }
        if (src == Source::Fresh && ckpt != nullptr) {
            if (fail.has_value()) {
                ckpt->append(recordFromFailure(kind.tag, id.index, *fail));
            } else {
                JournalRecord rec;
                rec.phase = kind.tag;
                rec.index = id.index;
                rec.ok = true;
                kind.journalOk(id.index, rec);
                ckpt->append(rec);
            }
        }
        progress.tick();
    };

    // Train: one job per benchmark (width-independent). With a
    // journal, a completed slot replays: failures rematerialize, ok
    // records reload the checkpointed TRAIN profile (falling back to
    // retraining — and re-journaling — if the profile file rotted).
    std::vector<TrainArtifacts> trains(B);
    std::vector<std::optional<JobFailure>> train_fail(B);
    auto mergeTrain = [&](size_t b) {
        MetricSnapshot snap;
        const BranchProfile &p = trains[b].profile;
        snap.add("profile.dynamicInsts", p.totalDynamicInsts);
        snap.add("profile.dynamicBranches", p.totalDynamicBranches);
        snap.add("profile.mispredicts", p.totalMispredicts);
        snap.add("compiler.selectedBranches",
                 trains[b].selected.size());
        reg.mergeJobSnapshot("train." + std::string(suite[b].name),
                             snap);
    };
    const JobKind train_kind{
        'T', train_done, train_failed, mergeTrain,
        [&](size_t b, JournalRecord &) {
            try {
                writeFileAtomic(ckpt->trainProfilePath(suite[b].name),
                                serializeProfile(trains[b].profile));
            } catch (const SimError &e) {
                vg_warn("cannot checkpoint TRAIN profile for %s (%s); "
                        "resume will retrain",
                        suite[b].name, e.detail().c_str());
            }
        },
        trainJobBody};
    // Returns false when a drain discarded the job before it settled
    // (no result, no failure, no journal record).
    auto runTrain = [&](size_t b) -> bool {
        ScopedCurrentTracer ambient(tracer);
        JobIdentity id = trainId(b);
        faultinject::Scope job_scope(jobScopeKey(id, 0));
        Source src = Source::Fresh;
        if (ckpt != nullptr) {
            auto it = ckpt->prior.train.find(b);
            if (it != ckpt->prior.train.end() && !it->second.ok) {
                train_fail[b] = failureFromRecord(id, it->second);
                src = Source::Journal;
            } else if (it != ckpt->prior.train.end()) {
                std::string path = ckpt->trainProfilePath(suite[b].name);
                std::ifstream in(path);
                std::stringstream buf;
                if (in)
                    buf << in.rdbuf();
                ProfileParseResult parsed = deserializeProfile(buf.str());
                if (in && parsed.ok) {
                    trains[b] = trainFromProfile(
                        suite[b], std::move(parsed.profile), base);
                    src = Source::Journal;
                } else {
                    vg_warn("checkpointed profile %s is unreadable; "
                            "retraining %s", path.c_str(), suite[b].name);
                }
            }
        }
        if (src == Source::Fresh) {
            TraceSpan span(
                tracer, "train",
                tracer == nullptr
                    ? std::string()
                    : Tracer::args({{"benchmark", suite[b].name},
                                    {"index", std::to_string(b)}}));
            try {
                train_fail[b] = runGuarded(
                    id, ropts, tracer, jobs_retries,
                    [&](unsigned attempt) {
                        if (fabric == nullptr) {
                            trains[b] = trainBenchmark(suite[b], base);
                            return;
                        }
                        // Worker-side profiling; selection re-derives
                        // here via trainFromProfile, bit-identical to
                        // trainBenchmark (same guarantee the resume
                        // path relies on).
                        WorkerJob wj = trainJobBody(b, attempt);
                        wj.scopeStartDraw =
                            faultinject::currentDrawCount();
                        WorkerResult res =
                            fabric->execute(std::move(wj));
                        ProfileParseResult parsed =
                            deserializeProfile(res.profileText);
                        if (!parsed.ok) {
                            vg_throw(Io,
                                     "worker returned an unreadable "
                                     "TRAIN profile for %s: %s",
                                     suite[b].name,
                                     parsed.error.c_str());
                        }
                        trains[b] = trainFromProfile(
                            suite[b], std::move(parsed.profile), base);
                    });
            } catch (const JobDiscarded &) {
                // Drained before any worker leased it: leave no
                // result, no failure, no journal record — the
                // post-graph shutdownRequested() check reports the
                // sweep interrupted.
                return false;
            }
        }
        settle(train_kind, id, train_fail[b], src);
        return true;
    };

    // Compile: one job per benchmark — compile output does not depend
    // on the width, so every width shares it. Journal records here
    // are completion markers — artifacts must exist in memory anyway,
    // so a marked slot recompiles (pure and cheap) without
    // re-recording.
    std::vector<BenchmarkArtifacts> arts(B);
    std::vector<std::optional<JobFailure>> compile_fail(B);
    auto mergeCompile = [&](size_t b) {
        MetricSnapshot snap;
        snap.add("compiler.staticInsts.base", arts[b].base.staticInsts);
        snap.add("compiler.staticInsts.exp", arts[b].exp.staticInsts);
        snap.add("compiler.selectedBranches",
                 arts[b].train.selected.size());
        reg.mergeJobSnapshot("compile." + std::string(suite[b].name),
                             snap);
    };
    // Compile runs only here, so its bundle is the experimental
    // simulate job at the first REF seed: replaying it compiles first,
    // and compile raises before any simulation.
    const JobKind compile_kind{
        'C', compile_done, compile_failed, mergeCompile,
        [](size_t, JournalRecord &) {},
        [&](size_t b, unsigned attempts) {
            return simJobBody(b * 2 * S + 1, attempts,
                              serializeProfile(trains[b].profile));
        }};
    auto runCompile = [&](size_t b) {
        ScopedCurrentTracer ambient(tracer);
        JobIdentity id;
        id.phase = "compile";
        id.benchmark = suite[b].name;
        id.index = b;
        faultinject::Scope job_scope(jobScopeKey(id, 0));
        Source src = Source::Fresh;
        if (ckpt != nullptr) {
            auto it = ckpt->prior.compile.find(b);
            if (it != ckpt->prior.compile.end() && !it->second.ok) {
                compile_fail[b] = failureFromRecord(id, it->second);
                src = Source::Journal;
            } else if (it != ckpt->prior.compile.end()) {
                src = Source::Rerun;
            }
        }
        if (src != Source::Journal) {
            TraceSpan span(
                tracer, "compile",
                tracer == nullptr
                    ? std::string()
                    : Tracer::args({{"benchmark", suite[b].name},
                                    {"index", std::to_string(b)}}));
            // Compile stays supervisor-local in both isolation modes:
            // artifacts must live in this process anyway.
            compile_fail[b] = runGuarded(
                id, ropts, tracer, jobs_retries, [&](unsigned) {
                    arts[b] = compileBenchmark(suite[b], trains[b], lead);
                });
        }
        settle(compile_kind, id, compile_fail[b], src);
    };

    // Simulate: one job per (benchmark, config, seed), each its own
    // pool work item so a shutdown drain stops between seeds. A job
    // times every width in one fused pass (simulateConfigWidths) and
    // fills one result slot per width. Job index: (b*S + s)*2 + cfg
    // with cfg 0 = baseline (collecting per-branch stalls, as the
    // serial path does) and cfg 1 = experimental; result slot of width
    // w: ((b*W + w)*S + s)*2 + cfg.
    const size_t num_sim_jobs = B * S * 2;
    std::vector<SimStats> sims(B * W * S * 2);
    std::vector<std::optional<JobFailure>> sim_fail(num_sim_jobs);
    auto simSlot = [&](size_t b, size_t w, size_t s, size_t cfg) {
        return ((b * W + w) * S + s) * 2 + cfg;
    };
    auto mergeSim = [&](size_t b, size_t cfg, size_t s) {
        for (size_t w = 0; w < W; ++w) {
            const SimStats &st = sims[simSlot(b, w, s, cfg)];
            reg.mergeJobSnapshot(
                "sim." + std::string(suite[b].name) + ".w" +
                    std::to_string(widths[w]) +
                    (cfg == 0 ? ".base" : ".exp") + ".s" +
                    std::to_string(s),
                simStatsSnapshot(st));
            sim_cycles.observe(st.cycles);
        }
    };
    auto storeLanes = [&](size_t b, size_t cfg, size_t s,
                          std::vector<SimStats> lanes) {
        if (lanes.size() != W)
            vg_throw(Io, "simulate job returned %zu stat lanes for %zu "
                         "widths", lanes.size(), W);
        for (size_t w = 0; w < W; ++w)
            sims[simSlot(b, w, s, cfg)] = std::move(lanes[w]);
    };
    // A fused job that fails in one lane names that lane's width (the
    // watchdog messages start "width N: "), so the failure table and
    // the replay bundle point at the machine that actually hung.
    auto nameFailedLane = [&](JobFailure &f) {
        unsigned w = 0;
        if (std::sscanf(f.message.c_str(), "width %u:", &w) == 1 &&
            std::find(widths.begin(), widths.end(), w) != widths.end())
            f.id.width = w;
    };
    std::string width_list;
    for (unsigned w : widths)
        width_list += (width_list.empty() ? "" : ",") +
                      std::to_string(w);
    // Remote bodies (process or distributed mode) ship each simulate
    // job its benchmark's serialized TRAIN profile (jobs must be
    // self-contained); compile(b) serializes it once.
    std::vector<std::string> profile_text(B);
    const JobKind sim_kind{
        'S', sim_done, sim_failed,
        [&](size_t i) { mergeSim(i / (2 * S), i % 2, (i / 2) % S); },
        [&](size_t i, JournalRecord &rec) {
            rec.widths = widths;
            for (size_t w = 0; w < W; ++w)
                rec.lanes.push_back(
                    sims[simSlot(i / (2 * S), w, (i / 2) % S, i % 2)]);
        },
        [&](size_t i, unsigned attempts) {
            return simJobBody(
                i, attempts,
                serializeProfile(arts[i / (2 * S)].train.profile));
        }};
    auto runSim = [&](size_t i) {
        size_t cfg = i % 2;
        size_t s = (i / 2) % S;
        size_t b = i / (2 * S);
        ScopedCurrentTracer ambient(tracer);
        const BenchmarkSpec &spec = suite[b];
        const CompiledConfig &config =
            cfg == 0 ? arts[b].base : arts[b].exp;
        JobIdentity id = simId(i);
        faultinject::Scope job_scope(jobScopeKey(id, 0));

        // Journal replay satisfies the job without re-executing (or
        // re-journaling) it.
        Source src = Source::Fresh;
        if (ckpt != nullptr) {
            auto it = ckpt->prior.sim.find(i);
            if (it != ckpt->prior.sim.end() &&
                (!it->second.ok || it->second.widths == widths)) {
                src = Source::Journal;
                if (!it->second.ok)
                    sim_fail[i] = failureFromRecord(id, it->second);
                else
                    storeLanes(b, cfg, s, it->second.lanes);
            }
        }
        if (src == Source::Fresh) {
            try {
                TraceSpan span(
                    tracer, "simulate",
                    tracer == nullptr
                        ? std::string()
                        : Tracer::args(
                              {{"benchmark", spec.name},
                               {"widths", width_list},
                               {"config", cfg == 0 ? "base" : "exp"},
                               {"seed", hexU64(kRefSeeds[s])},
                               {"index", std::to_string(i)}}));
                sim_fail[i] = runGuarded(
                    id, ropts, tracer, jobs_retries,
                    [&](unsigned attempt) {
                        if (fabric == nullptr) {
                            storeLanes(b, cfg, s,
                                       simulateConfigWidths(
                                           spec, config, lead, widths,
                                           kRefSeeds[s],
                                           /*collect_branch_stalls=*/
                                           cfg == 0));
                            return;
                        }
                        WorkerJob wj =
                            simJobBody(i, attempt, profile_text[b]);
                        wj.scopeStartDraw =
                            faultinject::currentDrawCount();
                        storeLanes(b, cfg, s,
                                   fabric->execute(std::move(wj)).lanes);
                    });
            } catch (const JobDiscarded &) {
                // Drained before lease: record nothing (journal,
                // failure table, progress totals all untouched —
                // identical to a queued job the in-process drain never
                // dequeued).
                return;
            }
        }
        if (sim_fail[i].has_value())
            nameFailedLane(*sim_fail[i]);
        settle(sim_kind, id, sim_fail[i], src);
    };

    // Graph edges. Graceful drain: once a shutdown is requested the
    // pool discards queued jobs (leaving no result and no journal
    // record — exactly "incomplete, re-run on --resume"), in-flight
    // jobs finish and checkpoint normally, and a job that finishes
    // during the drain submits nothing.
    ThreadPool pool(ropts.jobs, [] { return shutdownRequested(); });
    JobEnvelope train_env;
    JobEnvelope compile_env;
    JobEnvelope sim_env;
    std::vector<std::atomic<size_t>> sims_left(B);
    // A failed train or compile skips its dependents; the sweep
    // advances by them all the same.
    auto skipJobs = [&](size_t n) {
        jobs_skipped.add(n);
        progress.tick();
    };
    // After a benchmark's last simulate job only assembleOutcome's
    // inputs stay: the train profile and selection, the static counts,
    // ALPBB and PHI.
    auto releasePrograms = [&](size_t b) {
        for (CompiledConfig *c : {&arts[b].base, &arts[b].exp}) {
            c->prog = Program();
            c->decoded.reset();
            std::vector<bool>().swap(c->hoistedMask);
        }
        std::string().swap(profile_text[b]);
    };
    auto now = [tracer] {
        return tracer == nullptr ? 0 : tracer->nowMicros();
    };
    auto simJob = [&](size_t i) {
        uint64_t begin = now();
        runSim(i);
        sim_env.widen(begin, now());
        size_t b = i / (2 * S);
        if (sims_left[b].fetch_sub(1, std::memory_order_acq_rel) == 1)
            releasePrograms(b);
    };
    auto compileJob = [&](size_t b) {
        uint64_t begin = now();
        runCompile(b);
        compile_env.widen(begin, now());
        if (shutdownRequested())
            return;
        if (compile_fail[b].has_value()) {
            skipJobs(2 * S);
            return;
        }
        // arts[b].train now holds the TRAIN artifacts.
        trains[b] = TrainArtifacts();
        if (fabric != nullptr)
            profile_text[b] = serializeProfile(arts[b].train.profile);
        sims_left[b].store(2 * S, std::memory_order_relaxed);
        for (size_t i = b * 2 * S; i < (b + 1) * 2 * S; ++i)
            pool.submit([&simJob, i] { simJob(i); }, b);
    };
    auto trainJob = [&](size_t b) {
        uint64_t begin = now();
        bool settled = runTrain(b);
        train_env.widen(begin, now());
        if (!settled || shutdownRequested())
            return;
        if (train_fail[b].has_value()) {
            skipJobs(1 + 2 * S);
            return;
        }
        pool.submit([&compileJob, b] { compileJob(b); }, b);
    };
    for (size_t b = 0; b < B; ++b)
        pool.submit([&trainJob, b] { trainJob(b); }, b);
    pool.wait();

    train_env.record(tracer, "phase.train");
    compile_env.record(tracer, "phase.compile");
    sim_env.record(tracer, "phase.simulate");
    collectPhase(train_fail, report);
    collectPhase(compile_fail, report);
    collectPhase(sim_fail, report);
    if (shutdownRequested()) {
        report.interrupted = true;
        stampReplayed();
        stampFaultGauges();
        return report;
    }

    // Assembly: deterministic, in index order. A seed whose
    // baseline or experimental simulation failed is dropped from the
    // benchmark's mean/best; a benchmark whose train/compile failed
    // keeps its row (alignment across widths) but contributes nothing
    // to the suite geomeans.
    TraceSpan assemble_span(tracer, "phase.assemble");
    report.results.resize(W);
    for (size_t w = 0; w < W; ++w) {
        std::vector<double> means;
        std::vector<double> bests;
        for (size_t b = 0; b < B; ++b) {
            SeedSummary summary;
            summary.name = suite[b].name;
            if (train_fail[b].has_value() ||
                compile_fail[b].has_value()) {
                summary.failedSeeds = static_cast<unsigned>(S);
                if (ropts.verbose) {
                    std::fprintf(stderr, "  %-18s FAILED (%s)\n",
                                 summary.name.c_str(),
                                 train_fail[b].has_value() ? "train"
                                                           : "compile");
                }
                report.results[w].rows.push_back(std::move(summary));
                continue;
            }
            std::vector<double> ratios;
            double best = -1e9;
            for (size_t s = 0; s < S; ++s) {
                size_t job = (b * S + s) * 2;
                if (sim_fail[job].has_value() ||
                    sim_fail[job + 1].has_value()) {
                    ++summary.failedSeeds;
                    continue;
                }
                size_t i = simSlot(b, w, s, 0);
                BenchmarkOutcome outcome = assembleOutcome(
                    suite[b], arts[b], std::move(sims[i]),
                    std::move(sims[i + 1]));
                ratios.push_back(1.0 + outcome.speedupPct / 100.0);
                best = std::max(best, outcome.speedupPct);
                summary.perSeed.push_back(std::move(outcome));
            }
            if (!ratios.empty()) {
                summary.meanSpeedupPct =
                    (geomean(ratios) - 1.0) * 100.0;
                summary.bestSpeedupPct = best;
                means.push_back(summary.meanSpeedupPct);
                bests.push_back(summary.bestSpeedupPct);
            }
            if (ropts.verbose) {
                std::fprintf(stderr,
                             "  %-18s mean %+6.1f%%  best %+6.1f%%\n",
                             summary.name.c_str(),
                             summary.meanSpeedupPct,
                             summary.bestSpeedupPct);
            }
            report.results[w].rows.push_back(std::move(summary));
        }
        report.results[w].geomeanMeanPct =
            means.empty() ? 0.0 : geomeanPct(means);
        report.results[w].geomeanBestPct =
            bests.empty() ? 0.0 : geomeanPct(bests);
    }
    reg.counter("engine.pool.executed").add(pool.executedCount());
    reg.counter("engine.pool.discarded").add(pool.discardedCount());
    stampFaultGauges();
    stampReplayed();
    return report;
}

std::vector<SuiteResult>
runSuiteWidths(const std::vector<BenchmarkSpec> &suite,
               const std::vector<unsigned> &widths,
               const VanguardOptions &base, const RunnerOptions &ropts)
{
    SuiteReport report =
        runSuiteWidthsReport(suite, widths, base, ropts);
    if (report.interrupted) {
        throw SimError(SimError::Kind::Internal,
                       "sweep interrupted by shutdown request "
                       "before completion");
    }
    if (!report.failures.empty()) {
        const JobFailure &f = report.failures.front();
        std::string why = f.message;
        if (report.failures.size() > 1) {
            why += " (+" +
                   std::to_string(report.failures.size() - 1) +
                   " more failures)";
        }
        throw SimError(f.kind, std::move(why), f.id.describe());
    }
    return std::move(report.results);
}

std::string
renderFailureTable(const std::vector<JobFailure> &failures)
{
    if (failures.empty())
        return "";
    TablePrinter table({"job", "kind", "tries", "error", "replay"});
    for (const JobFailure &f : failures) {
        std::string msg = f.message;
        constexpr size_t kMaxMsg = 56;
        if (msg.size() > kMaxMsg)
            msg = msg.substr(0, kMaxMsg - 3) + "...";
        table.addRow({f.id.describe(), SimError::kindName(f.kind),
                      std::to_string(f.attempts), std::move(msg),
                      f.bundlePath.empty() ? "-" : f.bundlePath});
    }
    return table.render();
}

} // namespace vanguard
