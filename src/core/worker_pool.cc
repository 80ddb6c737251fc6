/**
 * @file
 * Process-isolation implementation: frame-body codecs, the job-body
 * runner, and the worker spawner. See worker_pool.hh for the design.
 */

#include "core/worker_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/coordinator.hh"
#include "core/journal.hh"
#include "core/replay.hh"
#include "profile/profile_io.hh"
#include "support/checksum.hh"
#include "support/ipc.hh"
#include "support/logging.hh"
#include "support/versioned_format.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace vanguard {

namespace {

// v2: simulate jobs carry a width list and results one stats lane per
// width (one fused job per (benchmark, config, seed)).
constexpr unsigned kWorkerJobVersion = 2;
constexpr unsigned kWorkerResultVersion = 2;

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** %a hexfloat: exact double round-trip through strtod. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

double
parseHexDouble(const std::string &tok)
{
    return std::strtod(tok.c_str(), nullptr);
}

uint64_t
parseU64(const std::string &tok)
{
    return std::strtoull(tok.c_str(), nullptr, 0);
}

// Frame bodies are built with ipc::appendBlob and walked with
// ipc::BodyCursor — shared with the coordinator's lease codecs.
using ipc::appendBlob;
using Cursor = ipc::BodyCursor;

/**
 * Exact option serialization for job frames. Mirrors the replay
 * bundle's field list (plus width and lockstep, which the bundle
 * carries out-of-band or forces) but encodes doubles as hexfloat so
 * the worker re-derives selection/compilation from bit-identical
 * inputs.
 */
std::string
serializeOptionsExact(const VanguardOptions &o)
{
    std::ostringstream os;
    os << "opt width " << o.width << "\n";
    os << "opt predictor " << o.predictor << "\n";
    os << "opt superblock " << (o.applySuperblock ? 1 : 0) << "\n";
    os << "opt decompose " << (o.applyDecomposition ? 1 : 0) << "\n";
    os << "opt shadow-commit " << (o.shadowCommit ? 1 : 0) << "\n";
    os << "opt dbb-entries " << o.dbbEntries << "\n";
    os << "opt l1i-size-kb " << o.l1iSizeKB << "\n";
    os << "opt icache-prefetch " << (o.icachePrefetch ? 1 : 0) << "\n";
    os << "opt lockstep " << (o.lockstep ? 1 : 0) << "\n";
    os << "opt sel-min-exposed " << hexDouble(o.selection.minExposed)
       << "\n";
    os << "opt sel-min-execs " << o.selection.minExecs << "\n";
    os << "opt sel-min-predictability "
       << hexDouble(o.selection.minPredictability) << "\n";
    os << "opt sel-forward-only " << (o.selection.forwardOnly ? 1 : 0)
       << "\n";
    os << "opt dec-max-hoist " << o.decompose.maxHoistPerPath << "\n";
    os << "opt dec-max-slice " << o.decompose.maxSliceDepth << "\n";
    os << "opt sb-bias-threshold "
       << hexDouble(o.superblock.biasThreshold) << "\n";
    os << "opt sb-min-execs " << o.superblock.minExecs << "\n";
    os << "opt sb-max-hoist " << o.superblock.maxHoist << "\n";
    os << "opt profile-max-insts " << o.profileMaxInsts << "\n";
    os << "opt sim-max-insts " << o.simMaxInsts << "\n";
    os << "opt cycle-budget " << o.simCycleBudget << "\n";
    os << "opt progress-window " << o.simProgressWindow << "\n";
    return os.str();
}

} // namespace

std::string
serializeWorkerJob(const WorkerJob &job)
{
    std::ostringstream os;
    os << "vanguard-workerjob v" << kWorkerJobVersion << "\n";
    os << "phase " << job.phase << "\n";
    os << "slot " << job.slot << "\n";
    os << "scope " << hexU64(job.scopeKey) << "\n";
    os << "scope-start-draw " << job.scopeStartDraw << "\n";
    os << "delivery " << job.delivery << "\n";
    os << "config " << (job.config == 0 ? "base" : "exp") << "\n";
    os << "seed " << hexU64(job.seed) << "\n";
    os << "collect-stalls " << (job.collectStalls ? 1 : 0) << "\n";
    if (!job.widths.empty()) {
        os << "widths " << job.widths.size();
        for (unsigned w : job.widths)
            os << ' ' << w;
        os << "\n";
    }

    const BenchmarkSpec &sp = job.spec;
    os << "spec name " << (sp.name != nullptr ? sp.name : "kernel")
       << "\n";
    os << "spec fp " << (sp.fp ? 1 : 0) << "\n";
    os << "spec hammocks " << sp.hammocksPU << ' ' << sp.hammocksBP
       << ' ' << sp.hammocksUP << "\n";
    os << "spec loads-per-succ " << sp.loadsPerSucc << "\n";
    os << "spec chained-succ-loads " << sp.chainedSuccLoads << "\n";
    os << "spec alu-per-succ " << sp.aluPerSucc << "\n";
    os << "spec fp-per-succ " << sp.fpPerSucc << "\n";
    os << "spec stores-per-succ " << sp.storesPerSucc << "\n";
    os << "spec noise-pu " << hexDouble(sp.noisePU) << "\n";
    os << "spec taken-pu " << hexDouble(sp.takenPU) << "\n";
    os << "spec working-set-kb " << sp.workingSetKB << "\n";
    os << "spec stride-lines " << sp.strideLines << "\n";
    os << "spec stores-early " << (sp.storesEarly ? 1 : 0) << "\n";
    os << "spec cond-chain-ops " << sp.condChainOps << "\n";
    os << "spec cold " << sp.coldBlocks << ' ' << sp.coldBlockInsts
       << ' ' << sp.coldPeriod << "\n";
    os << "spec iterations " << sp.iterations << "\n";

    os << serializeOptionsExact(job.options);

    std::string out = os.str();
    appendBlob(&out, "profile", job.profileText);
    return out;
}

bool
parseWorkerJob(const std::string &body, WorkerJob *out,
               std::string *error)
{
    Cursor cur{body};
    std::string line;
    if (!cur.line(&line) ||
        !parseVersionedHeader(line, "vanguard-workerjob",
                              kWorkerJobVersion, nullptr)) {
        *error = "missing vanguard-workerjob header";
        return false;
    }
    while (cur.line(&line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "phase") {
            ls >> out->phase;
        } else if (key == "slot") {
            ls >> out->slot;
        } else if (key == "scope") {
            std::string tok; ls >> tok;
            out->scopeKey = parseU64(tok);
        } else if (key == "scope-start-draw") {
            ls >> out->scopeStartDraw;
        } else if (key == "delivery") {
            ls >> out->delivery;
        } else if (key == "config") {
            std::string c; ls >> c;
            out->config = c == "base" ? 0 : 1;
        } else if (key == "seed") {
            std::string tok; ls >> tok;
            out->seed = parseU64(tok);
        } else if (key == "collect-stalls") {
            int v; ls >> v; out->collectStalls = v != 0;
        } else if (key == "widths") {
            size_t n = 0;
            if (!(ls >> n) || n == 0 || n > kMaxSweepWidths) {
                *error = "bad width-list length";
                return false;
            }
            out->widths.assign(n, 0);
            for (unsigned &w : out->widths) {
                if (!(ls >> w) || w == 0 || w > kMaxWidthValue) {
                    *error = "bad width in width list";
                    return false;
                }
            }
        } else if (key == "spec") {
            std::string name, tok;
            ls >> name;
            BenchmarkSpec &sp = out->spec;
            if (name == "name") {
                ls >> out->specName;
            } else if (name == "fp") {
                int v; ls >> v; sp.fp = v != 0;
            } else if (name == "hammocks") {
                ls >> sp.hammocksPU >> sp.hammocksBP >> sp.hammocksUP;
            } else if (name == "loads-per-succ") {
                ls >> sp.loadsPerSucc;
            } else if (name == "chained-succ-loads") {
                ls >> sp.chainedSuccLoads;
            } else if (name == "alu-per-succ") {
                ls >> sp.aluPerSucc;
            } else if (name == "fp-per-succ") {
                ls >> sp.fpPerSucc;
            } else if (name == "stores-per-succ") {
                ls >> sp.storesPerSucc;
            } else if (name == "noise-pu") {
                ls >> tok; sp.noisePU = parseHexDouble(tok);
            } else if (name == "taken-pu") {
                ls >> tok; sp.takenPU = parseHexDouble(tok);
            } else if (name == "working-set-kb") {
                ls >> sp.workingSetKB;
            } else if (name == "stride-lines") {
                ls >> sp.strideLines;
            } else if (name == "stores-early") {
                int v; ls >> v; sp.storesEarly = v != 0;
            } else if (name == "cond-chain-ops") {
                ls >> sp.condChainOps;
            } else if (name == "cold") {
                ls >> sp.coldBlocks >> sp.coldBlockInsts
                   >> sp.coldPeriod;
            } else if (name == "iterations") {
                ls >> sp.iterations;
            }
        } else if (key == "opt") {
            if (!parseOptLine(ls, &out->options, error))
                return false;
        } else if (key == "blob") {
            std::string name;
            size_t len = 0;
            ls >> name >> len;
            std::string data;
            if (!cur.raw(len, &data)) {
                *error = "truncated blob '" + name + "'";
                return false;
            }
            if (name == "profile")
                out->profileText = std::move(data);
        } else {
            *error = "unknown job key '" + key + "'";
            return false;
        }
    }
    if (out->phase != "train" && out->phase != "simulate") {
        *error = "bad job phase '" + out->phase + "'";
        return false;
    }
    if (out->phase == "simulate" && out->widths.empty()) {
        *error = "simulate job names no widths";
        return false;
    }
    out->bindSpecName();
    return true;
}

std::string
serializeWorkerResult(const WorkerResult &res)
{
    std::ostringstream os;
    os << "vanguard-workerresult v" << kWorkerResultVersion << "\n";
    os << "slot " << res.slot << "\n";
    os << "status " << (res.ok ? "ok" : "fail") << "\n";
    os << "injected";
    for (uint64_t c : res.injected)
        os << ' ' << c;
    os << "\n";
    std::string out = os.str();
    if (res.ok) {
        if (!res.profileText.empty()) {
            appendBlob(&out, "profile", res.profileText);
        } else {
            JournalRecord rec;
            rec.phase = 'S';
            rec.index = res.slot;
            rec.ok = true;
            rec.widths = res.widths;
            rec.lanes = res.lanes;
            appendBlob(&out, "record", serializeJournalRecord(rec));
        }
    } else {
        out += "kind ";
        out += SimError::kindName(res.kind);
        out += "\n";
        appendBlob(&out, "message", res.message);
    }
    return out;
}

bool
parseWorkerResult(const std::string &body, WorkerResult *out,
                  std::string *error)
{
    Cursor cur{body};
    std::string line;
    if (!cur.line(&line) ||
        !parseVersionedHeader(line, "vanguard-workerresult",
                              kWorkerResultVersion, nullptr)) {
        *error = "missing vanguard-workerresult header";
        return false;
    }
    bool saw_record = false;
    while (cur.line(&line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "slot") {
            ls >> out->slot;
        } else if (key == "status") {
            std::string s; ls >> s;
            out->ok = s == "ok";
        } else if (key == "injected") {
            for (uint64_t &c : out->injected)
                ls >> c;
        } else if (key == "kind") {
            std::string k; ls >> k;
            out->kind = SimError::kindFromName(k);
        } else if (key == "blob") {
            std::string name;
            size_t len = 0;
            ls >> name >> len;
            std::string data;
            if (!cur.raw(len, &data)) {
                *error = "truncated blob '" + name + "'";
                return false;
            }
            if (name == "profile") {
                out->profileText = std::move(data);
            } else if (name == "message") {
                out->message = std::move(data);
            } else if (name == "record") {
                JournalRecord rec;
                if (!parseJournalRecord(data, &rec)) {
                    *error = "corrupt stats record in result";
                    return false;
                }
                out->widths = std::move(rec.widths);
                out->lanes = std::move(rec.lanes);
                saw_record = true;
            }
        } else {
            *error = "unknown result key '" + key + "'";
            return false;
        }
    }
    if (out->ok && out->profileText.empty() && !saw_record) {
        *error = "ok result carries neither profile nor stats";
        return false;
    }
    return true;
}

std::vector<uint64_t>
workerRttBoundsMs()
{
    std::vector<uint64_t> bounds;
    for (uint64_t b = 1; b <= (1u << 16); b <<= 1)
        bounds.push_back(b);
    return bounds;
}

// ---------------------------------------------------------------------
// Job-body runner
// ---------------------------------------------------------------------

namespace {

/** Deliberate-crash hooks: the VANGUARD_WORKER_SEGV_SLOT chaos knob
 *  ("<phase>:<slot>" SIGSEGVs that job on every delivery — the
 *  poison-job drill) and the worker.kill fault site (see the site
 *  catalog in fault_inject.hh). */
void
maybeDeliberateCrash(const WorkerJob &job)
{
    const char *env = std::getenv("VANGUARD_WORKER_SEGV_SLOT");
    if (env != nullptr && *env != '\0') {
        std::string want(env);
        if (want == job.phase + ":" + std::to_string(job.slot)) {
            volatile int *p = nullptr;
            *p = 1; // intentional SIGSEGV
        }
    }
    if (faultinject::armed()) {
        faultinject::Scope scope(
            workerKillScope(job.scopeKey, job.delivery));
        if (faultinject::siteFires("worker.kill",
                                   SimError::Kind::Internal))
            ::raise(SIGKILL);
    }
}

} // namespace

/**
 * Per-(spec, config, profile, options) compile cache: a worker
 * simulates every REF seed of a benchmark against one compiled
 * artifact, exactly as the in-process runner shares artifacts across
 * seed jobs.
 */
struct JobBodyRunner::Cache
{
    struct Entry
    {
        uint64_t key;
        CompiledConfig config;
    };
    std::vector<Entry> entries;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};

    static uint64_t
    keyOf(const WorkerJob &job)
    {
        std::string material = serializeOptionsExact(job.options);
        material += '|';
        material += job.specName;
        material += '|';
        material += std::to_string(job.config);
        material += '|';
        material += std::to_string(job.spec.iterations);
        uint64_t h = fnv1a64(material);
        return h ^ (fnv1a64(job.profileText) * 0x9e3779b97f4a7c15ull);
    }

    CompiledConfig &
    get(const WorkerJob &job)
    {
        uint64_t key = keyOf(job);
        for (Entry &e : entries)
            if (e.key == key) {
                hits.fetch_add(1, std::memory_order_relaxed);
                return e.config;
            }
        misses.fetch_add(1, std::memory_order_relaxed);
        ProfileParseResult parsed =
            deserializeProfile(job.profileText);
        if (!parsed.ok)
            vg_throw(Io, "job frame carries unreadable profile: %s",
                     parsed.error.c_str());
        TrainArtifacts train = trainFromProfile(
            job.spec, std::move(parsed.profile), job.options);
        bool decomposed =
            job.config == 1 && job.options.applyDecomposition;
        entries.push_back(
            {key, compileConfig(job.spec, train, decomposed,
                                job.options)});
        return entries.back().config;
    }
};

JobBodyRunner::JobBodyRunner() : cache_(new Cache) {}
JobBodyRunner::~JobBodyRunner() = default;

JobBodyRunner::BodyStats
JobBodyRunner::bodyStats() const
{
    BodyStats out;
    out.jobsDone = jobsDone_.load(std::memory_order_relaxed);
    out.instsRetired = instsRetired_.load(std::memory_order_relaxed);
    out.cacheHits = cache_->hits.load(std::memory_order_relaxed);
    out.cacheMisses = cache_->misses.load(std::memory_order_relaxed);
    return out;
}

WorkerResult
JobBodyRunner::run(const WorkerJob &job)
{
    maybeDeliberateCrash(job);

    WorkerResult res;
    res.slot = job.slot;
    uint64_t before[FaultPlan::kNumKinds];
    for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
        before[k] =
            faultinject::injectedCount(static_cast<SimError::Kind>(k));

    try {
        // Re-enter the job's fault scope past the draws the
        // supervisor consumed, so in-body sites fire exactly as they
        // would in the in-process pool.
        faultinject::Scope scope(job.scopeKey, job.scopeStartDraw);
        if (job.phase == "train") {
            TrainArtifacts train = trainBenchmark(job.spec, job.options);
            res.profileText = serializeProfile(train.profile);
        } else {
            CompiledConfig &config = cache_->get(job);
            res.widths = job.widths;
            res.lanes = simulateConfigWidths(job.spec, config,
                                             job.options, job.widths,
                                             job.seed, job.collectStalls);
            instsRetired_.fetch_add(res.lanes[0].dynamicInsts,
                                    std::memory_order_relaxed);
        }
        res.ok = true;
        jobsDone_.fetch_add(1, std::memory_order_relaxed);
    } catch (const SimError &e) {
        res.ok = false;
        res.kind = e.kind();
        res.message = e.detail();
    } catch (const std::exception &e) {
        res.ok = false;
        res.kind = SimError::Kind::Internal;
        res.message = e.what();
    }

    for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
        res.injected[k] =
            faultinject::injectedCount(static_cast<SimError::Kind>(k)) -
            before[k];
    return res;
}

// ---------------------------------------------------------------------
// Spawner
// ---------------------------------------------------------------------

namespace {

/** Graceful-drain deadline before stragglers are SIGKILLed. */
constexpr unsigned kReapTimeoutMs = 2000;

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

} // namespace

/** fork/exec, rlimits, reaping, exit triage and the shutdown drain —
 *  the process half of owned peers. */
struct WorkerPool::Spawner final : Coordinator::Spawner
{
    Options opts;
    mutable std::mutex mutex;
    std::vector<int> live;      ///< spawned and not yet reaped
    uint64_t attempts = 0;      ///< worker.spawn draw ordinal

    explicit Spawner(const Options &o) : opts(o)
    {
        if (opts.workers == 0)
            opts.workers = 1;
        if (opts.execPath.empty())
            opts.execPath = selfExePath();
    }

    unsigned
    slots() const override
    {
        return opts.workers;
    }

    int
    spawn(unsigned slot, int *fd) override
    {
        // Deterministic spawn-fault probe, keyed by a monotonic attempt
        // ordinal so the pattern is independent of the worker count and
        // a failed attempt draws fresh on retry.
        uint64_t ordinal;
        {
            std::lock_guard<std::mutex> lock(mutex);
            ordinal = attempts++;
        }
        {
            faultinject::Scope scope(
                workerKillScope(uint64_t{0x5350574e}, ordinal));
            faultinject::site("worker.spawn", SimError::Kind::Io);
        }

        int fds[2];
        ipc::makeSocketPair(fds);
        char fdarg[16];
        std::snprintf(fdarg, sizeof(fdarg), "%d", fds[1]);
        const char *argv[] = {opts.execPath.c_str(), "--worker", fdarg,
                              nullptr};
        pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            vg_throw(Io, "fork failed for worker %u: %s", slot,
                     std::strerror(errno));
        }
        if (pid == 0) {
            // Child: async-signal-safe calls only between fork and exec.
            if (opts.rlimitMb != 0) {
                struct rlimit rl;
                rl.rlim_cur = rl.rlim_max =
                    static_cast<rlim_t>(opts.rlimitMb) << 20;
                ::setrlimit(RLIMIT_AS, &rl);
            }
            ::execv(argv[0], const_cast<char *const *>(argv));
            ::_exit(127);
        }
        ::close(fds[1]);
        std::lock_guard<std::mutex> lock(mutex);
        live.push_back(pid);
        *fd = fds[0];
        return pid;
    }

    std::string
    retire(int pid, bool kill) override
    {
        if (kill)
            ::kill(pid, SIGKILL);
        int status = 0;
        pid_t r;
        while ((r = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
        }
        forget(pid);
        return r == pid ? describeWaitStatus(status)
                        : "could not be reaped";
    }

    void
    forget(int pid)
    {
        std::lock_guard<std::mutex> lock(mutex);
        live.erase(std::remove(live.begin(), live.end(), pid),
                   live.end());
    }

    /** Exactly one SIGTERM per live child, a bounded reap, SIGKILL for
     *  stragglers. No zombie survives this. */
    void
    drain()
    {
        std::vector<int> pending;
        {
            std::lock_guard<std::mutex> lock(mutex);
            pending = live;
        }
        for (int pid : pending)
            ::kill(pid, SIGTERM);
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kReapTimeoutMs);
        while (!pending.empty() &&
               std::chrono::steady_clock::now() < deadline) {
            for (size_t i = 0; i < pending.size();) {
                int status = 0;
                pid_t r = ::waitpid(pending[i], &status, WNOHANG);
                if (r == pending[i] || (r < 0 && errno == ECHILD)) {
                    forget(pending[i]);
                    pending.erase(pending.begin() +
                                  static_cast<long>(i));
                } else {
                    ++i;
                }
            }
            if (!pending.empty())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
        }
        for (int pid : pending)
            retire(pid, /*kill=*/true);
    }
};

WorkerPool::WorkerPool(const Options &opts)
    : spawner_(std::make_unique<Spawner>(opts))
{
    Coordinator::Options co;
    co.leaseMs = opts.heartbeatTimeoutMs;
    co.metrics = opts.metrics;
    co.telemetry = opts.telemetry;
    fabric_ = std::make_unique<Coordinator>(co, *spawner_);
}

WorkerPool::~WorkerPool()
{
    try {
        shutdown();
    } catch (...) {
        // Destructor boundary: never throw.
    }
}

Coordinator &
WorkerPool::coordinator()
{
    return *fabric_;
}

WorkerResult
WorkerPool::execute(WorkerJob job)
{
    return fabric_->execute(std::move(job));
}

void
WorkerPool::shutdown()
{
    fabric_->shutdown();
    spawner_->drain();
}

std::vector<int>
WorkerPool::workerPids() const
{
    std::lock_guard<std::mutex> lock(spawner_->mutex);
    return spawner_->live;
}

WorkerPool::Stats
WorkerPool::stats() const
{
    return fabric_->stats();
}

} // namespace vanguard
