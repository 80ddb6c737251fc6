/**
 * @file
 * Process-isolation implementation: frame-body codecs and the job-body
 * runner. See worker_pool.hh for the design.
 */

#include "core/worker_pool.hh"

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/journal.hh"
#include "profile/profile_io.hh"
#include "support/checksum.hh"
#include "support/ipc.hh"
#include "support/logging.hh"
#include "support/versioned_format.hh"

namespace vanguard {

namespace {

// Frame bodies are built with ipc::appendBlob, walked with
// ipc::BodyCursor and read with ipc::readFields — shared with the
// coordinator's lease codecs.
using ipc::appendBlob;
using ipc::readFields;
using ipc::readToken;
using ipc::restTokens;
using Cursor = ipc::BodyCursor;

// v2: simulate jobs carry a width list and results one stats lane per
// width (one fused job per (benchmark, config, seed)).
constexpr unsigned kWorkerJobVersion = 2;
constexpr unsigned kWorkerResultVersion = 2;

/** %a hexfloat: exact double round-trip through strtod. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** A "0x"-prefixed hex token (hexU64's spelling). */
bool
readHexToken(const std::string &tok, uint64_t *v)
{
    if (tok.size() <= 2 || tok.compare(0, 2, "0x") != 0)
        return false;
    uint64_t x = 0;
    const char *end = tok.data() + tok.size();
    auto [p, ec] = std::from_chars(tok.data() + 2, end, x, 16);
    if (ec != std::errc() || p != end)
        return false;
    *v = x;
    return true;
}

/**
 * Parse the rest of one `opt <name> <value>` line. An unknown name, or
 * a value that is not exactly one whole token of its type, returns
 * false with an `*error` naming the key and leaves `o` untouched.
 */
bool
parseOptLine(std::istringstream &ls, VanguardOptions *o, std::string *error)
{
    std::string name;
    ls >> name;
    std::vector<std::string> v = restTokens(ls);
    bool ok = false;
    if (name == "predictor") {
        ok = v.size() == 1;
        if (ok)
            o->predictor = v[0];
    } else if (name == "width") {
        ok = readFields(v, &o->width);
    } else if (name == "superblock") {
        ok = readFields(v, &o->applySuperblock);
    } else if (name == "decompose") {
        ok = readFields(v, &o->applyDecomposition);
    } else if (name == "shadow-commit") {
        ok = readFields(v, &o->shadowCommit);
    } else if (name == "dbb-entries") {
        ok = readFields(v, &o->dbbEntries);
    } else if (name == "l1i-size-kb") {
        ok = readFields(v, &o->l1iSizeKB);
    } else if (name == "icache-prefetch") {
        ok = readFields(v, &o->icachePrefetch);
    } else if (name == "lockstep") {
        ok = readFields(v, &o->lockstep);
    } else if (name == "sel-min-exposed") {
        ok = readFields(v, &o->selection.minExposed);
    } else if (name == "sel-min-execs") {
        ok = readFields(v, &o->selection.minExecs);
    } else if (name == "sel-min-predictability") {
        ok = readFields(v, &o->selection.minPredictability);
    } else if (name == "sel-forward-only") {
        ok = readFields(v, &o->selection.forwardOnly);
    } else if (name == "dec-max-hoist") {
        ok = readFields(v, &o->decompose.maxHoistPerPath);
    } else if (name == "dec-max-slice") {
        ok = readFields(v, &o->decompose.maxSliceDepth);
    } else if (name == "sb-bias-threshold") {
        ok = readFields(v, &o->superblock.biasThreshold);
    } else if (name == "sb-min-execs") {
        ok = readFields(v, &o->superblock.minExecs);
    } else if (name == "sb-max-hoist") {
        ok = readFields(v, &o->superblock.maxHoist);
    } else if (name == "profile-max-insts") {
        ok = readFields(v, &o->profileMaxInsts);
    } else if (name == "sim-max-insts") {
        ok = readFields(v, &o->simMaxInsts);
    } else if (name == "cycle-budget") {
        ok = readFields(v, &o->simCycleBudget);
    } else if (name == "progress-window") {
        ok = readFields(v, &o->simProgressWindow);
    } else {
        *error = "unknown opt '" + name + "'";
        return false;
    }
    if (!ok)
        *error = "bad value '" + (v.empty() ? "" : v[0]) +
                 "' for opt '" + name + "'";
    return ok;
}

/** Parse the rest of one `spec <name> <values>` line into `sp`. */
bool
parseSpecLine(std::istringstream &ls, WorkerJob *out, std::string *error)
{
    std::string name;
    ls >> name;
    std::vector<std::string> v = restTokens(ls);
    BenchmarkSpec &sp = out->spec;
    bool ok = false;
    if (name == "name") {
        ok = v.size() == 1;
        if (ok)
            out->specName = v[0];
    } else if (name == "fp") {
        ok = readFields(v, &sp.fp);
    } else if (name == "hammocks") {
        ok = readFields(v, &sp.hammocksPU, &sp.hammocksBP, &sp.hammocksUP);
    } else if (name == "loads-per-succ") {
        ok = readFields(v, &sp.loadsPerSucc);
    } else if (name == "chained-succ-loads") {
        ok = readFields(v, &sp.chainedSuccLoads);
    } else if (name == "alu-per-succ") {
        ok = readFields(v, &sp.aluPerSucc);
    } else if (name == "fp-per-succ") {
        ok = readFields(v, &sp.fpPerSucc);
    } else if (name == "stores-per-succ") {
        ok = readFields(v, &sp.storesPerSucc);
    } else if (name == "noise-pu") {
        ok = readFields(v, &sp.noisePU);
    } else if (name == "taken-pu") {
        ok = readFields(v, &sp.takenPU);
    } else if (name == "working-set-kb") {
        ok = readFields(v, &sp.workingSetKB);
    } else if (name == "stride-lines") {
        ok = readFields(v, &sp.strideLines);
    } else if (name == "stores-early") {
        ok = readFields(v, &sp.storesEarly);
    } else if (name == "cond-chain-ops") {
        ok = readFields(v, &sp.condChainOps);
    } else if (name == "cold") {
        ok = readFields(v, &sp.coldBlocks, &sp.coldBlockInsts,
                        &sp.coldPeriod);
    } else if (name == "iterations") {
        ok = readFields(v, &sp.iterations);
    } else {
        *error = "unknown spec key '" + name + "'";
        return false;
    }
    if (!ok)
        *error = "bad value for spec key '" + name + "'";
    return ok;
}

} // namespace

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
        if (key == "opt") {
            if (!parseOptLine(ls, &out->options, error))
                return false;
            continue;
        }
        if (key == "spec") {
            if (!parseSpecLine(ls, out, error))
                return false;
            continue;
        }
        std::vector<std::string> v = restTokens(ls);
        bool ok = false;
        if (key == "phase") {
            ok = v.size() == 1;
            if (ok)
                out->phase = v[0];
        } else if (key == "slot") {
            ok = readFields(v, &out->slot);
        } else if (key == "scope") {
            ok = v.size() == 1 && readHexToken(v[0], &out->scopeKey);
        } else if (key == "scope-start-draw") {
            ok = readFields(v, &out->scopeStartDraw);
        } else if (key == "delivery") {
            ok = readFields(v, &out->delivery);
        } else if (key == "config") {
            ok = v.size() == 1 && (v[0] == "base" || v[0] == "exp");
            if (ok)
                out->config = v[0] == "exp" ? 1 : 0;
        } else if (key == "seed") {
            ok = v.size() == 1 && readHexToken(v[0], &out->seed);
        } else if (key == "collect-stalls") {
            ok = readFields(v, &out->collectStalls);
        } else if (key == "widths") {
            size_t n = 0;
            if (v.empty() || !readToken(v[0], &n) || n == 0 ||
                n > kMaxSweepWidths || v.size() != n + 1) {
                *error = "bad width-list length";
                return false;
            }
            out->widths.assign(n, 0);
            for (size_t k = 0; k < n; ++k) {
                unsigned &w = out->widths[k];
                if (!readToken(v[k + 1], &w) || w == 0 ||
                    w > kMaxWidthValue) {
                    *error = "bad width in width list";
                    return false;
                }
            }
            ok = true;
        } else if (key == "blob") {
            size_t len = 0;
            ok = v.size() == 2 && v[0] == "profile" &&
                 readToken(v[1], &len);
            if (ok && !cur.raw(len, &out->profileText)) {
                *error = "truncated blob 'profile'";
                return false;
            }
        } else {
            *error = "unknown job key '" + key + "'";
            return false;
        }
        if (!ok) {
            *error = "bad value for job key '" + key + "'";
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
        std::vector<std::string> v = restTokens(ls);
        bool ok = false;
        if (key == "slot") {
            ok = readFields(v, &out->slot);
        } else if (key == "status") {
            ok = v.size() == 1 && (v[0] == "ok" || v[0] == "fail");
            if (ok)
                out->ok = v[0] == "ok";
        } else if (key == "injected") {
            ok = v.size() == FaultPlan::kNumKinds;
            for (size_t k = 0; ok && k < v.size(); ++k)
                ok = readToken(v[k], &out->injected[k]);
        } else if (key == "kind") {
            // kindFromName maps an unknown name to Internal, so only a
            // name that round-trips is one.
            ok = v.size() == 1 &&
                 SimError::kindName(SimError::kindFromName(v[0])) == v[0];
            if (ok)
                out->kind = SimError::kindFromName(v[0]);
        } else if (key == "blob") {
            size_t len = 0;
            ok = v.size() == 2 &&
                 (v[0] == "profile" || v[0] == "message" ||
                  v[0] == "record") &&
                 readToken(v[1], &len);
            std::string data;
            if (ok && !cur.raw(len, &data)) {
                *error = "truncated blob '" + v[0] + "'";
                return false;
            }
            if (ok && v[0] == "profile") {
                out->profileText = std::move(data);
            } else if (ok && v[0] == "message") {
                out->message = std::move(data);
            } else if (ok) {
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
        if (!ok) {
            *error = "bad value for result key '" + key + "'";
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
            // Default action first: a sanitizer's SIGSEGV handler
            // would turn the crash into an exit code.
            ::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
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
            if (e.key == key)
                return e.config;
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
        }
        res.ok = true;
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

} // namespace vanguard
