#include "core/replay.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "support/logging.hh"
#include "support/versioned_format.hh"
#include "workloads/suites.hh"

namespace vanguard {

namespace {

constexpr unsigned kReplayVersion = 1;

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
    return buf;
}

} // namespace

std::string
serializeOptionsLines(const VanguardOptions &o)
{
    std::ostringstream os;
    os << "opt predictor " << o.predictor << "\n";
    os << "opt superblock " << (o.applySuperblock ? 1 : 0) << "\n";
    os << "opt decompose " << (o.applyDecomposition ? 1 : 0) << "\n";
    os << "opt shadow-commit " << (o.shadowCommit ? 1 : 0) << "\n";
    os << "opt dbb-entries " << o.dbbEntries << "\n";
    os << "opt l1i-size-kb " << o.l1iSizeKB << "\n";
    os << "opt icache-prefetch " << (o.icachePrefetch ? 1 : 0) << "\n";
    os << "opt sel-min-exposed " << o.selection.minExposed << "\n";
    os << "opt sel-min-execs " << o.selection.minExecs << "\n";
    os << "opt sel-min-predictability "
       << o.selection.minPredictability << "\n";
    os << "opt sel-forward-only " << (o.selection.forwardOnly ? 1 : 0)
       << "\n";
    os << "opt dec-max-hoist " << o.decompose.maxHoistPerPath << "\n";
    os << "opt dec-max-slice " << o.decompose.maxSliceDepth << "\n";
    os << "opt sb-bias-threshold " << o.superblock.biasThreshold
       << "\n";
    os << "opt sb-min-execs " << o.superblock.minExecs << "\n";
    os << "opt sb-max-hoist " << o.superblock.maxHoist << "\n";
    os << "opt profile-max-insts " << o.profileMaxInsts << "\n";
    os << "opt sim-max-insts " << o.simMaxInsts << "\n";
    os << "opt cycle-budget " << o.simCycleBudget << "\n";
    os << "opt progress-window " << o.simProgressWindow << "\n";
    return os.str();
}

bool
parseOptLine(std::istringstream &ls, VanguardOptions *o, std::string *error)
{
    std::string name, tok, extra;
    ls >> name >> tok;
    bool ok = false;
    // Each value must be its whole token; `o` changes only on success.
    auto num = [&](auto *v) {
        std::remove_pointer_t<decltype(v)> x{};
        const char *end = tok.data() + tok.size();
        auto [p, ec] = std::from_chars(tok.data(), end, x);
        ok = ec == std::errc() && p == end;
        if (ok)
            *v = x;
    };
    // Doubles go through strtod, which reads both the bundle's decimal
    // spelling and the job frames' exact hexfloat one.
    auto real = [&](double *v) {
        char *end = nullptr;
        double x = std::strtod(tok.c_str(), &end);
        ok = !tok.empty() && end == tok.c_str() + tok.size();
        if (ok)
            *v = x;
    };
    auto flag = [&](bool *v) {
        ok = tok == "0" || tok == "1";
        if (ok)
            *v = tok == "1";
    };
    if (name == "predictor") {
        ok = !tok.empty();
        if (ok)
            o->predictor = tok;
    } else if (name == "width") {
        num(&o->width);
    } else if (name == "superblock") {
        flag(&o->applySuperblock);
    } else if (name == "decompose") {
        flag(&o->applyDecomposition);
    } else if (name == "shadow-commit") {
        flag(&o->shadowCommit);
    } else if (name == "dbb-entries") {
        num(&o->dbbEntries);
    } else if (name == "l1i-size-kb") {
        num(&o->l1iSizeKB);
    } else if (name == "icache-prefetch") {
        flag(&o->icachePrefetch);
    } else if (name == "lockstep") {
        flag(&o->lockstep);
    } else if (name == "sel-min-exposed") {
        real(&o->selection.minExposed);
    } else if (name == "sel-min-execs") {
        num(&o->selection.minExecs);
    } else if (name == "sel-min-predictability") {
        real(&o->selection.minPredictability);
    } else if (name == "sel-forward-only") {
        flag(&o->selection.forwardOnly);
    } else if (name == "dec-max-hoist") {
        num(&o->decompose.maxHoistPerPath);
    } else if (name == "dec-max-slice") {
        num(&o->decompose.maxSliceDepth);
    } else if (name == "sb-bias-threshold") {
        real(&o->superblock.biasThreshold);
    } else if (name == "sb-min-execs") {
        num(&o->superblock.minExecs);
    } else if (name == "sb-max-hoist") {
        num(&o->superblock.maxHoist);
    } else if (name == "profile-max-insts") {
        num(&o->profileMaxInsts);
    } else if (name == "sim-max-insts") {
        num(&o->simMaxInsts);
    } else if (name == "cycle-budget") {
        num(&o->simCycleBudget);
    } else if (name == "progress-window") {
        num(&o->simProgressWindow);
    } else {
        *error = "unknown opt '" + name + "'";
        return false;
    }
    if (!ok || ls >> extra) {
        *error = "bad value '" + tok + "' for opt '" + name + "'";
        return false;
    }
    return true;
}

std::string
serializeReplayBundle(const ReplayBundle &b)
{
    std::ostringstream os;
    os << "vanguard-replay v" << kReplayVersion << "\n";
    os << "benchmark " << b.benchmark << "\n";
    os << "phase " << b.phase << "\n";
    os << "width " << b.width << "\n";
    os << "config " << (b.config == 0 ? "base" : "exp") << "\n";
    os << "seed " << hexU64(b.seed) << "\n";
    os << "iterations " << b.iterations << "\n";
    os << serializeOptionsLines(b.options);
    os << "error-kind " << b.errorKind << "\n";
    os << "error-msg " << b.errorMessage << "\n";
    return os.str();
}

ReplayParseResult
parseReplayBundle(const std::string &text)
{
    ReplayParseResult out;
    std::istringstream is(text);
    std::string line;
    bool saw_header = false;

    auto fail = [&out](const std::string &why) {
        out.ok = false;
        out.error = why;
        return out;
    };

    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (!saw_header) {
            // Versioned header: an unknown/future "vanguard-replay
            // vN" raises SimError(Io) naming the version (shared
            // policy with the journal format); a line that is not a
            // replay header at all is an ordinary parse failure.
            if (!parseVersionedHeader(line, "vanguard-replay",
                                      kReplayVersion, nullptr))
                return fail("missing 'vanguard-replay v1' header");
            saw_header = true;
            continue;
        }
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        ReplayBundle &b = out.bundle;
        VanguardOptions &o = b.options;
        if (key == "benchmark") {
            ls >> b.benchmark;
        } else if (key == "phase") {
            ls >> b.phase;
        } else if (key == "width") {
            ls >> b.width;
            o.width = b.width;
        } else if (key == "config") {
            std::string c;
            ls >> c;
            if (c != "base" && c != "exp")
                return fail("bad config '" + c + "'");
            b.config = c == "exp" ? 1 : 0;
        } else if (key == "seed") {
            std::string s;
            ls >> s;
            b.seed = std::strtoull(s.c_str(), nullptr, 0);
        } else if (key == "iterations") {
            ls >> b.iterations;
        } else if (key == "opt") {
            std::string why;
            if (!parseOptLine(ls, &o, &why))
                return fail(why);
        } else if (key == "error-kind") {
            ls >> out.bundle.errorKind;
        } else if (key == "error-msg") {
            // Everything after the key, verbatim.
            std::string rest;
            std::getline(ls, rest);
            if (!rest.empty() && rest[0] == ' ')
                rest.erase(0, 1);
            out.bundle.errorMessage = rest;
        } else {
            return fail("unknown key '" + key + "'");
        }
    }
    if (!saw_header)
        return fail("empty bundle");
    if (out.bundle.benchmark.empty())
        return fail("bundle names no benchmark");
    out.ok = true;
    return out;
}

ReplayParseResult
loadReplayBundle(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ReplayParseResult out;
        out.error = "cannot read '" + path + "'";
        return out;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseReplayBundle(buf.str());
}

ReplayOutcome
replayBundle(const ReplayBundle &bundle, bool lockstep)
{
    ReplayOutcome out;
    try {
        BenchmarkSpec spec = findBenchmark(bundle.benchmark);
        if (bundle.iterations != 0)
            spec.iterations = bundle.iterations;
        VanguardOptions opts = bundle.options;
        opts.width = bundle.width;
        opts.lockstep = lockstep;

        TrainArtifacts train = trainBenchmark(spec, opts);
        if (bundle.phase == "train")
            return out; // clean: training itself did not fail

        bool decomposed =
            bundle.config == 1 && opts.applyDecomposition;
        CompiledConfig config =
            compileConfig(spec, train, decomposed, opts);
        if (bundle.phase == "compile")
            return out;

        out.stats = simulateConfig(spec, config, opts, bundle.seed,
                                   /*collect_branch_stalls=*/
                                   bundle.config == 0);
    } catch (const SimError &e) {
        out.failed = true;
        out.kind = SimError::kindName(e.kind());
        out.message = e.detail();
        out.reproduced = out.kind == bundle.errorKind;
    } catch (const std::exception &e) {
        out.failed = true;
        out.kind = SimError::kindName(SimError::Kind::Internal);
        out.message = e.what();
        out.reproduced = out.kind == bundle.errorKind;
    }
    return out;
}

} // namespace vanguard
