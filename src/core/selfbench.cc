#include "core/selfbench.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "bpred/factory.hh"
#include "core/vanguard.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/versioned_format.hh"
#include "workloads/suites.hh"

namespace vanguard {

namespace {

using Clock = std::chrono::steady_clock;

/** Geometric mean of xs (0 when empty or any x <= 0). */
double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            return 0.0;
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(xs.size()));
}

/**
 * Time one execution path for a prepared cell: best wall time over
 * `repeats` runs, each on a freshly built REF memory image (the build
 * and predictor construction sit outside the timed region). Verifies
 * the run is deterministic across repeats — insts and cycles must not
 * move — which doubles as a cheap fast-vs-reference identity check at
 * the call site.
 */
double
timePath(const BenchmarkSpec &spec, const BenchmarkArtifacts &art,
         const VanguardOptions &vopts, unsigned repeats,
         bool force_reference, bool no_threaded, uint64_t *insts_out,
         uint64_t *cycles_out)
{
    double best = 0.0;
    uint64_t insts = 0;
    uint64_t cycles = 0;
    for (unsigned rep = 0; rep < repeats; ++rep) {
        Memory mem = buildKernelMemory(spec, kRefSeeds[0]);
        auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
        SimOptions sopts;
        sopts.maxInsts = vopts.simMaxInsts;
        sopts.cycleBudget = vopts.simCycleBudget;
        sopts.progressWindow = vopts.simProgressWindow;
        sopts.forceReference = force_reference;
        sopts.noThreadedDispatch = no_threaded;
        if (!art.exp.hoistedMask.empty())
            sopts.hoistedMask = &art.exp.hoistedMask;

        Clock::time_point t0 = Clock::now();
        SimStats s = simulateWithDecoded(art.exp.prog, *art.exp.decoded,
                                         mem, *pred, vopts.machine(),
                                         sopts);
        double dt =
            std::chrono::duration<double>(Clock::now() - t0).count();

        vg_assert(rep == 0 || (s.dynamicInsts == insts &&
                               s.cycles == cycles),
                  "selfbench: nondeterministic run for %s "
                  "(insts %llu vs %llu, cycles %llu vs %llu)",
                  spec.name, (unsigned long long)s.dynamicInsts,
                  (unsigned long long)insts,
                  (unsigned long long)s.cycles,
                  (unsigned long long)cycles);
        insts = s.dynamicInsts;
        cycles = s.cycles;
        if (rep == 0 || dt < best)
            best = dt;
    }
    *insts_out = insts;
    *cycles_out = cycles;
    return best;
}

void
appendNumber(std::ostringstream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << buf;
}

/** Pull `"key": <number>` out of a JSON blob (first occurrence). */
bool
scanJsonNumber(const std::string &text, const std::string &key,
               double *out)
{
    std::string needle = "\"" + key + "\":";
    size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    const char *p = text.c_str() + pos + needle.size();
    char *end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p)
        return false;
    *out = v;
    return true;
}

/** Pull `"key": "<string>"` out of a JSON blob (first occurrence). */
bool
scanJsonString(const std::string &text, const std::string &key,
               std::string *out)
{
    std::string needle = "\"" + key + "\": \"";
    size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    size_t start = pos + needle.size();
    size_t close = text.find('"', start);
    if (close == std::string::npos)
        return false;
    *out = text.substr(start, close - start);
    return true;
}

} // namespace

double
SelfBenchReport::geomeanFastIps() const
{
    std::vector<double> xs;
    for (const SelfBenchCell &c : cells)
        xs.push_back(c.fastIps());
    return geomean(xs);
}

double
SelfBenchReport::geomeanRefIps() const
{
    std::vector<double> xs;
    for (const SelfBenchCell &c : cells)
        xs.push_back(c.refIps());
    return geomean(xs);
}

double
SelfBenchReport::geomeanSpeedup() const
{
    std::vector<double> xs;
    for (const SelfBenchCell &c : cells)
        xs.push_back(c.speedup());
    return geomean(xs);
}

double
SelfBenchReport::geomeanSwitchIps() const
{
    std::vector<double> xs;
    for (const SelfBenchCell &c : cells)
        xs.push_back(c.switchIps());
    return geomean(xs);
}

double
SelfBenchReport::geomeanThreadedIps() const
{
    std::vector<double> xs;
    for (const SelfBenchCell &c : cells)
        xs.push_back(c.threadedIps());
    return geomean(xs);
}

double
SelfBenchReport::geomeanThreadedSpeedup() const
{
    std::vector<double> xs;
    for (const SelfBenchCell &c : cells)
        xs.push_back(c.threadedSpeedup());
    return geomean(xs);
}

std::vector<SelfBenchCase>
selfBenchDefaultMatrix()
{
    std::vector<SelfBenchCase> matrix;
    for (const char *wl : {"bzip2-like", "h264ref-like", "mcf-like"})
        for (unsigned width : {2u, 4u, 8u})
            for (const char *pred : {"gshare3", "tage"})
                matrix.push_back({wl, width, pred});
    return matrix;
}

SelfBenchReport
runSelfBench(const SelfBenchOptions &opts, std::FILE *progress)
{
    vg_assert(opts.repeats > 0, "selfbench: repeats must be positive");
    std::vector<SelfBenchCase> matrix =
        opts.matrix.empty() ? selfBenchDefaultMatrix() : opts.matrix;

    SelfBenchReport report;
    report.repeats = opts.repeats;
    report.iterations = opts.iterations;
    report.cells.reserve(matrix.size());

    for (const SelfBenchCase &cell : matrix) {
        BenchmarkSpec spec = findBenchmark(cell.workload);
        spec.iterations = static_cast<unsigned>(opts.iterations);

        VanguardOptions vopts;
        vopts.width = cell.width;
        vopts.predictor = cell.predictor;

        // Train + compile once per cell, outside every timed region;
        // the timed runs share the artifacts read-only, as a sweep's
        // seeds do.
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);

        SelfBenchCell out;
        out.spec = cell;

        // Switch stream first; it also pins the cell's insts/cycles.
        out.switchSec = timePath(spec, art, vopts, opts.repeats,
                                 /*force_reference=*/false,
                                 /*no_threaded=*/true,
                                 &out.dynamicInsts, &out.cycles);
        if (threadedDispatchAvailable()) {
            uint64_t t_insts = 0;
            uint64_t t_cycles = 0;
            out.threadedSec = timePath(spec, art, vopts, opts.repeats,
                                       /*force_reference=*/false,
                                       /*no_threaded=*/false, &t_insts,
                                       &t_cycles);
            vg_assert(t_insts == out.dynamicInsts &&
                          t_cycles == out.cycles,
                      "selfbench: switch/threaded divergence for %s",
                      spec.name);
        }
        // v1 "fast" stream: whatever a default build runs in a sweep.
        out.fastSec =
            out.threadedSec > 0 ? out.threadedSec : out.switchSec;
        if (opts.timeReference) {
            uint64_t ref_insts = 0;
            uint64_t ref_cycles = 0;
            out.refSec = timePath(spec, art, vopts, opts.repeats,
                                  /*force_reference=*/true,
                                  /*no_threaded=*/false, &ref_insts,
                                  &ref_cycles);
            vg_assert(ref_insts == out.dynamicInsts &&
                          ref_cycles == out.cycles,
                      "selfbench: fast/reference divergence for %s "
                      "(insts %llu vs %llu, cycles %llu vs %llu)",
                      spec.name, (unsigned long long)out.dynamicInsts,
                      (unsigned long long)ref_insts,
                      (unsigned long long)out.cycles,
                      (unsigned long long)ref_cycles);
        }
        report.cells.push_back(out);

        if (progress != nullptr) {
            char suffix[48] = "";
            if (opts.timeReference) {
                std::snprintf(suffix, sizeof(suffix),
                              " (%.2fx vs reference)", out.speedup());
            }
            std::fprintf(progress,
                         "selfbench %-13s w%u %-8s %8.1f M-insts/s "
                         "fast%s\n",
                         cell.workload.c_str(), cell.width,
                         cell.predictor.c_str(), out.fastIps() / 1e6,
                         suffix);
        }
    }
    return report;
}

std::string
selfBenchToJson(const SelfBenchReport &report)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kSelfBenchMagic << " v"
       << kSelfBenchVersion << "\",\n";
    os << "  \"repeats\": " << report.repeats << ",\n";
    os << "  \"iterations\": " << report.iterations << ",\n";
    os << "  \"cells\": [";
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const SelfBenchCell &c = report.cells[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"workload\": \"" << c.spec.workload
           << "\", \"width\": " << c.spec.width << ", \"predictor\": \""
           << c.spec.predictor << "\",\n";
        os << "     \"dynamic_insts\": " << c.dynamicInsts
           << ", \"cycles\": " << c.cycles << ",\n";
        os << "     \"fast_sec\": ";
        appendNumber(os, c.fastSec);
        os << ", \"fast_ips\": ";
        appendNumber(os, c.fastIps());
        os << ", \"fast_cps\": ";
        appendNumber(os, c.fastCps());
        os << ",\n     \"switch_sec\": ";
        appendNumber(os, c.switchSec);
        os << ", \"switch_ips\": ";
        appendNumber(os, c.switchIps());
        os << ", \"threaded_sec\": ";
        appendNumber(os, c.threadedSec);
        os << ", \"threaded_ips\": ";
        appendNumber(os, c.threadedIps());
        os << ",\n     \"ref_sec\": ";
        appendNumber(os, c.refSec);
        os << ", \"ref_ips\": ";
        appendNumber(os, c.refIps());
        os << ", \"ref_cps\": ";
        appendNumber(os, c.refCps());
        os << ", \"speedup\": ";
        appendNumber(os, c.speedup());
        os << "}";
    }
    os << (report.cells.empty() ? "],\n" : "\n  ],\n");
    os << "  \"geomean_fast_ips\": ";
    appendNumber(os, report.geomeanFastIps());
    os << ",\n  \"geomean_ref_ips\": ";
    appendNumber(os, report.geomeanRefIps());
    os << ",\n  \"geomean_speedup\": ";
    appendNumber(os, report.geomeanSpeedup());
    os << ",\n  \"geomean_switch_ips\": ";
    appendNumber(os, report.geomeanSwitchIps());
    os << ",\n  \"geomean_threaded_ips\": ";
    appendNumber(os, report.geomeanThreadedIps());
    os << ",\n  \"geomean_threaded_speedup\": ";
    appendNumber(os, report.geomeanThreadedSpeedup());
    os << "\n}";
    return os.str();
}

void
selfBenchExportTo(const SelfBenchReport &report, MetricsRegistry &registry)
{
    for (const SelfBenchCell &c : report.cells) {
        std::string prefix = "selfbench." +
                             sanitizeMetricKey(c.spec.workload) + ".w" +
                             std::to_string(c.spec.width) + "." +
                             sanitizeMetricKey(c.spec.predictor) + ".";
        registry.gauge(prefix + "fast_ips").set(c.fastIps());
        registry.gauge(prefix + "fast_cps").set(c.fastCps());
        registry.gauge(prefix + "switch_ips").set(c.switchIps());
        registry.gauge(prefix + "threaded_ips").set(c.threadedIps());
        registry.gauge(prefix + "ref_ips").set(c.refIps());
        registry.gauge(prefix + "speedup").set(c.speedup());
    }
    registry.gauge("selfbench.geomean_fast_ips")
        .set(report.geomeanFastIps());
    registry.gauge("selfbench.geomean_speedup")
        .set(report.geomeanSpeedup());
    registry.gauge("selfbench.geomean_switch_ips")
        .set(report.geomeanSwitchIps());
    registry.gauge("selfbench.geomean_threaded_ips")
        .set(report.geomeanThreadedIps());
}

SelfBenchBaseline
loadSelfBenchBaseline(const std::string &path)
{
    SelfBenchBaseline base;
    std::ifstream in(path);
    if (!in) {
        base.error = "cannot open " + path;
        return base;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();

    std::string schema;
    if (!scanJsonString(text, "schema", &schema)) {
        base.error = "no schema field in " + path;
        return base;
    }
    unsigned version = 0;
    if (!parseVersionedHeader(schema, kSelfBenchMagic, kSelfBenchVersion,
                              &version)) {
        base.error = "not a " + std::string(kSelfBenchMagic) +
                     " file: " + path;
        return base;
    }
    base.version = version;
    if (!scanJsonNumber(text, "geomean_fast_ips",
                        &base.geomeanFastIps) ||
        !scanJsonNumber(text, "geomean_speedup",
                        &base.geomeanSpeedup)) {
        base.error = "missing geomean fields in " + path;
        return base;
    }
    // v2 stream geomeans: optional, so a v1 baseline still loads with
    // gates on these streams skipping (value 0).
    scanJsonNumber(text, "geomean_switch_ips", &base.geomeanSwitchIps);
    scanJsonNumber(text, "geomean_threaded_ips",
                   &base.geomeanThreadedIps);
    base.ok = true;
    return base;
}

} // namespace vanguard
