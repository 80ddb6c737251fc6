#include "core/experiment.hh"

#include <cstdio>

#include "core/runner.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace vanguard {

double
geomeanPct(const std::vector<double> &pcts)
{
    std::vector<double> ratios;
    ratios.reserve(pcts.size());
    for (double p : pcts)
        ratios.push_back(1.0 + p / 100.0);
    return (geomean(ratios) - 1.0) * 100.0;
}

std::string
renderSpeedupFigure(const std::string &title,
                    const std::vector<BenchmarkSpec> &suite,
                    const std::vector<unsigned> &widths,
                    const VanguardOptions &base, bool best_input,
                    const RunnerOptions &ropts_in,
                    std::vector<JobFailure> *failures_out)
{
    std::vector<std::string> headers = {"benchmark"};
    for (unsigned w : widths)
        headers.push_back(std::to_string(w) + "-wide %");
    TablePrinter table(std::move(headers));

    // All widths go into one pool: (benchmark x width x config x
    // seed) simulation jobs run concurrently instead of serial
    // per-width passes.
    RunnerOptions ropts = ropts_in;
    if (ropts.tag.empty())
        ropts.tag = title;
    std::fprintf(stderr,
                 "[%s] %zu benchmarks x %zu widths x %zu REF seeds "
                 "on %u workers...\n",
                 title.c_str(), suite.size(), widths.size(),
                 kNumRefSeeds, ThreadPool::resolveWorkerCount());
    SuiteReport report = runSuiteWidthsReport(suite, widths, base, ropts);
    if (report.interrupted) {
        // Nothing was assembled; rendering rows would index into an
        // empty results vector. The journal (if any) holds what
        // completed; the caller decides how to surface the interrupt.
        std::fprintf(stderr,
                     "[%s] sweep interrupted before completion "
                     "(%zu failures recorded)\n",
                     title.c_str(), report.failures.size());
        if (failures_out != nullptr)
            *failures_out = std::move(report.failures);
        return title + "\n(interrupted before completion)\n";
    }
    const std::vector<SuiteResult> &per_width = report.results;

    for (size_t b = 0; b < suite.size(); ++b) {
        std::vector<std::string> cells = {suite[b].name};
        for (size_t w = 0; w < widths.size(); ++w) {
            const SeedSummary &row = per_width[w].rows[b];
            if (row.failedSeeds >= kNumRefSeeds)
                cells.push_back("FAIL");
            else
                cells.push_back(TablePrinter::fmt(
                    best_input ? row.bestSpeedupPct
                               : row.meanSpeedupPct));
        }
        table.addRow(std::move(cells));
    }
    std::vector<std::string> geo = {"GEOMEAN"};
    for (size_t w = 0; w < widths.size(); ++w) {
        geo.push_back(TablePrinter::fmt(
            best_input ? per_width[w].geomeanBestPct
                       : per_width[w].geomeanMeanPct));
    }
    table.addRow(std::move(geo));

    if (!report.failures.empty()) {
        std::fprintf(stderr, "[%s] %zu job(s) failed:\n%s",
                     title.c_str(), report.failures.size(),
                     renderFailureTable(report.failures).c_str());
    }
    if (failures_out != nullptr)
        *failures_out = std::move(report.failures);

    return title + "\n" + table.render();
}

std::string
renderSpeedupFigure(const std::string &title,
                    const std::vector<BenchmarkSpec> &suite,
                    const std::vector<unsigned> &widths,
                    const VanguardOptions &base, bool best_input)
{
    return renderSpeedupFigure(title, suite, widths, base, best_input,
                               RunnerOptions{}, nullptr);
}

} // namespace vanguard
