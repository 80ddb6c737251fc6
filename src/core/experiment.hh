/**
 * @file
 * Suite-level experiment harness shared by the bench binaries: run a
 * whole suite at one or more widths and render paper-style tables.
 */

#ifndef VANGUARD_CORE_EXPERIMENT_HH
#define VANGUARD_CORE_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/vanguard.hh"

namespace vanguard {

struct SuiteResult
{
    std::vector<SeedSummary> rows;
    double geomeanMeanPct = 0.0;
    double geomeanBestPct = 0.0;
};

struct RunnerOptions; // core/runner.hh
struct JobFailure;    // core/runner.hh

/**
 * The paper's speedup-figure layout: one row per benchmark, one
 * column per width, with a trailing Geomean row.
 *
 * Runs fault-tolerantly: a benchmark whose every seed failed renders
 * as "FAIL" and the failure summary table goes to stderr; the figure
 * itself still completes from the surviving jobs. Pass
 * `failures_out` to additionally receive the failure records (e.g.
 * for threshold-based exit codes).
 *
 * @param best_input use the best REF input (Figs. 9/11) instead of
 *                   the all-inputs average (Figs. 8/10/12/13).
 */
std::string renderSpeedupFigure(
    const std::string &title,
    const std::vector<BenchmarkSpec> &suite,
    const std::vector<unsigned> &widths, const VanguardOptions &base,
    bool best_input, const RunnerOptions &ropts,
    std::vector<JobFailure> *failures_out = nullptr);

/** Convenience overload with default runner options. */
std::string renderSpeedupFigure(
    const std::string &title,
    const std::vector<BenchmarkSpec> &suite,
    const std::vector<unsigned> &widths, const VanguardOptions &base,
    bool best_input);

/** Geomean of (1 + pct/100) ratios expressed back as a percent. */
double geomeanPct(const std::vector<double> &pcts);

} // namespace vanguard

#endif // VANGUARD_CORE_EXPERIMENT_HH
