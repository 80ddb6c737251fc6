/**
 * @file
 * Deterministic failure-replay bundles.
 *
 * When an experiment job fails, the runner captures everything needed
 * to re-execute exactly that job solo — benchmark, width,
 * configuration, REF seed, and the full VanguardOptions vector — in a
 * small, stable, diff-able text bundle (same spirit as the
 * profile_io.hh v1 format). `vanguard_cli --replay <bundle>`
 * re-executes the job under the lockstep oracle so the failure is
 * reproduced and diagnosed away from the 4800-job sweep it surfaced
 * in. Simulation jobs are pure functions of (spec, options, seed), so
 * a bundle replays bit-identically.
 *
 * Format (one `key value` pair per line, '#' comments, message last):
 *
 *   vanguard-replay v1
 *   benchmark h264ref-like
 *   phase simulate
 *   width 4
 *   config exp
 *   seed 0xbef1
 *   iterations 30000
 *   opt predictor gshare3
 *   opt ...
 *   error-kind Hang
 *   error-msg cycle budget exceeded: ...
 */

#ifndef VANGUARD_CORE_REPLAY_HH
#define VANGUARD_CORE_REPLAY_HH

#include <sstream>
#include <string>

#include "core/vanguard.hh"
#include "support/error.hh"

namespace vanguard {

struct ReplayBundle
{
    std::string benchmark;
    std::string phase = "simulate"; ///< train | compile | simulate
    unsigned width = 4;
    int config = 1;                 ///< 0 baseline, 1 experimental
    uint64_t seed = 0;
    uint64_t iterations = 0;
    VanguardOptions options;        ///< width duplicated for fidelity

    /** The failure as originally recorded. */
    std::string errorKind;
    std::string errorMessage;
};

std::string serializeReplayBundle(const ReplayBundle &bundle);

/**
 * The `opt <name> <value>` lines shared by the replay-bundle format
 * and the journal's canonical sweep-spec string — the one place the
 * full VanguardOptions vector is spelled out as text.
 */
std::string serializeOptionsLines(const VanguardOptions &opts);

/**
 * Parse the rest of one `opt <name> <value>` line (the stream is
 * positioned after `opt`) into `o` — the one options text parser,
 * shared by replay bundles and worker job frames. Doubles accept both
 * the bundle's decimal and the job frame's hexfloat spelling. An
 * unknown name, or a value that is not exactly one whole token of its
 * type (flags are 0 or 1, counts unsigned), returns false with an
 * `*error` naming the key and leaves `o` untouched.
 */
bool parseOptLine(std::istringstream &ls, VanguardOptions *o,
                  std::string *error);

struct ReplayParseResult
{
    ReplayBundle bundle;
    bool ok = false;
    std::string error;
};

ReplayParseResult parseReplayBundle(const std::string &text);

/** Read and parse a bundle file (Io error in `error` on failure). */
ReplayParseResult loadReplayBundle(const std::string &path);

/** What happened when a bundle was re-executed. */
struct ReplayOutcome
{
    bool failed = false;       ///< the replay raised a SimError
    bool reproduced = false;   ///< ... of the recorded kind
    std::string kind;          ///< kind raised (empty if clean)
    std::string message;       ///< message raised (empty if clean)
    SimStats stats;            ///< stats of a clean replay
};

/**
 * Re-execute the bundle's job solo. Train/compile always rerun (they
 * are inputs to a simulate-phase job); `lockstep` additionally arms
 * the differential oracle so divergence-class failures reproduce with
 * their exact divergence point.
 */
ReplayOutcome replayBundle(const ReplayBundle &bundle,
                           bool lockstep = true);

} // namespace vanguard

#endif // VANGUARD_CORE_REPLAY_HH
