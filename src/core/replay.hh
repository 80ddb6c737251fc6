/**
 * @file
 * Failure-replay bundles: a failed job's worker frame, on disk.
 *
 * When an experiment job fails, the runner writes the job exactly as a
 * spawned or remote worker receives it (core/worker_pool.hh): the full
 * BenchmarkSpec, the hexfloat-exact options, the fused widths cut to
 * the lane that failed, and for a simulate job the serialized TRAIN
 * profile. `vanguard_cli --replay <bundle>` runs that job through
 * JobBodyRunner::run, the body every worker runs, under the lockstep
 * oracle, so the failure is reproduced and diagnosed away from the
 * sweep it surfaced in. A job is a pure function of its frame, so a
 * bundle replays bit-identically, and its bytes do not depend on the
 * execution mode that wrote it.
 *
 * Format: a header and the recorded failure, then the job frame
 * (`serializeWorkerJob`) verbatim to the end of the file:
 *
 *   vanguard-replay v2
 *   error-kind Hang
 *   error-msg width 2: cycle budget exceeded: ...
 *   vanguard-workerjob v2
 *   phase simulate
 *   ...
 *
 * Compile runs only in the supervisor, so a compile failure is bundled
 * as its benchmark's experimental simulate job at the first REF seed;
 * compile raises before that job simulates anything.
 */

#ifndef VANGUARD_CORE_REPLAY_HH
#define VANGUARD_CORE_REPLAY_HH

#include <string>

#include "core/worker_pool.hh"

namespace vanguard {

/** One bundle: the failed job and the failure it raised. */
struct ReplayJob
{
    WorkerJob job;
    std::string errorKind;     ///< SimError kind name
    std::string errorMessage;  ///< one line
};

std::string serializeReplayJob(const ReplayJob &replay);

/**
 * Parse a bundle. A malformed bundle, or one of the retired v1 format,
 * returns false with `*error` (naming the version for v1); a future
 * version raises SimError(Io) naming it.
 */
bool parseReplayJob(const std::string &text, ReplayJob *out,
                    std::string *error);

/** Read and parse a bundle file. */
bool loadReplayJob(const std::string &path, ReplayJob *out,
                   std::string *error);

} // namespace vanguard

#endif // VANGUARD_CORE_REPLAY_HH
