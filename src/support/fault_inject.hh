/**
 * @file
 * Deterministic, site-keyed fault injection.
 *
 * Production experiment engines prove their recovery logic (retry,
 * isolation, journaling, resume) by injecting faults on purpose. This
 * injector is seeded and *reproducible*: whether a given site call
 * fires depends only on (plan seed, scope key, site name, draw index
 * within the scope) — never on thread scheduling — so a "fault storm"
 * sweep fails the exact same jobs in the exact same way on every run
 * at any worker count.
 *
 * Sites are named probes threaded through the code base; each raises
 * the matching SimError kind when its draw fires. Catalog:
 *
 *   site               kind   where
 *   ----               ----   -----
 *   job.attempt        Io     top of every experiment-job attempt
 *                             (transient: exercises the retry path)
 *   journal.append     Io     each checkpoint-journal record write
 *   atomic-file.write  Io     writeFileAtomic (journal header, TRAIN
 *                             profile checkpoints, replay bundles)
 *   interp.step        Hang   functional interpreter, every 4096 insts
 *   pipeline.cycle     Hang   timing model, every 4096 retired insts
 *   pipeline.commit    Fault  timing model, every 4096 retired insts
 *   worker.spawn       Io     coordinator, before each worker fork/exec
 *                             (transient: exercises backoff respawn)
 *   worker.heartbeat   Hang   worker lease loop, once per job (a fire
 *                             suppresses all of the job's renews, so
 *                             its lease expires: a hang on a spawned
 *                             worker, a re-grant on a remote one)
 *   worker.kill        Internal  worker job preamble; the worker
 *                             converts a fire into raise(SIGKILL), so
 *                             an `internal:p` plan SIGKILLs workers
 *                             mid-job deterministically. Keyed by
 *                             (job scope, delivery ordinal): a
 *                             redelivered job draws fresh, so a killed
 *                             job recovers on its next delivery. No
 *                             other site uses kind Internal, and a
 *                             killed worker never reports the firing,
 *                             so `internal:p` plans leave inproc runs
 *                             and fault gauges untouched.
 *   telemetry.emit     Io     flight-recorder dump (FlightRecorder::
 *                             dump is best-effort by contract: a fire
 *                             is warned and swallowed, never fatal —
 *                             chaos runs prove a failing dump cannot
 *                             turn a drained sweep into a crash)
 *
 * Network sites live in a *separate* plan (armNet / netSiteFires /
 * VANGUARD_NET_FAULT_PLAN) so the sweep fabric's chaos is orthogonal
 * to job-body faults: arming net.* never perturbs the job draw
 * streams, which is what lets a partition-riddled distributed run
 * stay byte-identical to a clean local one. Net sites never throw and
 * never count — every firing is an *omission* (a swallowed frame, a
 * dropped connection, a stall) that the fabric's lease/retry machinery
 * must absorb. They also take scope and draw index explicitly rather
 * than via the thread-local Scope, because one coordinator service
 * thread interleaves many connections: each connection carries its own
 * draw cursor, keeping per-connection fault patterns scheduling-
 * independent. Catalog:
 *
 *   net.accept         Io     coordinator, after each accept (a fire
 *                             closes the new connection immediately)
 *   net.frame.drop     Io     sendFrameNet: frame silently swallowed
 *   net.frame.delay    Hang   sendFrameNet: ~40 ms stall before send
 *   net.disconnect     Io     sendFrameNet: socket shut down both ways
 *
 * Scoping: the experiment runner wraps each job attempt in a
 * faultinject::Scope keyed by (phase, job index, attempt), which
 * resets the thread-local draw counter — the draw sequence inside a
 * job is single-threaded and therefore deterministic. Site calls
 * outside any scope (e.g. CLI-level writes) use the ambient scope 0.
 * Worker processes re-enter the job scope with the draw counter
 * pre-advanced past the draws the supervisor already consumed
 * (Scope's start_draw overload), so the in-job draw sequence is
 * byte-identical between isolation modes.
 *
 * Disarmed (the default), site() is one relaxed atomic load; nothing
 * else in the simulator changes. Arm via parseFaultPlan +
 * faultinject::arm (CLI: `--inject io:0.01,hang:0.005,seed=42`, or
 * the VANGUARD_FAULT_PLAN environment variable), and only while no
 * jobs are in flight.
 */

#ifndef VANGUARD_SUPPORT_FAULT_INJECT_HH
#define VANGUARD_SUPPORT_FAULT_INJECT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "support/error.hh"

namespace vanguard {

/** Per-kind firing probabilities plus the storm seed. */
struct FaultPlan
{
    static constexpr size_t kNumKinds = 7;

    double rates[kNumKinds] = {};   ///< indexed by SimError::Kind
    uint64_t seed = 0;

    double &
    rateFor(SimError::Kind kind)
    {
        return rates[static_cast<size_t>(kind)];
    }

    double
    rateFor(SimError::Kind kind) const
    {
        return rates[static_cast<size_t>(kind)];
    }

    bool
    any() const
    {
        for (double r : rates)
            if (r > 0.0)
                return true;
        return false;
    }
};

/**
 * Parse "io:0.01,hang:0.005,seed=42" (an optional leading "faults="
 * is accepted, matching the --inject flag's long form). Kind names
 * are lower-cased SimError kind names; rates must lie in [0, 1].
 * Throws SimError(Config) on anything unrecognized.
 */
FaultPlan parseFaultPlan(const std::string &spec);

/**
 * Serialize a plan back to parseFaultPlan() syntax, rates at full
 * precision ("io:0.25,seed=7"). Used to forward the supervisor's
 * armed plan to worker processes so both sides draw identically.
 */
std::string faultPlanSpec(const FaultPlan &plan);

namespace faultinject {

namespace detail {

inline std::atomic<bool> g_armed{false};
inline std::atomic<bool> g_net_armed{false};

/** Slow path: draw and maybe throw. Defined in fault_inject.cc. */
void fire(const char *site_name, SimError::Kind kind);

/** Draw only: true when the site would fire. No count, no throw. */
bool draw(const char *site_name, SimError::Kind kind);

} // namespace detail

/** Arm the injector. Call only while no jobs are in flight. */
void arm(const FaultPlan &plan);

/** Disarm and keep the injection counters readable. */
void disarm();

inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * The probe: throws SimError(kind) if the deterministic draw for this
 * (seed, scope, site, draw-index) fires. A no-op unless armed.
 */
inline void
site(const char *name, SimError::Kind kind)
{
    if (armed())
        detail::fire(name, kind);
}

/**
 * Like site(), but reports the outcome instead of throwing and does
 * not touch the injected counters. For probes whose "fault" is an
 * omission (the worker heartbeat suppressor) rather than an error —
 * keeping the throwing counters deterministic across isolation modes.
 */
inline bool
siteFires(const char *name, SimError::Kind kind)
{
    return armed() && detail::draw(name, kind);
}

/**
 * RAII scope key: resets the thread-local draw counter so the draw
 * sequence is a pure function of the scope, not of what ran earlier
 * on this worker thread. Nests (restores the outer scope's counter).
 */
class Scope
{
  public:
    explicit Scope(uint64_t key);
    /**
     * Enter `key` with the draw counter already at `start_draw`.
     * Worker processes use this to skip the draws the supervisor
     * consumed under the same key before dispatching the job.
     */
    Scope(uint64_t key, uint64_t start_draw);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    uint64_t prev_key_;
    uint64_t prev_count_;
};

/** Injections of `kind` actually thrown since the last arm(). */
uint64_t injectedCount(SimError::Kind kind);

/**
 * The calling thread's draw count within the current Scope. The
 * supervisor samples this at job-dispatch time and ships it as the
 * worker's start_draw, so the worker's in-body draw sequence continues
 * exactly where the supervisor's left off.
 */
uint64_t currentDrawCount();

/** A copy of the armed plan (meaningful only while armed()). */
FaultPlan currentPlan();

/**
 * Fold injections that fired in a worker process into this process's
 * counters (reported back per job over the result frame), so
 * engine.faults.injected.* gauges match the in-process pool.
 */
void recordRemoteInjections(SimError::Kind kind, uint64_t count);

/** Arm from VANGUARD_FAULT_PLAN if set; returns whether it armed. */
bool maybeArmFromEnv();

// ---------------------------------------------------------------------
// Network fault plan (sweep fabric; see the net.* catalog above)
// ---------------------------------------------------------------------

/** Arm the network plan. Call only while no connections are live. */
void armNet(const FaultPlan &plan);

/** Disarm the network plan. */
void disarmNet();

inline bool
netArmed()
{
    return detail::g_net_armed.load(std::memory_order_relaxed);
}

/**
 * Draw a net.* site against the network plan with an explicit
 * (scope, draw index) — pure function of (net seed, scope, site,
 * draw), independent of threads and of the job plan's Scope state.
 * Never throws, never counts: callers enact the omission themselves.
 */
bool netSiteFires(const char *site, SimError::Kind kind,
                  uint64_t scope, uint64_t draw);

/** Arm from VANGUARD_NET_FAULT_PLAN if set; returns whether it armed.
 *  How remote workers inherit the coordinator's net chaos. */
bool maybeArmNetFromEnv();

/** A copy of the armed network plan (meaningful only while
 *  netArmed()). Serialized into the remote-worker config frame. */
FaultPlan currentNetPlan();

} // namespace faultinject

} // namespace vanguard

#endif // VANGUARD_SUPPORT_FAULT_INJECT_HH
