/**
 * @file
 * Crash-safe sweep journal: the `vanguard-journal v3` format.
 *
 * A journal is an append-only, per-record-checksummed ledger of
 * completed experiment jobs, written next to a sweep so that an
 * OOM-kill, Ctrl-C, disk-full, or reboot at job 4700/4800 loses at
 * most the jobs that were literally in flight. Layout:
 *
 *   vanguard-journal v3
 *   spec 4f2a9c01d3e8b7a6      # FNV-1a of the canonical sweep spec
 *   jobs 488                   # total jobs in the sweep
 *   T 0 ok @1a2b3c4d
 *   C 3 ok @...
 *   S 17 ok widths 3 2 4 8 lane <counters...> stalls <n>
 *       <id:cyc:ev>... bpred <n> <key>:<val>... lane ... @...
 *   S 18 fail Hang 1 <bundle> <message> @...
 *
 * One line per record: phase letter (T=train, C=compile, S=simulate),
 * the deterministic job index within that phase, `ok` or `fail`, the
 * payload, and ` @<crc32>` over everything before it. A torn or
 * bit-rotted line fails its CRC and is simply *absent* — the job
 * re-runs on resume; nothing downstream trusts a partial record. The
 * header is written with writeFileAtomic (write-temp + fsync +
 * rename) and every appended record is fsync'd, so the ledger is
 * exactly as durable as the filesystem allows.
 *
 * Train and compile records are indexed by benchmark. A simulate job
 * is one (benchmark, config, REF seed) triple timed at every width of
 * the sweep in one fused pass, so its `ok` record carries the width
 * list (at most kMaxSweepWidths entries, each 1..kMaxWidthValue) and
 * exactly one full SimStats block per width — counters, the
 * per-branch stall map backing ASPCB, and the predictor-internal
 * `bpred.*` counters — so a resumed sweep replays them bit-identically
 * without re-simulating. `ok` train records pair with a checkpointed
 * TRAIN profile file (`train-<benchmark>.vgp`, the profile_io v1
 * format); compile records are completion markers — compiled programs
 * are cheap, pure recomputations and are rebuilt on resume. `fail`
 * records replay as the original JobFailure (kind, attempts, message,
 * bundle path).
 *
 * Resume validation: the `spec` line must match the resuming sweep's
 * canonical (benchmark list, widths, seeds, options) fingerprint;
 * a mismatch refuses with SimError(Config). Unknown future journal
 * versions refuse with SimError(Io) via parseVersionedHeader; a
 * journal of an older version parses (JournalContents::version says
 * which) but the runner refuses to resume from it.
 */

#ifndef VANGUARD_CORE_JOURNAL_HH
#define VANGUARD_CORE_JOURNAL_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/vanguard.hh"
#include "support/error.hh"
#include "uarch/pipeline.hh"

namespace vanguard {

/**
 * The journal format version written. v3: one 'S' record per fused
 * (benchmark, config, seed) job, carrying its width list and one stats
 * block per width; 'C' records are indexed by benchmark. Older
 * journals index per width and are refused on resume.
 */
inline constexpr unsigned kJournalVersion = 3;

/** Most widths one sweep (and so one simulate record) may carry. */
inline constexpr size_t kMaxSweepWidths = 16;

/** Largest machine width a journal or job frame accepts. */
inline constexpr unsigned kMaxWidthValue = 1024;

/** One journaled job completion (success or failure). */
struct JournalRecord
{
    char phase = 'S';       ///< 'T' train, 'C' compile, 'S' simulate
    size_t index = 0;       ///< deterministic job index in its phase
    bool ok = true;

    // fail payload
    SimError::Kind kind = SimError::Kind::Internal;
    unsigned attempts = 1;
    std::string message;
    std::string bundlePath;

    // ok simulate payload: one SimStats per width, in sweep order
    std::vector<unsigned> widths;
    std::vector<SimStats> lanes;
};

/** Serialize one record to its journal line (CRC included). */
std::string serializeJournalRecord(const JournalRecord &rec);

/** Parse one line; false for corrupt/CRC-failed/foreign lines. */
bool parseJournalRecord(const std::string &line, JournalRecord *out);

/** Everything a journal file held. */
struct JournalContents
{
    bool ok = false;        ///< header present and readable
    std::string error;      ///< why not, when !ok
    unsigned version = 0;
    std::string specHash;
    size_t totalJobs = 0;

    std::map<size_t, JournalRecord> train;
    std::map<size_t, JournalRecord> compile;
    std::map<size_t, JournalRecord> sim;

    size_t corruptLines = 0; ///< records dropped by CRC/parse
    size_t duplicates = 0;   ///< valid re-records of the same slot

    size_t
    records() const
    {
        return train.size() + compile.size() + sim.size();
    }
};

/**
 * Parse a journal. Throws SimError(Io) for an unknown/future format
 * version; every lesser problem is reported through `ok`/`error`
 * (missing header) or counted (corrupt records) — a half-written
 * journal is normal after a crash, not an error.
 */
JournalContents parseJournal(const std::string &text);

/** Read and parse a journal file (!ok with error if unreadable). */
JournalContents loadJournalFile(const std::string &path);

/**
 * The canonical sweep-spec string whose FNV-1a hash keys a journal:
 * benchmark names+iterations, widths, REF seeds, and the full
 * options vector (via serializeOptionsLines). Any change to these
 * invalidates checkpoints by construction.
 */
std::string sweepSpecCanonical(const std::vector<BenchmarkSpec> &suite,
                               const std::vector<unsigned> &widths,
                               const VanguardOptions &base);

/** 16-hex-digit FNV-1a fingerprint of sweepSpecCanonical. */
std::string sweepSpecHash(const std::vector<BenchmarkSpec> &suite,
                          const std::vector<unsigned> &widths,
                          const VanguardOptions &base);

/**
 * Append-side handle: created fresh (atomic header write, then
 * append) or opened onto an existing journal for resume. append() is
 * mutex-guarded (workers call it concurrently), fsyncs each record,
 * and throws SimError(Io) on write trouble — callers treat that as
 * "this record is not durable" and keep the sweep going.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Write a fresh header (replacing any old journal), open append. */
    void create(const std::string &path, const std::string &spec_hash,
                size_t total_jobs);

    /** Open an existing journal for appending (resume). */
    void openAppend(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    void append(const JournalRecord &rec);

  private:
    int fd_ = -1;
    std::string path_;
    std::mutex mutex_;
};

} // namespace vanguard

#endif // VANGUARD_CORE_JOURNAL_HH
