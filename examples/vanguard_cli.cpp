/**
 * @file
 * vanguard_cli — the kitchen-sink command-line front end.
 *
 *   vanguard_cli [options]
 *     --benchmark NAME     suite benchmark (default h264ref-like)
 *     --list               list all suite benchmarks and exit
 *     --width N            issue width, 1..127 (the paper's are 2, 4
 *                          and 8; default 4)
 *     --predictor NAME     bimodal|local|gshare|gshare3|gshare3-big|
 *                          perceptron|tage|isltage|ideal:<p>
 *     --iterations N       loop trip count, >= 1 (default 15000)
 *     --seed N             REF input seed (default first REF seed)
 *     --all-refs           evaluate every REF input through the
 *                          parallel experiment engine (mean/best)
 *     --jobs N             engine worker threads, 1..4x the hardware
 *                          threads (default: the VANGUARD_JOBS env
 *                          var, then all cores)
 *     --no-decompose       measure the baseline configuration only
 *     --no-superblock      disable the biased-branch pass
 *     --no-shadow-commit   commit MOVs consume issue slots
 *     --dbb N              Decomposed Branch Buffer entries (1..65536)
 *     --threshold P        selection threshold, a number in [0, 1]
 *                          (default 0.05)
 *     --save-profile FILE  write the TRAIN profile (PGO artifact)
 *     --load-profile FILE  reuse a saved profile instead of training
 *     --dump-ir            print the transformed IR
 *     --dump-asm           print the laid-out program
 *     --timeline           print a steady-state pipeline timeline
 *     --gantt-window N     timeline window size in instructions,
 *                          1..65536 (default 256; overflow is
 *                          reported)
 *     --stats              print the full counter set
 *     --metrics-out FILE   write the metrics-registry dump
 *                          (vanguard-metrics v1 JSON)
 *     --trace-out FILE     write a Chrome trace-event JSON timeline
 *                          (open in Perfetto / chrome://tracing)
 *     --lockstep           run the functional-oracle differential
 *                          check alongside every simulation
 *     --cycle-budget N     watchdog cycle budget (0 disables)
 *     --replay-dir DIR     write a replay bundle per failed job
 *     --fail-threshold N   with --all-refs: tolerate up to N failed
 *                          jobs before exiting 3
 *     --replay FILE        re-execute a failure bundle solo (under
 *                          lockstep) and report whether it reproduced
 *                          (exit 2 if its options are unusable)
 *     --checkpoint-dir DIR with --all-refs: journal every completed
 *                          job (crash-safe ledger + TRAIN profiles)
 *     --resume             continue a checkpointed sweep: replay
 *                          journaled jobs, run only the missing ones
 *     --inject SPEC        arm the deterministic fault injector,
 *                          e.g. "io:0.01,hang:0.005,seed=7"
 *     --isolate-jobs       with --all-refs: run train/simulate job
 *                          bodies in supervised worker processes
 *                          (crash/hang/OOM isolation; byte-identical
 *                          output to the in-process pool)
 *     --worker-rlimit-mb MB  RLIMIT_AS cap per worker process
 *     --worker FD          internal: run as a pool worker speaking
 *                          the frame protocol on FD (spawned by the
 *                          supervisor, never by hand)
 *     --serve-sweep PORT   with --all-refs: serve the sweep as a TCP
 *                          coordinator leasing job bodies to remote
 *                          workers (0 = ephemeral port; the resolved
 *                          port is printed to stderr); byte-identical
 *                          output to the local paths
 *     --lease-ms MS        lease duration / renew base for
 *                          --isolate-jobs (50..3600000; a spawned
 *                          worker that stops renewing is killed and
 *                          the job fails with SimError(Hang)) or
 *                          --serve-sweep (500..3600000; the job is
 *                          re-granted); default 10000
 *     --remote-worker H:P  standalone mode: connect to a coordinator
 *                          at host H port P, claim and execute leased
 *                          jobs until drained or signalled;
 *                          reconnects across coordinator restarts
 *     --net-inject SPEC    arm the deterministic network-fault
 *                          injector (frame drops/delays/disconnects;
 *                          also via VANGUARD_NET_FAULT_PLAN);
 *                          orthogonal to --inject — network chaos
 *                          never perturbs simulation results
 *     --telemetry-port P   with --all-refs: serve a live telemetry
 *                          endpoint on port P (0 = ephemeral; the
 *                          resolved port is printed to stderr):
 *                          GET /metrics (Prometheus text),
 *                          /progress (JSON), /healthz. Strictly
 *                          observational — sweep output is
 *                          byte-identical with it on or off
 *     --flightrec-out F    with --all-refs: always dump the crash
 *                          flight recorder (vanguard-flightrec v1)
 *                          to F at sweep end; without it the ring is
 *                          dumped into --replay-dir (or
 *                          --checkpoint-dir) only when the sweep
 *                          fails, is interrupted, or dies on a
 *                          SimError
 *     --help               print usage and exit 0
 *
 * Exit codes: 0 success, 1 simulator error, 2 usage,
 * 3 sweep failures exceeded --fail-threshold, 4 sweep interrupted by
 * SIGINT/SIGTERM (checkpointed work is resumable with --resume).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include <fstream>
#include <sstream>

#include "bpred/factory.hh"
#include "compiler/layout.hh"
#include "compiler/select.hh"
#include "core/coordinator.hh"
#include "core/journal.hh"
#include "core/replay.hh"
#include "core/runner.hh"
#include "core/worker_pool.hh"
#include "core/vanguard.hh"
#include "profile/profile_io.hh"
#include "support/atomic_file.hh"
#include "support/fault_inject.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/shutdown.hh"
#include "support/stats.hh"
#include "support/telemetry.hh"
#include "support/thread_pool.hh"
#include "support/tracing.hh"
#include "uarch/trace.hh"
#include "workloads/suites.hh"

using namespace vanguard;

namespace {

/** Largest --gantt-window: the timeline renders one row per window
 *  instruction, and the capture buffer is sized from it up front. */
constexpr size_t kMaxGanttWindow = 65536;

void
dumpStats(const char *label, const SimStats &s)
{
    // The same canonical counter set the metrics registry exports
    // (uarch.* plus the predictor-internal bpred.* counters), printed
    // one per line, plus the two derived rates.
    MetricSnapshot snap = simStatsSnapshot(s);
    for (const auto &e : snap.entries) {
        std::printf("%s.%s = %llu\n", label, e.path.c_str(),
                    static_cast<unsigned long long>(e.value));
    }
    std::printf("%s.derived.ipc = %.4f\n", label, s.ipc());
    std::printf("%s.derived.mppki = %.4f\n", label, s.mppki());
}

void
writeMetricsFile(const std::string &path, const MetricsRegistry &reg)
{
    writeFileAtomic(path, reg.toJson());
    std::fprintf(stderr, "metrics written to %s\n", path.c_str());
}

void
writeTraceFile(const std::string &path, const Tracer &tracer)
{
    writeFileAtomic(path, tracer.toChromeJson());
    std::fprintf(stderr, "trace written to %s (open in Perfetto)\n",
                 path.c_str());
}

void
printUsage(std::FILE *to)
{
    std::fprintf(to,
        "usage: vanguard_cli [--benchmark NAME] [--list] "
        "[--width N] [--predictor NAME] [--iterations N] "
        "[--seed N] [--all-refs] [--jobs N] "
        "[--no-decompose] [--no-superblock] "
        "[--no-shadow-commit] [--dbb N] [--threshold P] "
        "[--save-profile F] [--load-profile F] "
        "[--dump-ir] [--dump-asm] [--timeline] [--gantt-window N] "
        "[--stats] [--metrics-out F] [--trace-out F] "
        "[--lockstep] [--cycle-budget N] [--replay-dir D] "
        "[--fail-threshold N] [--replay FILE] "
        "[--checkpoint-dir D] [--resume] [--inject SPEC] "
        "[--isolate-jobs] [--worker-rlimit-mb MB] "
        "[--serve-sweep PORT] [--lease-ms MS] "
        "[--remote-worker HOST:PORT] [--net-inject SPEC] "
        "[--telemetry-port P] [--flightrec-out F] [--help]\n"
        "\n"
        "telemetry:\n"
        "  --metrics-out F     write the unified metrics dump "
        "(vanguard-metrics v1\n"
        "                      JSON)\n"
        "  --trace-out F       write a Chrome trace-event timeline "
        "(Perfetto)\n"
        "  --gantt-window N    --timeline window size, 1..65536 "
        "(default 256)\n"
        "\n"
        "crash safety (with --all-refs):\n"
        "  --checkpoint-dir D  journal every completed job into "
        "D/journal.vgj\n"
        "  --resume            continue D's journal: replay completed "
        "jobs,\n"
        "                      re-run only missing/corrupt ones "
        "(bit-identical)\n"
        "  --inject SPEC       deterministic fault injector, e.g.\n"
        "                      \"io:0.01,hang:0.005,fault:0.002,"
        "seed=7\"\n"
        "                      (also via VANGUARD_FAULT_PLAN)\n"
        "\n"
        "process isolation (with --all-refs):\n"
        "  --isolate-jobs      run train/simulate job bodies in "
        "supervised\n"
        "                      worker processes (SIGSEGV/OOM/hang in "
        "a job\n"
        "                      cannot kill the sweep; output is byte-"
        "identical\n"
        "                      to the in-process pool)\n"
        "  --worker-rlimit-mb MB  RLIMIT_AS cap per worker process\n"
        "  --lease-ms MS       lease a worker must renew before it is "
        "killed\n"
        "                      as hung (50..3600000, default 10000)\n"
        "\n"
        "distributed sweeps (with --all-refs):\n"
        "  --serve-sweep PORT  lease train/simulate bodies to remote "
        "workers\n"
        "                      over TCP (0 = ephemeral; resolved port "
        "printed\n"
        "                      to stderr); output is byte-identical "
        "to the\n"
        "                      local paths, including under worker "
        "crashes,\n"
        "                      partitions, and duplicate completions\n"
        "  --lease-ms MS       lease duration / renew interval base\n"
        "                      (500..3600000, default 10000); an "
        "expired\n"
        "                      lease is re-granted to a live worker\n"
        "  --remote-worker H:P standalone: claim and execute jobs "
        "from the\n"
        "                      coordinator at H:P until drained or "
        "signalled;\n"
        "                      reconnects with jittered backoff "
        "across\n"
        "                      coordinator restarts\n"
        "  --net-inject SPEC   deterministic network-fault injector "
        "(frame\n"
        "                      drop/delay/disconnect; also via\n"
        "                      VANGUARD_NET_FAULT_PLAN); orthogonal "
        "to\n"
        "                      --inject\n"
        "\n"
        "live telemetry (with --all-refs):\n"
        "  --telemetry-port P  serve GET /metrics (Prometheus text "
        "exposition),\n"
        "                      /progress (JSON: lease table, "
        "throughput, ETA,\n"
        "                      rtt/cycle percentiles), and /healthz "
        "on port P\n"
        "                      (0 = ephemeral; resolved port printed "
        "to stderr).\n"
        "                      Strictly observational: registry "
        "dumps, journals,\n"
        "                      and stdout are byte-identical with "
        "telemetry on\n"
        "                      or off\n"
        "  --flightrec-out F   always dump the in-memory crash flight "
        "recorder\n"
        "                      (vanguard-flightrec v1) to F at sweep "
        "end; by\n"
        "                      default the ring is dumped into "
        "--replay-dir (or\n"
        "                      --checkpoint-dir) only on failure, "
        "interrupt, or\n"
        "                      a fatal SimError\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  simulator error (SimError: config, fault, hang, "
        "divergence, io, ...)\n"
        "  2  usage error (unknown flag, missing argument, or "
        "unusable value)\n"
        "  3  sweep job failures exceeded --fail-threshold\n"
        "  4  sweep interrupted by SIGINT/SIGTERM; checkpointed work "
        "is\n"
        "     resumable with --resume\n"
        "\n"
        "worker processes (internal: spawned by --isolate-jobs "
        "supervisors)\n"
        "exit 0 on a clean drain, 1 on protocol failure, 127 when "
        "exec fails\n");
}

[[noreturn]] void
usageAndExit()
{
    printUsage(stderr);
    std::exit(2);
}

/** Strict unsigned parse for range-validated flag values: the whole
 *  token must be digits and the value in [lo, hi], else exit 2. */
unsigned
parseUnsignedOrDie(const char *flag, const char *text, unsigned lo,
                   unsigned hi)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi) {
        std::fprintf(stderr,
                     "vanguard_cli: %s expects an integer in "
                     "[%u, %u], got '%s'\n",
                     flag, lo, hi, text);
        usageAndExit();
    }
    return static_cast<unsigned>(v);
}

/** parseUnsignedOrDie for 64-bit values. */
uint64_t
parseU64OrDie(const char *flag, const char *text, uint64_t lo,
              uint64_t hi)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isdigit(static_cast<unsigned char>(text[0])) || v < lo ||
        v > hi) {
        std::fprintf(stderr,
                     "vanguard_cli: %s expects an integer in "
                     "[%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text);
        usageAndExit();
    }
    return v;
}

/** Strict parse for fractions: the whole token must be a finite
 *  number in [0, 1], else exit 2. */
double
parseFractionOrDie(const char *flag, const char *text)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    // A leading digit or '.' rules out what else strtod accepts:
    // blanks, a sign, "inf" and "nan". An overflow reads as inf > 1.
    bool leads = std::isdigit(static_cast<unsigned char>(text[0])) ||
                 text[0] == '.';
    if (!leads || *end != '\0' || v > 1.0) {
        std::fprintf(stderr,
                     "vanguard_cli: %s expects a number in [0, 1], "
                     "got '%s'\n",
                     flag, text);
        usageAndExit();
    }
    return v;
}

/** Re-execute a failure bundle's job solo, through the body every
 *  worker runs, under lockstep; exit 0 iff it reproduced, 2 if its
 *  options are unusable. */
int
runReplay(const std::string &path)
{
    ReplayJob r;
    std::string error;
    if (!loadReplayJob(path, &r, &error)) {
        std::fprintf(stderr, "bad replay bundle: %s\n", error.c_str());
        return 1;
    }
    WorkerJob &job = r.job;
    std::string what = job.specName + " " + job.phase;
    if (job.phase == "simulate") {
        for (size_t k = 0; k < job.widths.size(); ++k)
            what += (k == 0 ? " w" : ",") + std::to_string(job.widths[k]);
        what += job.config == 0 ? " base seed " : " exp seed ";
        what += hexU64(job.seed);
    }
    std::printf("replaying %s: %s\n", path.c_str(), what.c_str());
    std::printf("recorded failure: %s: %s\n", r.errorKind.c_str(),
                r.errorMessage.c_str());

    job.options.lockstep = true;
    WorkerResult res = JobBodyRunner().run(job);
    if (!res.ok && res.kind == SimError::Kind::Config) {
        // A bundle is outside input: options the simulator rejects are
        // a usage error, exactly as the matching flags are.
        std::fprintf(stderr,
                     "vanguard_cli: replay bundle's options are "
                     "unusable: %s\n",
                     res.message.c_str());
        return 2;
    }
    if (res.ok) {
        std::string stats;
        if (!res.lanes.empty()) {
            stats = detail::csprintf(" (%llu cycles, IPC %.3f)",
                                     static_cast<unsigned long long>(
                                         res.lanes[0].cycles),
                                     res.lanes[0].ipc());
        }
        std::printf("replay ran CLEAN%s — the recorded failure did not "
                    "reproduce\n",
                    stats.c_str());
        return 1;
    }
    std::string kind = SimError::kindName(res.kind);
    bool reproduced = kind == r.errorKind;
    std::printf("replay raised %s: %s\n", kind.c_str(),
                res.message.c_str());
    std::printf(reproduced ? "REPRODUCED (same error kind as recorded)\n"
                           : "DIFFERENT error kind than recorded\n");
    return reproduced ? 0 : 1;
}

int
runCli(int argc, char **argv);

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode is dispatched before anything else: the process is
    // a supervised child speaking the lease protocol on an inherited
    // fd, and all of its configuration (fault plan, lease length)
    // arrives over that channel, not from argv or env.
    if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
        if (argc != 3) {
            std::fprintf(stderr,
                         "vanguard_cli: --worker needs exactly one "
                         "file-descriptor argument\n");
            return 2;
        }
        char *end = nullptr;
        long fd = std::strtol(argv[2], &end, 10);
        if (end == argv[2] || *end != '\0' || fd < 0) {
            std::fprintf(stderr,
                         "vanguard_cli: bad --worker fd '%s'\n",
                         argv[2]);
            return 2;
        }
        try {
            return runWorkerProcess(static_cast<int>(fd));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "vanguard_cli worker: %s\n",
                         e.what());
            return 1;
        }
    }
    try {
        return runCli(argc, argv);
    } catch (const SimError &e) {
        // CLI boundary: structured simulator errors become a message
        // and an exit code instead of a stack unwind past main.
        std::fprintf(stderr, "vanguard_cli: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vanguard_cli: %s\n", e.what());
        return 1;
    }
}

namespace {

int
runCli(int argc, char **argv)
{
    std::string benchmark = "h264ref-like";
    VanguardOptions opts;
    uint64_t iterations = 15000;
    uint64_t seed = kRefSeeds[0];
    bool dump_ir = false, dump_asm = false, timeline = false,
         stats = false, all_refs = false;
    unsigned jobs = 0;
    std::string save_profile, load_profile;
    std::string replay_path, replay_dir;
    std::string checkpoint_dir, inject_spec;
    std::string metrics_out, trace_out;
    size_t gantt_window = 256;
    bool resume = false;
    size_t fail_threshold = 0;
    bool isolate_jobs = false;
    unsigned worker_rlimit_mb = 0;
    bool serve_sweep = false;
    unsigned serve_port = 0;
    unsigned lease_ms = 0;      ///< 0 = the fabric's default
    std::string remote_worker;  ///< "host:port", "" = not a worker
    std::string net_inject_spec;
    bool telemetry_serve = false;
    unsigned telemetry_port = 0;
    std::string flightrec_out;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Both "--flag VALUE" and "--flag=VALUE" spellings work.
        std::string inline_val;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_val = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        auto next = [&]() -> const char * {
            if (has_inline)
                return inline_val.c_str();
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "vanguard_cli: %s needs an argument\n",
                             arg.c_str());
                usageAndExit();
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (arg == "--benchmark") {
            benchmark = next();
        } else if (arg == "--list") {
            for (const auto &suite :
                 {specInt2006(), specFp2006(), specInt2000(),
                  specFp2000()}) {
                for (const auto &spec : suite)
                    std::printf("%s\n", spec.name);
            }
            return 0;
        } else if (arg == "--width") {
            opts.width =
                parseUnsignedOrDie("--width", next(), 1, kMaxWidthValue);
        } else if (arg == "--predictor") {
            opts.predictor = next();
        } else if (arg == "--iterations") {
            // The kernel loads the trip count as a signed immediate.
            iterations = parseU64OrDie("--iterations", next(), 1,
                                       INT64_MAX);
        } else if (arg == "--seed") {
            seed = parseU64OrDie("--seed", next(), 0, UINT64_MAX);
        } else if (arg == "--all-refs") {
            all_refs = true;
        } else if (arg == "--jobs") {
            jobs = parseUnsignedOrDie("--jobs", next(), 1,
                                      ThreadPool::maxWorkerCount());
        } else if (arg == "--no-decompose") {
            opts.applyDecomposition = false;
        } else if (arg == "--no-superblock") {
            opts.applySuperblock = false;
        } else if (arg == "--no-shadow-commit") {
            opts.shadowCommit = false;
        } else if (arg == "--dbb") {
            opts.dbbEntries =
                parseUnsignedOrDie("--dbb", next(), 1, 65536);
        } else if (arg == "--threshold") {
            opts.selection.minExposed =
                parseFractionOrDie("--threshold", next());
        } else if (arg == "--save-profile") {
            save_profile = next();
        } else if (arg == "--load-profile") {
            load_profile = next();
        } else if (arg == "--lockstep") {
            opts.lockstep = true;
        } else if (arg == "--cycle-budget") {
            // 0 is accepted and disables the cycle watchdog.
            opts.simCycleBudget =
                parseU64OrDie("--cycle-budget", next(), 0, UINT64_MAX);
        } else if (arg == "--replay-dir") {
            replay_dir = next();
        } else if (arg == "--fail-threshold") {
            fail_threshold = parseU64OrDie("--fail-threshold", next(), 0,
                                           SIZE_MAX);
        } else if (arg == "--replay") {
            replay_path = next();
        } else if (arg == "--checkpoint-dir") {
            checkpoint_dir = next();
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--inject") {
            inject_spec = next();
        } else if (arg == "--isolate-jobs") {
            isolate_jobs = true;
        } else if (arg == "--worker-rlimit-mb") {
            worker_rlimit_mb = parseUnsignedOrDie(
                "--worker-rlimit-mb", next(), 16, 1048576);
        } else if (arg == "--serve-sweep") {
            serve_sweep = true;
            serve_port =
                parseUnsignedOrDie("--serve-sweep", next(), 0, 65535);
        } else if (arg == "--remote-worker") {
            remote_worker = next();
        } else if (arg == "--lease-ms") {
            // Each mode has its own floor: 50 ms under --isolate-jobs,
            // 500 ms under --serve-sweep (checked below).
            lease_ms =
                parseUnsignedOrDie("--lease-ms", next(), 50, 3600000);
        } else if (arg == "--net-inject") {
            net_inject_spec = next();
        } else if (arg == "--telemetry-port") {
            telemetry_serve = true;
            telemetry_port = parseUnsignedOrDie("--telemetry-port",
                                                next(), 0, 65535);
        } else if (arg == "--flightrec-out") {
            flightrec_out = next();
        } else if (arg == "--dump-ir") {
            dump_ir = true;
        } else if (arg == "--dump-asm") {
            dump_asm = true;
        } else if (arg == "--timeline") {
            timeline = true;
        } else if (arg == "--gantt-window") {
            gantt_window = parseU64OrDie("--gantt-window", next(), 1,
                                         kMaxGanttWindow);
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else {
            std::fprintf(stderr, "vanguard_cli: unknown flag '%s'\n",
                         arg.c_str());
            usageAndExit();
        }
    }

    if (resume && checkpoint_dir.empty()) {
        std::fprintf(stderr,
                     "vanguard_cli: --resume needs --checkpoint-dir\n");
        usageAndExit();
    }
    if (!checkpoint_dir.empty() && !all_refs) {
        std::fprintf(stderr, "vanguard_cli: --checkpoint-dir only "
                             "applies to --all-refs sweeps\n");
        usageAndExit();
    }
    if (isolate_jobs && !all_refs) {
        std::fprintf(stderr, "vanguard_cli: --isolate-jobs only "
                             "applies to --all-refs sweeps\n");
        usageAndExit();
    }
    if (worker_rlimit_mb != 0 && !isolate_jobs) {
        std::fprintf(stderr, "vanguard_cli: --worker-rlimit-mb needs "
                             "--isolate-jobs\n");
        usageAndExit();
    }
    if (serve_sweep && !all_refs) {
        std::fprintf(stderr, "vanguard_cli: --serve-sweep only "
                             "applies to --all-refs sweeps\n");
        usageAndExit();
    }
    if (serve_sweep && isolate_jobs) {
        std::fprintf(stderr,
                     "vanguard_cli: --serve-sweep and --isolate-jobs "
                     "are mutually exclusive (pick one remote-body "
                     "transport)\n");
        usageAndExit();
    }
    if (lease_ms != 0 && !serve_sweep && !isolate_jobs) {
        std::fprintf(stderr, "vanguard_cli: --lease-ms needs "
                             "--isolate-jobs or --serve-sweep\n");
        usageAndExit();
    }
    if (lease_ms != 0 && lease_ms < 500 && serve_sweep) {
        std::fprintf(stderr,
                     "vanguard_cli: --lease-ms expects an integer in "
                     "[500, 3600000] with --serve-sweep, got '%u'\n",
                     lease_ms);
        usageAndExit();
    }
    if (!remote_worker.empty() &&
        (all_refs || serve_sweep || isolate_jobs)) {
        std::fprintf(stderr,
                     "vanguard_cli: --remote-worker is a standalone "
                     "mode (no sweep flags)\n");
        usageAndExit();
    }
    if ((telemetry_serve || !flightrec_out.empty()) && !all_refs) {
        std::fprintf(stderr,
                     "vanguard_cli: --telemetry-port/--flightrec-out "
                     "only apply to --all-refs sweeps\n");
        usageAndExit();
    }

    // Deterministic fault injection: an explicit --inject wins over
    // the VANGUARD_FAULT_PLAN environment variable; same precedence
    // for the network-fault plan (--net-inject over
    // VANGUARD_NET_FAULT_PLAN). The two plans are orthogonal: job
    // draws and frame draws never share a stream, so network chaos
    // cannot perturb simulation results.
    if (!inject_spec.empty())
        faultinject::arm(parseFaultPlan(inject_spec));
    else
        faultinject::maybeArmFromEnv();
    if (!net_inject_spec.empty())
        faultinject::armNet(parseFaultPlan(net_inject_spec));
    else
        faultinject::maybeArmNetFromEnv();

    if (!remote_worker.empty()) {
        // Remote-worker mode: claim/execute/report against a
        // coordinator until drained or signalled. The fault plans
        // armed above are provisional — the coordinator's CONFIG
        // frame overrides them.
        size_t colon = remote_worker.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == remote_worker.size()) {
            std::fprintf(stderr,
                         "vanguard_cli: --remote-worker expects "
                         "HOST:PORT, got '%s'\n",
                         remote_worker.c_str());
            usageAndExit();
        }
        unsigned port = parseUnsignedOrDie(
            "--remote-worker port", remote_worker.c_str() + colon + 1,
            1, 65535);
        installShutdownHandlers();
        return runRemoteWorker(remote_worker.substr(0, colon),
                               static_cast<uint16_t>(port));
    }

    if (!replay_path.empty())
        return runReplay(replay_path);

    BenchmarkSpec spec = findBenchmark(benchmark);
    spec.iterations = iterations;

    if (all_refs) {
        // Whole-benchmark sweep through the fault-tolerant parallel
        // engine: one train, one compile per config, every REF seed
        // simulated as an independent job. Individual job failures
        // are reported (and bundled with --replay-dir) instead of
        // aborting the sweep.
        RunnerOptions ropts;
        ropts.jobs = jobs;
        ropts.replayDir = replay_dir;
        ropts.checkpointDir = checkpoint_dir;
        ropts.resume = resume;
        if (isolate_jobs) {
            ropts.isolation = JobIsolation::process;
            if (lease_ms != 0)
                ropts.leaseMs = lease_ms;
            ropts.workerRlimitMb = worker_rlimit_mb;
        }

        // Telemetry sinks: the registry is wired in unconditionally
        // (the engine asserts snapshot bit-identity through it either
        // way); the tracer only when a timeline was requested.
        MetricsRegistry registry;
        Tracer tracer;
        ropts.metrics = &registry;
        if (!trace_out.empty())
            ropts.tracer = &tracer;

        // Graceful shutdown: SIGINT/SIGTERM drain the pool instead of
        // killing the process mid-write; in-flight jobs finish and
        // checkpoint, and we exit 4 with a --resume hint.
        installShutdownHandlers();

        // Crash flight recorder: always armed (recording is a bounded
        // in-memory ring), dumped on failure, interrupt, or a fatal
        // SimError — or unconditionally with an explicit
        // --flightrec-out path.
        FlightRecorder flightrec;
        ScopedFlightRecorder flightrec_scope(&flightrec);
        auto flightrecPath = [&]() -> std::string {
            if (!flightrec_out.empty())
                return flightrec_out;
            if (!replay_dir.empty())
                return replay_dir + "/flightrec.vgfr";
            if (!checkpoint_dir.empty())
                return checkpoint_dir + "/flightrec.vgfr";
            return "";
        };
        auto dumpFlightrec = [&](const char *why) {
            std::string path = flightrecPath();
            if (path.empty())
                return;
            std::error_code ec;
            std::filesystem::create_directories(
                std::filesystem::path(path).parent_path(), ec);
            if (flightrec.dump(path)) {
                std::fprintf(stderr,
                             "flight recorder dumped to %s (%s)\n",
                             path.c_str(), why);
            }
        };

        // Live telemetry plane: strictly observational (sweep output
        // is byte-identical with it on or off). Declared before the
        // coordinator, which registers its fabric view with the
        // server and clears it in shutdown() — so it must be
        // destroyed first.
        std::optional<TelemetryServer> telemetry;
        if (telemetry_serve) {
            TelemetryServer::Options topts;
            topts.port = static_cast<uint16_t>(telemetry_port);
            topts.registry = &registry;
            telemetry.emplace(topts);
            // Tests and scripts parse this line for the resolved
            // port, so flush it before the sweep starts.
            std::fprintf(stderr,
                         "telemetry on port %u (GET /metrics, "
                         "/progress, /healthz)\n",
                         telemetry->port());
            std::fflush(stderr);
            ropts.telemetry = &*telemetry;
        }

        // Distributed mode: lease train/simulate bodies to remote
        // workers over TCP. All bookkeeping stays here, so the sweep
        // output is byte-identical to the local paths.
        std::optional<Coordinator> coord;
        if (serve_sweep) {
            Coordinator::Options copts;
            copts.port = static_cast<uint16_t>(serve_port);
            if (lease_ms != 0)
                copts.leaseMs = lease_ms;
            copts.metrics = &registry;
            if (telemetry.has_value())
                copts.telemetry = &*telemetry;
            coord.emplace(copts);
            // Tests and scripts parse this line for the resolved
            // port, so flush it before blocking on workers.
            std::fprintf(stderr,
                         "serving sweep on port %u; start workers "
                         "with --remote-worker HOST:%u\n",
                         coord->port(), coord->port());
            std::fflush(stderr);
            ropts.coordinator = &*coord;
        }

        SuiteReport report;
        try {
            report = runSuiteWidthsReport({spec}, {opts.width}, opts,
                                          ropts);
        } catch (const SimError &e) {
            // A fatal error escaping the engine is exactly what the
            // flight recorder exists for: dump the ring, then let
            // the CLI boundary report the error as usual.
            flightRecord("error", "sweep.fatal", e.detail());
            dumpFlightrec("fatal error");
            throw;
        }

        // Stop the fabric before reading the registry: shutdown joins
        // the service thread, making the engine.net.* counters final.
        if (coord.has_value())
            coord->shutdown();

        // Telemetry dumps are written even for an interrupted sweep —
        // a partial timeline is exactly what explains the
        // interruption.
        if (!metrics_out.empty())
            writeMetricsFile(metrics_out, registry);
        if (!trace_out.empty())
            writeTraceFile(trace_out, tracer);

        // Flight-recorder dump policy: always with an explicit
        // --flightrec-out; otherwise only when there is something to
        // post-mortem (an interrupt or job failures).
        if (!flightrec_out.empty() || report.interrupted ||
            !report.failures.empty()) {
            dumpFlightrec(report.interrupted ? "sweep interrupted"
                          : !report.failures.empty() ? "job failures"
                                                     : "requested");
        }

        if (report.replayedJobs != 0) {
            std::fprintf(stderr,
                         "resumed: %zu of %zu jobs replayed from "
                         "the journal\n",
                         report.replayedJobs, report.totalJobs);
        }
        if (report.interrupted) {
            std::fprintf(stderr,
                         "sweep interrupted by signal %d; ",
                         shutdownSignal());
            if (!checkpoint_dir.empty()) {
                std::fprintf(stderr,
                             "completed jobs are journaled in %s — "
                             "re-run with --resume to continue\n",
                             checkpoint_dir.c_str());
            } else {
                std::fprintf(stderr,
                             "re-run with --checkpoint-dir to make "
                             "sweeps resumable\n");
            }
            return 4;
        }
        const SeedSummary &row = report.results[0].rows[0];
        for (size_t s = 0; s < row.perSeed.size(); ++s) {
            const BenchmarkOutcome &o = row.perSeed[s];
            std::printf("ref %zu: base %12llu cycles, exp %12llu "
                        "cycles, speedup %+.2f%%\n",
                        s,
                        static_cast<unsigned long long>(o.base.cycles),
                        static_cast<unsigned long long>(o.exp.cycles),
                        o.speedupPct);
        }
        std::printf("%s: mean %+.2f%%  best %+.2f%%",
                    spec.name, row.meanSpeedupPct, row.bestSpeedupPct);
        if (row.failedSeeds != 0)
            std::printf("  (%u of %u seeds FAILED)", row.failedSeeds,
                        static_cast<unsigned>(kNumRefSeeds));
        std::printf("\n");
        if (!report.failures.empty()) {
            std::fprintf(stderr, "%zu job(s) failed:\n%s",
                         report.failures.size(),
                         renderFailureTable(report.failures).c_str());
            if (report.exceededThreshold(fail_threshold))
                return 3;
        }
        return 0;
    }

    // Single-run telemetry: the ambient tracer picks up the coarse
    // compile.config / sim.* sub-spans inside core/vanguard.cc.
    Tracer tracer;
    ScopedCurrentTracer ambient(trace_out.empty() ? nullptr : &tracer);

    TrainArtifacts train;
    if (!load_profile.empty()) {
        std::ifstream in(load_profile);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n",
                         load_profile.c_str());
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        ProfileParseResult parsed = deserializeProfile(buf.str());
        if (!parsed.ok) {
            std::fprintf(stderr, "bad profile: %s\n",
                         parsed.error.c_str());
            return 1;
        }
        train = trainFromProfile(spec, std::move(parsed.profile),
                                 opts);
        std::printf("loaded profile from %s\n", load_profile.c_str());
    } else {
        train = trainBenchmark(spec, opts);
    }
    if (!save_profile.empty()) {
        std::ofstream out(save_profile);
        out << serializeProfile(train.profile);
        std::printf("profile written to %s\n", save_profile.c_str());
    }
    std::printf("%s: %zu branches selected (threshold %.2f)\n",
                spec.name, train.selected.size(),
                opts.selection.minExposed);

    CompiledConfig base = compileConfig(spec, train, false, opts);
    CompiledConfig exp = compileConfig(
        spec, train, opts.applyDecomposition, opts);

    if (dump_ir || dump_asm) {
        // Rebuild the transformed IR for printing (compileConfig only
        // keeps the laid-out program).
        if (dump_asm)
            std::printf("%s\n", exp.prog.toString().c_str());
        if (dump_ir)
            std::printf("(use examples/transform_viewer for staged IR "
                        "dumps)\n");
    }

    // Capture enough beyond the steady-state skip point to fill the
    // requested Gantt window.
    PipelineTrace trace(
        timeline ? std::max<size_t>(2000, 1400 + gantt_window) : 0);
    SimStats sb;
    {
        TraceSpan span(currentTracer(), "run.base");
        sb = simulateConfig(spec, base, opts, seed);
    }

    SimStats se;
    {
        TraceSpan exp_span(currentTracer(), "run.exp");
        if (!timeline) {
            // The standard path: watchdogs and the optional lockstep
            // oracle apply to both configurations.
            se = simulateConfig(spec, exp, opts, seed);
        } else {
            // Tracing needs a hand-built SimOptions (simulateConfig
            // has no trace hook); watchdogs still apply.
            Memory mem = buildKernelMemory(spec, seed);
            auto pred = makePredictor(opts.predictor, seed);
            SimOptions sopts;
            sopts.maxInsts = opts.simMaxInsts;
            sopts.cycleBudget = opts.simCycleBudget;
            sopts.progressWindow = opts.simProgressWindow;
            sopts.trace = &trace;
            std::vector<bool> outcomes;
            if (opts.predictor.rfind("ideal:", 0) == 0 &&
                exp.decomposed) {
                outcomes = prerecordPredictOutcomes(
                    exp.prog, mem, opts.simMaxInsts * 2);
                sopts.predictOutcomes = &outcomes;
            }
            if (!exp.hoistedMask.empty())
                sopts.hoistedMask = &exp.hoistedMask;
            se = simulate(exp.prog, mem, *pred, opts.machine(),
                          sopts);
        }
    }

    std::printf("baseline   : %12llu cycles  IPC %.3f\n",
                static_cast<unsigned long long>(sb.cycles), sb.ipc());
    std::printf("experiment : %12llu cycles  IPC %.3f\n",
                static_cast<unsigned long long>(se.cycles), se.ipc());
    std::printf("speedup    : %+.2f%%\n",
                speedupPercent(speedupRatio(sb.cycles, se.cycles)));

    if (stats) {
        std::printf("\n");
        dumpStats("base", sb);
        dumpStats("exp", se);
    }
    if (timeline) {
        PipelineTrace window(gantt_window);
        const auto &all = trace.entries();
        size_t start = all.size() > 1500 ? 1400 : all.size() / 2;
        // Offer every remaining entry: the window counts what it had
        // to drop and render() reports it in the footer.
        for (size_t i = start; i < all.size(); ++i)
            window.record(all[i]);
        std::printf("\nsteady-state timeline (experiment):\n%s",
                    window.render(110).c_str());
    }
    if (!metrics_out.empty()) {
        // Single-run dumps carry the two simulations as their own
        // scopes, the same uarch.* counter names the sweep exports.
        MetricsRegistry registry;
        registry.mergeJobSnapshot("run.base", simStatsSnapshot(sb));
        registry.mergeJobSnapshot("run.exp", simStatsSnapshot(se));
        writeMetricsFile(metrics_out, registry);
    }
    if (!trace_out.empty())
        writeTraceFile(trace_out, tracer);
    return 0;
}

} // namespace
