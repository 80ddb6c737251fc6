/**
 * @file
 * Error/status reporting helpers in the spirit of gem5's logging.hh.
 *
 * vg_throw()  — library code signals a structured, catchable SimError
 *               (see support/error.hh); the experiment engine turns
 *               these into per-job failures instead of losing a sweep.
 * vg_assert() — an internal invariant was violated (a bug in this
 *               library); throws SimError(Invariant) so one bad job
 *               cannot abort a whole suite run.
 * panic()/fatal() — abort/exit the *process*; reserved for CLI
 *               boundaries (main functions), never library code.
 * warn()/inform() — non-fatal status messages, serialized through one
 *               process-wide console mutex so worker threads never
 *               interleave partial lines (shared with the engine's
 *               ProgressReporter).
 */

#ifndef VANGUARD_SUPPORT_LOGGING_HH
#define VANGUARD_SUPPORT_LOGGING_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "support/error.hh"

namespace vanguard {

namespace detail {

/** One mutex for every stderr status line the library emits. */
inline std::mutex &
consoleMutex()
{
    static std::mutex m;
    return m;
}

/** Emit one whole line atomically with respect to other emitters. */
inline void
emitLine(std::FILE *to, const std::string &line)
{
    std::lock_guard<std::mutex> lock(consoleMutex());
    std::fprintf(to, "%s\n", line.c_str());
    std::fflush(to);
}

[[noreturn]] inline void
logAndAbort(const char *kind, const char *file, int line,
            const std::string &msg)
{
    std::fprintf(stderr, "%s: %s:%d: %s\n", kind, file, line, msg.c_str());
    std::abort();
}

[[noreturn]] inline void
logAndExit(const char *kind, const char *file, int line,
           const std::string &msg)
{
    std::fprintf(stderr, "%s: %s:%d: %s\n", kind, file, line, msg.c_str());
    std::exit(1);
}

[[noreturn]] inline void
throwSimError(SimError::Kind kind, const char *file, int line,
              const std::string &msg)
{
    throw SimError(kind, msg,
                   std::string(file) + ":" + std::to_string(line));
}

/** Minimal printf-style formatter returning a std::string. */
template <typename... Args>
std::string
csprintf(const char *fmt, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string(fmt);
    } else {
        int n = std::snprintf(nullptr, 0, fmt, args...);
        if (n <= 0)
            return std::string(fmt);
        std::string out(static_cast<size_t>(n), '\0');
        std::snprintf(out.data(), out.size() + 1, fmt, args...);
        return out;
    }
}

} // namespace detail

/** "0x"-prefixed lowercase hex: how seeds and scope keys are spelled
 *  in every text format and message. */
inline std::string
hexU64(uint64_t v)
{
    return detail::csprintf("0x%" PRIx64, v);
}

} // namespace vanguard

/** Throw a SimError of the given kind (Config, Hang, ...). */
#define vg_throw(kind, ...)                                                 \
    ::vanguard::detail::throwSimError(                                      \
        ::vanguard::SimError::Kind::kind, __FILE__, __LINE__,               \
        ::vanguard::detail::csprintf(__VA_ARGS__))

/** Process-aborting panic: CLI boundaries only. */
#define vg_panic(...)                                                       \
    ::vanguard::detail::logAndAbort(                                        \
        "panic", __FILE__, __LINE__,                                        \
        ::vanguard::detail::csprintf(__VA_ARGS__))

/** Process-exiting fatal: CLI boundaries only. */
#define vg_fatal(...)                                                       \
    ::vanguard::detail::logAndExit(                                         \
        "fatal", __FILE__, __LINE__,                                        \
        ::vanguard::detail::csprintf(__VA_ARGS__))

#define vg_warn(...)                                                        \
    ::vanguard::detail::emitLine(                                           \
        stderr,                                                             \
        "warn: " + ::vanguard::detail::csprintf(__VA_ARGS__))

#define vg_inform(...)                                                      \
    ::vanguard::detail::emitLine(                                           \
        stderr,                                                             \
        "info: " + ::vanguard::detail::csprintf(__VA_ARGS__))

#define vg_assert(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::vanguard::detail::throwSimError(                              \
                ::vanguard::SimError::Kind::Invariant, __FILE__,            \
                __LINE__,                                                   \
                "assert(" #cond "): " +                                     \
                    ::vanguard::detail::csprintf("" __VA_ARGS__));          \
        }                                                                   \
    } while (0)

#endif // VANGUARD_SUPPORT_LOGGING_HH
