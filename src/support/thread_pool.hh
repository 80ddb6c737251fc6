/**
 * @file
 * Minimal work-queue thread pool for the parallel experiment engine.
 *
 * N worker threads (default: hardware_concurrency, overridable with
 * the VANGUARD_JOBS environment variable, clamped to
 * maxWorkerCount()) drain a queue of std::function jobs: lowest
 * priority key first, FIFO within a key (every job submitted without
 * a key shares key 0, so the queue is then a plain FIFO). A job may
 * submit further jobs, which is how the experiment engine runs its
 * job graph. wait() blocks until every submitted job, including the
 * ones submitted by jobs, has finished; every exception any job
 * raised is collected (not just the first), so multi-failure sweeps
 * can report each distinct cause. wait() rethrows a lone failure
 * verbatim and aggregates several into one SimError(Internal) whose
 * message lists the first few causes; callers that want the full set
 * use waitCollect().
 *
 * The pool is deliberately dumb — no futures, no stealing, no
 * preemption. Experiment jobs are coarse (one full simulation each),
 * so a single mutex-guarded heap is nowhere near contention.
 * Determinism is the caller's job: jobs must write results into
 * pre-sized slots keyed by job index, never by completion order.
 *
 * Graceful drain: an optional drain predicate (the experiment engine
 * passes shutdownRequested) is checked before each dequeued job runs.
 * Once it returns true the pool stops *executing* — queued jobs are
 * discarded (still counted toward wait()'s completion, so nothing
 * wedges) while in-flight jobs finish normally. Discarded jobs leave
 * no result and no journal record, which is exactly what lets a
 * checkpointed sweep treat them as "incomplete, re-run on --resume".
 */

#ifndef VANGUARD_SUPPORT_THREAD_POOL_HH
#define VANGUARD_SUPPORT_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hh"

namespace vanguard {

class ThreadPool
{
  public:
    /**
     * Worker-count policy: an explicit request wins, then the
     * VANGUARD_JOBS environment variable, then hardware_concurrency
     * (minimum 1). Unparsable or zero VANGUARD_JOBS values are
     * ignored; absurd ones (a typo like VANGUARD_JOBS=100000 would
     * otherwise try to spawn that many threads) are clamped to
     * maxWorkerCount().
     */
    static unsigned
    resolveWorkerCount(unsigned requested = 0)
    {
        if (requested > 0)
            return requested;
        if (const char *env = std::getenv("VANGUARD_JOBS")) {
            unsigned long v = std::strtoul(env, nullptr, 10);
            if (v > 0)
                return static_cast<unsigned>(
                    std::min<unsigned long>(v, maxWorkerCount()));
        }
        return hardwareThreads();
    }

    /** The worker-count ceiling: 4x the hardware thread count. Front
     *  ends reject larger explicit requests with it. */
    static unsigned
    maxWorkerCount()
    {
        return 4 * hardwareThreads();
    }

    /**
     * @param drain polled before each dequeued job runs; once true,
     *        remaining queued jobs are discarded unrun (must be
     *        thread-safe and cheap, e.g. an atomic load).
     */
    explicit ThreadPool(unsigned workers = 0,
                        std::function<bool()> drain = {})
        : drain_(std::move(drain))
    {
        unsigned n = resolveWorkerCount(workers);
        workers_.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    /** Drains the queue, then joins every worker. */
    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        work_cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned
    workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueue one job. Workers dequeue the lowest key first and, among
     * equal keys, the earliest submitted.
     */
    void
    submit(std::function<void()> job, uint64_t key = 0)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back({key, next_seq_++, std::move(job)});
            std::push_heap(queue_.begin(), queue_.end(), Queued::later);
            ++outstanding_;
        }
        work_cv_.notify_one();
    }

    /**
     * Block until every submitted job has finished, then return every
     * exception jobs raised since the last wait, in completion order
     * (remaining jobs still ran: a failure never wedges the queue).
     * The pool is reusable afterwards.
     */
    std::vector<std::exception_ptr>
    waitCollect()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
        std::vector<std::exception_ptr> errors;
        errors.swap(errors_);
        return errors;
    }

    /**
     * waitCollect(), then rethrow: a single failure propagates
     * verbatim; several are folded into one SimError(Internal)
     * listing the count and the first few messages.
     */
    void
    wait()
    {
        std::vector<std::exception_ptr> errors = waitCollect();
        if (errors.empty())
            return;
        if (errors.size() == 1)
            std::rethrow_exception(errors.front());

        constexpr size_t kMaxListed = 4;
        std::string msg =
            std::to_string(errors.size()) + " jobs failed:";
        for (size_t i = 0; i < errors.size() && i < kMaxListed; ++i) {
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::exception &e) {
                msg += "\n  [";
                msg += std::to_string(i);
                msg += "] ";
                msg += e.what();
            } catch (...) {
                msg += "\n  [";
                msg += std::to_string(i);
                msg += "] (non-standard exception)";
            }
        }
        if (errors.size() > kMaxListed) {
            msg += "\n  ... and " +
                   std::to_string(errors.size() - kMaxListed) +
                   " more";
        }
        throw SimError(SimError::Kind::Internal, std::move(msg));
    }

    /** Run fn(0) .. fn(n-1) as n independent jobs and wait for all. */
    void
    parallelFor(size_t n, const std::function<void(size_t)> &fn)
    {
        for (size_t i = 0; i < n; ++i)
            submit([&fn, i] { fn(i); });
        wait();
    }

    /** Jobs actually run since construction. */
    uint64_t
    executedCount() const
    {
        return executed_.load(std::memory_order_relaxed);
    }

    /** Jobs discarded unrun by the drain predicate. */
    uint64_t
    discardedCount() const
    {
        return discarded_.load(std::memory_order_relaxed);
    }

  private:
    struct Queued
    {
        uint64_t key;
        uint64_t seq;
        std::function<void()> job;

        /** Heap order: the top is the lowest (key, seq). */
        static bool
        later(const Queued &a, const Queued &b)
        {
            return a.key != b.key ? a.key > b.key : a.seq > b.seq;
        }
    };

    static unsigned
    hardwareThreads()
    {
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }

    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                work_cv_.wait(lock, [this] {
                    return stopping_ || !queue_.empty();
                });
                if (queue_.empty())
                    return;
                std::pop_heap(queue_.begin(), queue_.end(),
                              Queued::later);
                job = std::move(queue_.back().job);
                queue_.pop_back();
            }
            if (!drain_ || !drain_()) {
                executed_.fetch_add(1, std::memory_order_relaxed);
                try {
                    job();
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    errors_.push_back(std::current_exception());
                }
            } else {
                discarded_.fetch_add(1, std::memory_order_relaxed);
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (--outstanding_ == 0)
                    idle_cv_.notify_all();
            }
        }
    }

    std::function<bool()> drain_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::vector<Queued> queue_;   ///< binary heap on Queued::later
    uint64_t next_seq_ = 0;
    std::vector<std::thread> workers_;
    size_t outstanding_ = 0;
    std::vector<std::exception_ptr> errors_;
    bool stopping_ = false;
    std::atomic<uint64_t> executed_{0};
    std::atomic<uint64_t> discarded_{0};
};

} // namespace vanguard

#endif // VANGUARD_SUPPORT_THREAD_POOL_HH
