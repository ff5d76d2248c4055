/**
 * @file
 * Minimal fixed-size thread pool with a parallel-for helper.
 *
 * On single-core hosts the pool degrades gracefully (size 1 executes
 * inline).
 */
#ifndef JUNO_COMMON_THREAD_POOL_H
#define JUNO_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace juno {

/** Fixed-size worker pool executing enqueued std::function jobs. */
class ThreadPool {
  public:
    /**
     * @param threads worker count; 0 picks hardware_concurrency(), and a
     * pool of size 1 runs jobs inline in submit() (no thread spawned).
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return thread_count_; }

    /**
     * Drains every queued job, then joins the workers. Safe to call
     * repeatedly and from several threads at once: the first caller
     * performs the teardown, later callers block until it completes
     * and then return. The destructor calls shutdown() implicitly.
     *
     * After shutdown the pool degrades to inline mode: submit() (and
     * parallelFor) still execute their jobs, on the calling thread, so
     * a racing producer can never strand work in a dead queue.
     */
    void shutdown() JUNO_EXCLUDES(mutex_);

    /**
     * Enqueues a job. After shutdown() has begun, the job runs inline
     * on the caller instead (never silently dropped).
     */
    void submit(std::function<void()> job) JUNO_EXCLUDES(mutex_);

    /** Blocks until every submitted job has finished. */
    void wait() JUNO_EXCLUDES(mutex_);

    /**
     * A tracked group of jobs with its own completion counter: join()
     * (or the destructor) blocks until *this batch's* jobs finish,
     * without calling ThreadPool::wait(), so independent batches can
     * share one pool concurrently (the query engine submits one batch
     * per search while other callers keep using the pool).
     */
    class Batch {
      public:
        explicit Batch(ThreadPool &pool) : pool_(pool) {}
        ~Batch() { join(); }

        Batch(const Batch &) = delete;
        Batch &operator=(const Batch &) = delete;

        /** Enqueues a job belonging to this batch. */
        void submit(std::function<void()> job) JUNO_EXCLUDES(mutex_);

        /** Blocks until every job submitted to this batch finished. */
        void join() JUNO_EXCLUDES(mutex_);

      private:
        ThreadPool &pool_;
        Mutex mutex_;
        std::condition_variable cv_;
        int pending_ JUNO_GUARDED_BY(mutex_) = 0;
    };

    /**
     * Runs fn(i) for i in [0, n) split into contiguous chunks across
     * the pool, blocking until done. fn must be safe to call
     * concurrently for distinct i. The chunk size derives from
     * n / threads floored at @p min_grain (default 1) so tiny
     * per-item work does not drown in dispatch overhead (the tail
     * chunk may be smaller); when the split degenerates to a single
     * chunk the whole range runs inline on the caller.
     */
    void parallelFor(idx_t n, const std::function<void(idx_t)> &fn,
                     idx_t min_grain = 1);

  private:
    void workerLoop() JUNO_EXCLUDES(mutex_);

    /** Immutable after construction (read lock-free everywhere). */
    int thread_count_;
    Mutex mutex_;
    /** Swapped out under mutex_ by the one shutdown() teardown owner. */
    std::vector<std::thread> workers_ JUNO_GUARDED_BY(mutex_);
    std::deque<std::function<void()>> queue_ JUNO_GUARDED_BY(mutex_);
    std::condition_variable cv_job_;
    std::condition_variable cv_done_;
    int in_flight_ JUNO_GUARDED_BY(mutex_) = 0;
    bool stopping_ JUNO_GUARDED_BY(mutex_) = false;
    bool shutdown_done_ JUNO_GUARDED_BY(mutex_) = false;
    std::condition_variable cv_shutdown_;
};

} // namespace juno

#endif // JUNO_COMMON_THREAD_POOL_H
