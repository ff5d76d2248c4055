/**
 * @file
 * SLO accounting for the serving layer: admission counters plus
 * per-request latency split into its queue / batch-assembly / search
 * components, each feeding a HistogramMetric so snapshots report the
 * p50/p95/p99 a latency SLO is written against.
 *
 * Every counter and histogram is a fixed set of relaxed atomics:
 * dispatcher threads record lock-free, and the memory a long-running
 * service spends on its statistics does not grow with the requests it
 * serves. Counts, means and maxima are exact; quantiles follow
 * HistogramMetric's contract (within 1% of the nearest-rank sample).
 */
#ifndef JUNO_SERVE_SERVICE_STATS_H
#define JUNO_SERVE_SERVICE_STATS_H

#include <atomic>
#include <cstdint>

#include "live/live_index.h"
#include "obs/metrics.h"
#include "serve/hot_list_cache.h"

namespace juno {

/**
 * Process-level memory/paging readings for out-of-core serving
 * reports: resident set size plus cumulative page-fault counts.
 * Snapshots report fault *deltas* against the reading taken at
 * service start, so they attribute faults to serving rather than to
 * process startup.
 */
struct ResourceUsage {
    std::size_t rss_bytes = 0;      ///< current resident set size
    std::uint64_t major_faults = 0; ///< faults that required IO
    std::uint64_t minor_faults = 0; ///< faults served from page cache
};

/**
 * Reads the calling process's current usage: RSS from
 * /proc/self/statm when available (ru_maxrss as a fallback), fault
 * counters from getrusage(RUSAGE_SELF). Fields read as 0 on platforms
 * exposing neither.
 */
ResourceUsage readResourceUsage();

/** p50/p95/p99 summary of one latency component (microseconds). */
using LatencySummary = HistogramSummary;

/** Counters and latency histograms of one SearchService. */
class ServiceStats {
  public:
    /**
     * Point-in-time copy of every counter and quantile. Once stop()
     * has drained, submitted == completed + failed + expired (every
     * accepted request's future was fulfilled exactly once: with a
     * value, with the engine's exception, or with kExpired when shed
     * at dequeue).
     */
    struct Snapshot {
        std::uint64_t submitted = 0;  ///< accepted into the queue
        std::uint64_t completed = 0;  ///< futures fulfilled with a value
        std::uint64_t failed = 0; ///< futures fulfilled with an
                                  ///< exception (engine failure)
        std::uint64_t rejected_full = 0; ///< shed: queue at capacity
        std::uint64_t rejected_stopped = 0; ///< shed: not running
        /** Shed at the door: deadline already past at submit(). */
        std::uint64_t rejected_expired = 0;
        /** Accepted, then shed at dequeue past its deadline (doomed
         * work elimination); the future carries kExpired. */
        std::uint64_t expired = 0;
        /** Value-completed requests flagged ResultList::degraded. */
        std::uint64_t degraded = 0;
        /** Batches dispatched under reduced quality (tier > 0, or at
         * least one deadline-cut query). */
        std::uint64_t degraded_batches = 0;
        /** Current degradation tier (0 = full quality). Filled by
         * SearchService::snapshot(); bare snapshots read 0. */
        int degradation_tier = 0;
        std::uint64_t batches = 0;      ///< dispatched engine batches
        double mean_batch = 0.0;        ///< completed / batches
        LatencySummary queue_us;  ///< submit -> batch drain
        LatencySummary batch_us;  ///< drain -> batch assembled
        LatencySummary search_us; ///< engine execution
        LatencySummary total_us;  ///< submit -> future fulfilled
        /**
         * Hot-list cache counters of the served index (all zero when
         * no cache is attached). Filled by SearchService::snapshot();
         * a bare ServiceStats::snapshot() leaves it zeroed.
         */
        HotListCache::Counters cache;
        /**
         * Current RSS plus page-fault deltas since service start()
         * (the out-of-core signal: major faults are scans paying real
         * IO). Filled by SearchService::snapshot().
         */
        ResourceUsage usage;
        /**
         * Service-level live-mutation admission counters (zero when
         * the served index is immutable): ops *applied* through the
         * service plus ops it refused (and why, coarsely).
         */
        std::uint64_t live_inserts = 0;
        std::uint64_t live_removes = 0;
        std::uint64_t live_upserts = 0;
        std::uint64_t live_rejected = 0;
        /**
         * The served LiveIndex's freshness/merge statistics. Filled by
         * SearchService::snapshot() when live_enabled; zeroed (and
         * meaningless) otherwise.
         */
        LiveStats live;
        /** True when the served index supports live mutation. */
        bool live_enabled = false;
    };

    void recordAccepted() { submitted_.fetch_add(1); }
    void recordRejectedFull() { rejected_full_.fetch_add(1); }
    void recordRejectedStopped() { rejected_stopped_.fetch_add(1); }
    void recordRejectedExpired() { rejected_expired_.fetch_add(1); }

    /** @p n accepted requests shed at dequeue (futures got kExpired). */
    void recordExpired(std::size_t n) { expired_.fetch_add(n); }

    /** @p n value-completed requests flagged degraded. */
    void recordDegraded(std::size_t n) { degraded_.fetch_add(n); }

    /** One batch dispatched under reduced quality. */
    void recordDegradedBatch() { degraded_batches_.fetch_add(1); }

    /** One fulfilled request's latency components (microseconds). */
    void recordCompletion(double queue_us, double batch_us,
                          double search_us, double total_us);

    /** One dispatched batch of @p size requests. */
    void recordBatch(std::size_t size);

    /** @p n requests whose futures carry an engine exception. */
    void recordFailed(std::size_t n) { failed_.fetch_add(n); }

    /** One live mutation admitted through the service: bumps the
     * per-op applied counter, or the rejected counter on refusal. */
    void
    recordLiveOp(LiveOp op, bool applied)
    {
        if (!applied) {
            live_rejected_.fetch_add(1);
            return;
        }
        switch (op) {
        case LiveOp::kInsert:
            live_inserts_.fetch_add(1);
            break;
        case LiveOp::kRemove:
            live_removes_.fetch_add(1);
            break;
        case LiveOp::kUpsert:
            live_upserts_.fetch_add(1);
            break;
        }
    }

    std::uint64_t submitted() const { return submitted_.load(); }
    std::uint64_t completed() const { return completed_.load(); }
    std::uint64_t failed() const { return failed_.load(); }
    std::uint64_t rejectedFull() const { return rejected_full_.load(); }
    std::uint64_t
    rejectedStopped() const
    {
        return rejected_stopped_.load();
    }
    std::uint64_t
    rejectedExpired() const
    {
        return rejected_expired_.load();
    }
    std::uint64_t expired() const { return expired_.load(); }
    std::uint64_t degraded() const { return degraded_.load(); }
    std::uint64_t
    degradedBatches() const
    {
        return degraded_batches_.load();
    }
    std::uint64_t batches() const { return batches_.load(); }
    std::uint64_t liveInserts() const { return live_inserts_.load(); }
    std::uint64_t liveRemoves() const { return live_removes_.load(); }
    std::uint64_t liveUpserts() const { return live_upserts_.load(); }
    std::uint64_t
    liveRejected() const
    {
        return live_rejected_.load();
    }

    /** One latency component of the split (for single exports). */
    enum class Component { kQueue, kBatch, kSearch, kTotal };

    /**
     * Summarises just one component: what the metrics registry's
     * per-component summary callbacks pull, so exporting four
     * summaries does not digest the other three histograms each time.
     */
    LatencySummary componentSummary(Component component) const;

    /**
     * One summary per component plus every counter. Safe to call
     * concurrently with recording; the snapshot covers everything
     * recorded before the call plus possibly some records that race
     * with it.
     */
    Snapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> rejected_full_{0};
    std::atomic<std::uint64_t> rejected_stopped_{0};
    std::atomic<std::uint64_t> rejected_expired_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> degraded_{0};
    std::atomic<std::uint64_t> degraded_batches_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> batched_requests_{0};
    std::atomic<std::uint64_t> live_inserts_{0};
    std::atomic<std::uint64_t> live_removes_{0};
    std::atomic<std::uint64_t> live_upserts_{0};
    std::atomic<std::uint64_t> live_rejected_{0};
    HistogramMetric queue_us_;
    HistogramMetric batch_us_;
    HistogramMetric search_us_;
    HistogramMetric total_us_;
};

} // namespace juno

#endif // JUNO_SERVE_SERVICE_STATS_H
