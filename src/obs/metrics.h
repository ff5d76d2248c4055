/**
 * @file
 * Process-wide metrics registry with Prometheus text exposition and
 * JSON export, plus HistogramMetric, the one bounded latency histogram
 * every serving-layer distribution records into.
 *
 * Registration is pull-only: counterCallback()/gaugeCallback()/
 * summaryCallback()/info() register a lambda over state the subsystem
 * already keeps (ServiceStats, HotListCache::Counters, ResourceUsage),
 * and the registry calls it at export time instead of duplicating that
 * state. Registration is RAII: drop the returned handle and the
 * callback is gone, so a stopped service cannot leave dangling lambdas
 * behind.
 *
 * Export never runs callbacks under the registry lock (a callback that
 * itself touches the registry, or a lock held across a slow snapshot,
 * would deadlock or stall recorders).
 */
#ifndef JUNO_OBS_METRICS_H
#define JUNO_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace juno {

/** Point-in-time digest of a histogram / latency distribution. */
struct HistogramSummary {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Fixed-memory, lock-free latency histogram with log-linear buckets in
 * the style of HdrHistogram: kSubBuckets linear sub-buckets per power
 * of two over [2^kMinExp, 2^kMaxExp) (about 1e-6 to 1.8e13), plus one
 * underflow bucket (values <= 0 or below the range) and one overflow
 * bucket (values at or above it). Bucket counts are relaxed atomics,
 * so any number of threads record concurrently without a lock, and the
 * footprint is fixed at construction: nothing grows with the number of
 * observations.
 *
 * count, sum (hence mean = sum / count), min and max are exact.
 *
 * Quantile contract: the reported q-quantile is the representative of
 * the bucket that holds the nearest-rank sample x_(ceil(q*n)), clamped
 * to [min, max]. An in-range bucket's representative is its midpoint,
 * within 1/128 (< 1%) relative error of every value in it; the
 * underflow bucket reports min and the overflow bucket max. A constant
 * stream therefore reports its value exactly.
 *
 * A summary racing with observe() sees every observation counted
 * before it read the count, and possibly some later ones.
 */
class HistogramMetric {
  public:
    void observe(double v);

    /** count/mean/max exact; p50/p95/p99 per the quantile contract. */
    HistogramSummary summary() const;

  private:
    static constexpr int kSubBucketBits = 6;
    static constexpr std::size_t kSubBuckets = std::size_t{1}
                                               << kSubBucketBits;
    static constexpr int kMinExp = -20;
    static constexpr int kMaxExp = 44;
    /** Underflow + (kMaxExp - kMinExp) octaves + overflow. */
    static constexpr std::size_t kBuckets =
        2 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

    static std::size_t bucketOf(double v);

    /** Zeroed by make_unique's value-initialisation. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(kBuckets);
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/**
 * Name-keyed metric registry with Prometheus text and JSON export.
 * All methods are thread-safe. Use global() for the process-wide
 * instance; tests can instantiate their own.
 */
class MetricsRegistry {
  public:
    /**
     * RAII callback registration: destruction (or release()) removes
     * the callback. Re-registering the same name replaces the entry;
     * the superseded handle's destruction then no-ops, so handles are
     * safe to hold across service restarts in any order.
     */
    class Registration {
      public:
        Registration() = default;
        Registration(Registration &&other) noexcept { *this = std::move(other); }
        Registration &operator=(Registration &&other) noexcept;
        ~Registration() { release(); }

        Registration(const Registration &) = delete;
        Registration &operator=(const Registration &) = delete;

        /** Unregisters now (idempotent). */
        void release();

      private:
        friend class MetricsRegistry;
        Registration(MetricsRegistry *owner, std::string name,
                     std::uint64_t id)
            : owner_(owner), name_(std::move(name)), id_(id)
        {
        }

        MetricsRegistry *owner_ = nullptr;
        std::string name_;
        std::uint64_t id_ = 0;
    };

    /** The process-wide registry (intentionally leaked singleton). */
    static MetricsRegistry &global();

    /**
     * Pull-mode registration: @p fn runs at every export. The callback
     * must stay valid until the returned Registration is destroyed.
     * Registering an existing name replaces it.
     */
    Registration counterCallback(const std::string &name,
                                 const std::string &help,
                                 std::function<std::uint64_t()> fn);

    /**
     * Labeled counter callback: registered under the full sample key
     * `name{k="v",...}`, so one metric family can carry several label
     * sets (e.g. juno_serve_shed_total{reason="queue_full"}). Entries
     * of the same family sort adjacently and share one HELP/TYPE block
     * in the Prometheus exposition.
     */
    Registration
    counterCallback(const std::string &name,
                    std::vector<std::pair<std::string, std::string>> labels,
                    const std::string &help,
                    std::function<std::uint64_t()> fn);

    Registration gaugeCallback(const std::string &name,
                               const std::string &help,
                               std::function<double()> fn);
    Registration summaryCallback(const std::string &name,
                                 const std::string &help,
                                 std::function<HistogramSummary()> fn);

    /**
     * Constant info metric: exported as `name{k="v",...} 1` — the
     * Prometheus idiom for build/version metadata.
     */
    Registration
    info(const std::string &name, const std::string &help,
         std::vector<std::pair<std::string, std::string>> labels);

    /** Prometheus text exposition (one HELP/TYPE block per metric). */
    std::string renderPrometheus() const;

    /** One JSON object: metric name -> value or summary object. */
    std::string renderJson() const;

    /** Number of registered metrics. */
    std::size_t size() const;

    /** Drops every entry (tests). Outstanding handles then no-op. */
    void clear();

  private:
    enum class Kind {
        kCounterFn,
        kGaugeFn,
        kSummaryFn,
        kInfo,
    };

    struct Entry {
        Kind kind = Kind::kCounterFn;
        std::string help;
        std::uint64_t id = 0;
        std::function<std::uint64_t()> counter_fn;
        std::function<double()> gauge_fn;
        std::function<HistogramSummary()> summary_fn;
        std::vector<std::pair<std::string, std::string>> labels;
    };

    Registration registerCallback(const std::string &name, Entry entry);
    void unregister(const std::string &name, std::uint64_t id);
    /** Copies all entries so export can run callbacks lock-free. */
    std::vector<std::pair<std::string, Entry>> snapshotEntries() const;

    mutable Mutex mutex_;
    std::map<std::string, Entry> entries_ JUNO_GUARDED_BY(mutex_);
    std::uint64_t next_id_ JUNO_GUARDED_BY(mutex_) = 1;
};

} // namespace juno

#endif // JUNO_OBS_METRICS_H
