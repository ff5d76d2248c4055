/**
 * @file
 * Process-wide metrics registry: counters, gauges and histograms with
 * Prometheus text exposition and JSON export.
 *
 * Two registration styles, one export door:
 *
 *  - Owned instruments (counter()/gauge()/histogram()): get-or-create
 *    by name; callers hold a shared_ptr and record into it directly.
 *    Counters/gauges are lock-free atomics; histograms shard their
 *    QuantileSketch by recording thread so concurrent observe() calls
 *    from worker threads rarely contend.
 *
 *  - Pull callbacks (counterCallback()/gaugeCallback()/
 *    summaryCallback()/info()): for subsystems that already keep their
 *    own counters (ServiceStats, HotListCache::Counters,
 *    ResourceUsage) — the registry calls the lambda at export time
 *    instead of duplicating state. Registration is RAII: drop the
 *    returned handle and the callback is gone, so a stopped service
 *    cannot leave dangling lambdas behind.
 *
 * Export never runs callbacks under the registry lock (a callback that
 * itself touches the registry, or a lock held across a slow snapshot,
 * would deadlock or stall recorders).
 */
#ifndef JUNO_OBS_METRICS_H
#define JUNO_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
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

/** Monotonically increasing counter (relaxed atomic increments). */
class Counter {
  public:
    void inc(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins scalar (set/add from any thread). */
class Gauge {
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Quantile-tracking histogram: observations land in one of kShards
 * thread-hashed QuantileSketch shards (each behind its own mutex, on
 * its own cache line), merged only at summary() time — contention-free
 * recording, exact union quantiles. ServiceStats keeps its four
 * latency components in four of these.
 */
class HistogramMetric {
  public:
    void observe(double v);
    void observe(const std::vector<double> &vs);

    /** Merges all shards and digests them (count/mean/p50/p95/p99/max). */
    HistogramSummary summary() const;

  private:
    static constexpr std::size_t kShards = 8;
    struct alignas(64) Shard {
        mutable Mutex mutex;
        QuantileSketch sketch JUNO_GUARDED_BY(mutex);
    };

    Shard &localShard();

    std::array<Shard, kShards> shards_;
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
     * Get-or-create an owned instrument. Throws ConfigError when the
     * name is invalid or already registered with a different kind.
     */
    std::shared_ptr<Counter> counter(const std::string &name,
                                     const std::string &help);
    std::shared_ptr<Gauge> gauge(const std::string &name,
                                 const std::string &help);
    std::shared_ptr<HistogramMetric> histogram(const std::string &name,
                                               const std::string &help);

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
        kCounter,
        kGauge,
        kHistogram,
        kCounterFn,
        kGaugeFn,
        kSummaryFn,
        kInfo,
    };

    struct Entry {
        Kind kind = Kind::kCounter;
        std::string help;
        std::uint64_t id = 0;
        std::shared_ptr<Counter> counter;
        std::shared_ptr<Gauge> gauge;
        std::shared_ptr<HistogramMetric> histogram;
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
