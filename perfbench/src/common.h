/**
 * @file
 * Shared pieces of the repository benchmark: run arguments, the result
 * record every workload fills, the benchmark-side span log used by
 * traced runs, and the small load-generation helpers (Poisson
 * schedules, the sender -> reaper hand-off, conservation checks).
 *
 * Everything here sits outside the program under test: the workloads
 * drive the index and serving layers only through their public entry
 * points, and spans are recorded around those calls, never inside them.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/topk.h"
#include "dataset/synthetic.h"
#include "serve/search_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using juno::idx_t;

/** Command-line arguments of one benchmark run. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its spans (inside the checkout). */
    std::string trace_dir = ".bench_build/traces";
};

/** Threads a workload may keep busy at once (generator + program). */
constexpr int kThreadBudget = 4;

/**
 * What one workload run produced. Metric values are keyed by the
 * names main.cc's tables declare; the tables own units and decide
 * which names a traced or untraced run prints.
 */
struct RunResult {
    std::map<std::string, double> values;
    /** Workload shape recorded with the provenance (JSON values). */
    std::vector<std::pair<std::string, std::string>> params;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check; each also counts into failed. */
    std::vector<std::string> violations;

    void set(const std::string &name, double value) { values[name] = value; }
    void param(const std::string &key, double value);
    void param(const std::string &key, const std::string &text);
    void violation(const std::string &what, std::uint64_t ops = 1);
};

/**
 * One span the benchmark recorded around a call into a layer. Spans of
 * one request (or one engine batch) share @ref req; @ref parent names
 * the span of the same request that caused this one.
 */
struct Span {
    const char *name = "";
    const char *parent = nullptr;
    std::uint64_t req = 0;
    std::int64_t begin_ns = 0; ///< since the log's epoch
    std::int64_t end_ns = 0;
};

/**
 * Single-writer, fixed-capacity span buffer. The storage is allocated
 * and touched up front so recording never allocates and never shows up
 * as resident-memory growth of the program under test.
 */
class SpanLog {
  public:
    SpanLog(std::string thread, std::size_t capacity, Clock::time_point epoch);

    void record(const char *name, Clock::time_point begin,
                Clock::time_point end, std::uint64_t req,
                const char *parent = nullptr);

    /** Durations (microseconds) of every span called @p name. */
    std::vector<double> durationsUs(const char *name) const;

    const std::string &thread() const { return thread_; }
    const Span *begin() const { return spans_.data(); }
    const Span *end() const { return spans_.data() + count_; }
    std::size_t dropped() const { return dropped_; }

  private:
    std::string thread_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::size_t count_ = 0;
    std::size_t dropped_ = 0;
};

/** Records a span when @p log is non-null (untraced runs pass null). */
inline void
span(SpanLog *log, const char *name, Clock::time_point begin,
     Clock::time_point end, std::uint64_t req, const char *parent = nullptr)
{
    if (log != nullptr)
        log->record(name, begin, end, req, parent);
}

/** Writes @p logs as one Chrome trace-event JSON file. */
void writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

/** Linear-interpolated quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

double micros(Clock::duration d);
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Current resident set size of this process, MiB. */
double rssMiB();

/** Independent 64-bit seed for one purpose of one run. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t purpose);

/**
 * DEEP-like data with the mixture shape of bench::deepSpec() (D=96, L2,
 * 512 components, noise 4.0). Corpus and query set are fixed, as a
 * public dataset would be, so every seed builds the same index and asks
 * the same questions; @p seed shuffles the order the queries are asked
 * in. The workloads draw their arrival and write schedules from it too.
 */
juno::Dataset deepLike(idx_t points, idx_t queries, std::uint64_t seed);

/** Same ids and bit-identical scores, in the same order. */
bool sameNeighbors(const std::vector<juno::Neighbor> &a,
                   const std::vector<juno::Neighbor> &b);

/** One scheduled operation of an open-loop run. */
struct Event {
    double at_s = 0.0; ///< offset from the schedule start
    int kind = 0;      ///< workload-defined operation kind
};

/**
 * Merged Poisson arrival streams, one per (kind, rate) pair, over
 * @p seconds, sorted by time.
 */
std::vector<Event> poissonSchedule(
    const std::vector<std::pair<int, double>> &rates, double seconds,
    std::uint64_t seed);

/** A submitted request awaiting its result. */
struct Pending {
    std::future<juno::ResultList> result;
    Clock::time_point due;  ///< scheduled send time: the latency origin
    Clock::time_point sent; ///< when submit() was called
    std::int64_t tag = 0;   ///< workload-defined (query row, probe id)
};

/**
 * Submitted requests in submit order, settled by the open loop. The
 * service completes a single dispatcher's requests in that order, so
 * waiting on the oldest stamps each completion when it happens. Another
 * thread may push too (live-mixed's probe reads).
 */
class PendingLine {
  public:
    void push(Pending &&p);
    /** No other thread will push any more. */
    void close();
    /**
     * The oldest request, waiting until one is pushed, the line is
     * closed or @p until passes; null when there is none. @p drained
     * tells whether the line is closed and empty.
     */
    Pending *front(Clock::time_point until, bool &drained);
    /** Drops the oldest request (the consumer only). */
    void pop();

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Pending> pending_;
    bool closed_ = false;
};

/**
 * True when an open-loop generator fell behind its schedule: its median
 * send was more than a millisecond late. Single late sends are the
 * host's wake-up hiccups; latency is timed from the schedule, so those
 * are charged to the requests either way.
 */
bool fellBehind(const std::vector<double> &late_us);

/** Client-side outcome tally of one service's lifetime. */
struct ClientCounts {
    std::uint64_t attempted = 0; ///< submit() calls
    std::uint64_t rejected = 0;  ///< refused at submit()
    std::uint64_t ok = 0;        ///< futures holding a result
    std::uint64_t shed = 0;      ///< accepted, then RejectedError
    std::uint64_t errors = 0;    ///< accepted, then another exception
};

/**
 * Settles one future into @p counts; returns true and fills @p out
 * when it holds a result.
 */
bool settle(std::future<juno::ResultList> &f, ClientCounts &counts,
            juno::ResultList &out);

/**
 * Checks request conservation of a stopped (drained) service: the
 * service's submitted = completed + failed + shed, and every term
 * matches what the client saw. Mismatches become violations.
 */
void checkConservation(RunResult &result, const char *phase,
                       const juno::ServiceStats::Snapshot &snap,
                       const ClientCounts &client);

/**
 * Latencies of one open-loop phase, bucketed into fixed windows. Each
 * metric is a quantile over windows: a host hiccup that spoils a
 * minority of windows does not move it. Storage is sized and touched up
 * front.
 */
class Windows {
  public:
    Windows(Clock::time_point start, double phase_s, double window_s,
            std::size_t capacity);

    /**
     * Records one completion in the window holding @p at, its request's
     * scheduled send time (so a request counts even when it completes
     * after the phase). Its latency is kept while the capacity lasts.
     */
    void add(Clock::time_point at, double latency);

    /** Median over windows of the windows' @p q latency quantiles. */
    double medianQuantile(double q) const;

  private:
    Clock::time_point start_;
    double window_s_;
    std::size_t windows_;
    std::vector<double> latency_;
    std::vector<std::uint32_t> window_of_;
    std::size_t n_ = 0;
};

/** What the open loop hands back for each settled request. */
using Settled = std::function<void(const Pending &, bool ok,
                                   const juno::ResultList &,
                                   Clock::time_point done)>;

/**
 * Open loop: sends read i of @p reads at t0 + reads[i].at_s (query row
 * i mod rows) and records how late each send was; settles every request
 * in @p line, its own and those other threads pushed, as it completes.
 * Returns once all reads are sent and the closed line is drained.
 */
void openLoop(juno::SearchService &service, juno::FloatMatrixView queries,
              idx_t k, const std::vector<Event> &reads, Clock::time_point t0,
              ClientCounts &counts, std::vector<double> &late_us,
              PendingLine &line, const Settled &settled, SpanLog *log);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
