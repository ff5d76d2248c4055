#include "harness/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"

namespace juno {

namespace {

using Clock = SearchService::Clock;

/**
 * Absorbs the gap between the service fulfilling a future and the
 * submitting side observing it; the service-side degraded marking is
 * exact, so the grace only avoids false late-unmarked positives.
 */
constexpr std::chrono::milliseconds kReapGrace{20};
constexpr std::uint64_t kProbeEvery = 16;
/** Queries a probe may take to become visible before it is missed. */
constexpr int kMaxPolls = 200;
/** Writer ids start this far past the source rows' ids. */
constexpr idx_t kFirstWriterIdOffset = 1000000;

/** An accepted request awaiting its result. */
struct Pending {
    std::future<ResultList> future;
    /** A completion observed after this and not flagged degraded is
     * late-unmarked (time_point::max() when undeadlined). */
    Clock::time_point late_after;
};

/** Books one issued request: an accepted one joins @p pending, a
 * refused one is tallied by reason. */
void
admit(const SearchService &service, std::future<ResultList> future,
      RejectReason reason, RequestTally &tally,
      std::deque<Pending> &pending)
{
    ++tally.attempted;
    switch (reason) {
    case RejectReason::kNone: {
        const double ms = service.config().default_deadline_ms;
        pending.push_back(
            {std::move(future),
             ms > 0.0 ? Clock::now() + kReapGrace +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    ms))
                      : Clock::time_point::max()});
        break;
    }
    case RejectReason::kQueueFull:
        ++tally.shed_full;
        break;
    case RejectReason::kExpired:
        ++tally.shed_expired;
        break;
    case RejectReason::kStopped:
        ++tally.shed_stopped;
        break;
    }
}

/** Settles the oldest pending request into @p tally, blocking until it
 * is ready; returns its result list (empty unless it completed). */
ResultList
settleFront(std::deque<Pending> &pending, RequestTally &tally)
{
    ResultList list;
    try {
        list = pending.front().future.get();
        ++tally.completed;
        if (list.degraded)
            ++tally.degraded;
        else if (Clock::now() > pending.front().late_after)
            ++tally.late_unmarked;
    } catch (const RejectedError &) {
        // An accepted request is only shed at dequeue (kExpired);
        // conserved() catches any other reason as a mismatch.
        ++tally.expired;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "loadgen: %s\n", err.what());
        ++tally.errors;
    }
    pending.pop_front();
    return list;
}

/** Runs @p body, recording an escaping exception as an error: out of a
 * std::thread body it would terminate the process. */
template <typename Body>
void
guarded(RequestTally &tally, Body body)
{
    try {
        body();
    } catch (const std::exception &err) {
        std::fprintf(stderr, "loadgen: %s\n", err.what());
        ++tally.errors;
    }
}

/** Client @p c: up to @p quota requests until @p t_end or the stop
 * flag, reaping results as they resolve, then drains. */
void
runClient(SearchService &service, FloatMatrixView queries,
          const LoadSpec &spec, int c, std::uint64_t quota,
          Clock::time_point t_end, RequestTally &tally)
{
    const bool open = spec.arrival == Arrival::kOpen;
    Rng rng(0xC0FFEE + static_cast<std::uint64_t>(c));
    auto stopped = [&] { return spec.stop != nullptr && spec.stop->load(); };
    std::deque<Pending> pending;
    idx_t qi = static_cast<idx_t>(c) % queries.rows();
    auto next = Clock::now();
    for (std::uint64_t sent = 0; sent < quota && !stopped(); ++sent) {
        if (open) {
            // Exponential gaps: Poisson per client, and the
            // superposition is Poisson at the offered rate.
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(-std::log(1.0 - rng.uniform()) *
                                              spec.clients /
                                              spec.offered_qps));
            if (next >= t_end)
                break;
            std::this_thread::sleep_until(next);
        } else {
            if (Clock::now() >= t_end)
                break;
            if (pending.size() >= static_cast<std::size_t>(spec.window))
                settleFront(pending, tally);
        }
        RejectReason reason = RejectReason::kNone;
        auto future = service.submit(queries.row(qi), spec.k, &reason);
        // Closed-loop backpressure: the dispatcher is behind, so yield
        // and resubmit rather than shrink the run.
        while (!open && reason == RejectReason::kQueueFull &&
               service.running() && !stopped()) {
            ++tally.retried_full;
            std::this_thread::yield();
            future = service.submit(queries.row(qi), spec.k, &reason);
        }
        qi = (qi + 1) % queries.rows();
        admit(service, std::move(future), reason, tally, pending);
        // Prompt reap: observed completion times track the real ones.
        while (!pending.empty() &&
               pending.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready)
            settleFront(pending, tally);
    }
    while (!pending.empty())
        settleFront(pending, tally);
}

/** Queries the serving path with @p vec until @p id is in its top-k;
 * false when kMaxPolls queries never return it. */
bool
pollUntilVisible(SearchService &service, const float *vec, idx_t id,
                 idx_t k, RequestTally &tally)
{
    std::deque<Pending> pending;
    for (int poll = 0; poll < kMaxPolls; ++poll) {
        RejectReason reason = RejectReason::kNone;
        auto future = service.submit(vec, k, &reason);
        admit(service, std::move(future), reason, tally, pending);
        if (reason == RejectReason::kStopped)
            return false;
        if (reason != RejectReason::kNone) {
            std::this_thread::yield();
            continue;
        }
        for (const Neighbor &n : settleFront(pending, tally))
            if (n.id == id)
                return true;
    }
    return false;
}

/** The paced writer: inserts and deletes at the spec's rates until
 * @p done or the stop flag; every kProbeEvery-th insert is a probe. */
void
runWriter(SearchService &service, FloatMatrixView queries,
          const LoadSpec &spec, const std::atomic<bool> &done,
          WriteResult &out)
{
    const WriteLoad &w = spec.writes;
    const Metric metric = service.index().metric();
    const auto rows = static_cast<std::uint64_t>(queries.rows());
    std::deque<idx_t> mine;
    idx_t next_id = w.source.rows() + kFirstWriterIdOffset;
    const auto start = Clock::now();
    double ins_due = 0.0, del_due = 0.0;
    HistogramMetric lag_us;
    while (!done.load() && !(spec.stop != nullptr && spec.stop->load())) {
        const double t =
            std::chrono::duration<double>(Clock::now() - start).count();
        bool worked = false;
        if (w.insert_rate > 0.0 && t >= ins_due) {
            const bool probe = out.inserts % kProbeEvery == 0;
            std::vector<float> probe_vec;
            if (probe)
                probe_vec = probeVector(
                    queries.row(static_cast<idx_t>(out.probes % rows)),
                    queries.cols(), metric,
                    static_cast<int>(out.probes / rows));
            const float *vec =
                probe ? probe_vec.data()
                      : w.source.row(next_id % w.source.rows());
            Timer lag;
            if (service.insert(vec, next_id) == MutateStatus::kOk) {
                mine.push_back(next_id);
                ++out.inserts;
                if (probe) {
                    ++out.probes;
                    if (pollUntilVisible(service, vec, next_id, spec.k,
                                         out.polls))
                        lag_us.observe(lag.micros());
                    else
                        ++out.probes_missed;
                }
            } else {
                ++out.rejected;
            }
            ++next_id;
            ins_due += 1.0 / w.insert_rate;
            worked = true;
        }
        if (w.delete_rate > 0.0 && t >= del_due) {
            if (!mine.empty()) {
                if (service.remove(mine.front()) == MutateStatus::kOk)
                    ++out.removes;
                else
                    ++out.rejected;
                mine.pop_front();
                worked = true;
            }
            // An empty backlog still consumes the tick, or a delete
            // burst would fire the moment inserts land.
            del_due += 1.0 / w.delete_rate;
        }
        if (!worked)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    out.lag_us = lag_us.summary();
}

} // namespace

RequestTally &
RequestTally::operator+=(const RequestTally &o)
{
    attempted += o.attempted;
    completed += o.completed;
    degraded += o.degraded;
    shed_full += o.shed_full;
    shed_expired += o.shed_expired;
    shed_stopped += o.shed_stopped;
    expired += o.expired;
    errors += o.errors;
    retried_full += o.retried_full;
    late_unmarked += o.late_unmarked;
    return *this;
}

LoadResult
runLoad(SearchService &service, FloatMatrixView queries,
        const LoadSpec &spec)
{
    const idx_t dim = service.index().dim();
    const WriteLoad &w = spec.writes;
    JUNO_REQUIRE(spec.clients >= 1, "loadgen: clients " << spec.clients);
    JUNO_REQUIRE(spec.arrival == Arrival::kOpen || spec.window >= 1,
                 "loadgen: window " << spec.window);
    JUNO_REQUIRE(spec.arrival == Arrival::kClosed || spec.offered_qps > 0.0,
                 "loadgen: open loop needs offered_qps > 0");
    JUNO_REQUIRE(spec.requests > 0 || spec.duration_s > 0.0 ||
                     spec.stop != nullptr,
                 "loadgen: no stop condition");
    JUNO_REQUIRE(queries.rows() > 0 && queries.cols() == dim,
                 "loadgen: queries must be rows of dimension " << dim);
    JUNO_REQUIRE(w.insert_rate <= 0.0 ||
                     (w.source.rows() > 0 && w.source.cols() == dim),
                 "loadgen: inserts need source rows of dimension " << dim);

    LoadResult result;
    const auto t0 = Clock::now();
    const auto t_end =
        spec.duration_s > 0.0
            ? t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(spec.duration_s))
            : Clock::time_point::max();
    std::atomic<bool> clients_done{false};
    std::thread writer;
    if (w.insert_rate > 0.0 || w.delete_rate > 0.0)
        writer = std::thread([&] {
            guarded(result.writes.polls, [&] {
                runWriter(service, queries, spec, clients_done,
                          result.writes);
            });
        });
    const auto n = static_cast<std::uint64_t>(spec.clients);
    std::vector<RequestTally> tallies(n);
    std::vector<std::thread> threads;
    for (std::uint64_t c = 0; c < n; ++c) {
        const std::uint64_t quota =
            spec.requests == 0 ? std::numeric_limits<std::uint64_t>::max()
                               : spec.requests / n +
                                     (c < spec.requests % n ? 1 : 0);
        threads.emplace_back([&, c, quota] {
            guarded(tallies[c], [&] {
                runClient(service, queries, spec, static_cast<int>(c),
                          quota, t_end, tallies[c]);
            });
        });
    }
    for (auto &t : threads)
        t.join();
    result.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    clients_done.store(true);
    if (writer.joinable())
        writer.join();
    for (const RequestTally &t : tallies)
        result.reads += t;
    result.qps = static_cast<double>(result.reads.completed) /
                 std::max(result.seconds, 1e-9);
    return result;
}

bool
conserved(const ServiceStats::Snapshot &snap, const LoadResult &load,
          std::string *why)
{
    RequestTally t = load.reads;
    t += load.writes.polls;
    const struct {
        const char *balance;
        std::uint64_t lhs, rhs;
    } balances[] = {
        {"submitted vs completed + failed + expired", snap.submitted,
         snap.completed + snap.failed + snap.expired},
        {"engine failures", snap.failed, 0},
        {"client errors", t.errors, 0},
        {"issued vs settled", t.attempted,
         t.completed + t.expired + t.shed() + t.errors},
        {"completed: clients vs service", t.completed, snap.completed},
        {"degraded: clients vs service", t.degraded, snap.degraded},
        {"expired: clients vs service", t.expired, snap.expired},
        {"refused full: clients vs service", t.shed_full + t.retried_full,
         snap.rejected_full},
        {"refused expired: clients vs service", t.shed_expired,
         snap.rejected_expired},
        {"refused stopped: clients vs service", t.shed_stopped,
         snap.rejected_stopped},
    };
    for (const auto &b : balances)
        if (b.lhs != b.rhs) {
            if (why != nullptr)
                *why = std::string(b.balance) + " " +
                       std::to_string(b.lhs) + " != " +
                       std::to_string(b.rhs);
            return false;
        }
    return true;
}

std::vector<float>
probeVector(const float *query, idx_t dim, Metric metric, int round)
{
    const float scale = (metric == Metric::kInnerProduct ? 16.0f : 1.0f) *
                        static_cast<float>(1 + round);
    std::vector<float> vec(query, query + dim);
    for (float &v : vec)
        v *= scale;
    return vec;
}

} // namespace juno
