/**
 * @file
 * live-mixed: SearchService over LiveIndex wrapping IVF-Flat (the
 * incremental merge path) on DEEP-like 20k initial rows, under writes:
 * inserts, deletes of earlier inserts and a few upserts, each on its
 * own Poisson schedule, with merges publishing several generations per
 * run. Reads arrive open-loop at a fixed rate, timed from their
 * scheduled send time. One insert in kProbeEvery is a freshness probe:
 * its own vector is queried right after the insert is acknowledged and
 * must come back. No read may return an id whose delete was
 * acknowledged before the read was sent.
 */
#include <algorithm>
#include <atomic>
#include <climits>
#include <deque>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "live/live_index.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr idx_t kPoints = 20000;
constexpr idx_t kQueries = 1000;
/** Distinct insert vectors; later inserts reuse them, shifted. */
constexpr idx_t kPool = 20000;
constexpr idx_t kK = 10;
const char *const kSpec = "ivfflat:nlist=256,nprobe=8";
/** Set-ups per run; set-up time is their median. */
constexpr int kSetups = 5;
/*
 * Inserts and deletes run at one rate so the live set keeps its size: at
 * 2000 inserts/s against 500 deletes/s it grows by three quarters in a
 * ten-second run and read capacity falls by half within the run, so no
 * window of it would be representative.
 */
constexpr double kInsertRate = 500.0;
constexpr double kRemoveRate = 500.0;
constexpr double kUpsertRate = 20.0;
/**
 * Open-loop read rate (requests/s), fixed. Read capacity under writes
 * swings with the tombstone count of each merge cycle (1900-4600
 * reads/s in closed loop at twice these write rates on a 4-core AVX-512
 * host); the rate stays below its troughs.
 */
constexpr double kReadRate = 1000.0;
/** Every kProbeEvery-th insert is a freshness probe. */
constexpr std::uint64_t kProbeEvery = 2;
/**
 * Active-buffer rows that trigger a merge: ~2 generations/second. Reads
 * over-fetch the main index by its tombstone count, about this many at
 * the peak of a merge cycle.
 */
constexpr idx_t kMergeThreshold = 256;
constexpr idx_t kFreshCapacity = 8192;
/** Read latencies are medians over windows this long (s). */
constexpr double kWindowS = 1.0;
/** Read capacity is read per interval this long (~one merge cycle). */
constexpr auto kCapacityInterval = std::chrono::milliseconds(500);
/**
 * Deletes leave this many most recent inserts (two seconds' worth)
 * alone, and upserts pick among the oldest kUpsertWindow inserts still
 * live: a probe's vector stays put until its read has long completed.
 */
constexpr std::size_t kDeleteLag = 1000;
constexpr std::size_t kUpsertWindow = 500;

enum Op : int { kRead, kInsert, kRemove, kUpsert };

std::int64_t
stamp(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/**
 * Applies the write operations (one thread at a time)
 * and keeps the client's view of the live set: which inserted ids are
 * live with which vector, and when each delete was acknowledged.
 */
class Writer {
  public:
    Writer(const juno::Dataset &ds, std::size_t max_ids, std::uint64_t seed)
        : ds_(ds), vec_of_(max_ids, -1), deleted_at_(max_ids),
          rng_(seed), scratch_(static_cast<std::size_t>(ds.base.cols())),
          order_(static_cast<std::size_t>(kPool))
    {
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = kPoints + static_cast<idx_t>(i);
        std::shuffle(order_.begin(), order_.end(), rng_);
        for (auto &t : deleted_at_)
            t.store(INT64_MAX, std::memory_order_relaxed);
        for (auto &v : write_us_)
            v.reserve(1u << 17);
    }

    /** The vector of insert sequence number @p seq. */
    const float *vectorOf(std::int64_t seq)
    {
        const float *src =
            ds_.base.row(order_[static_cast<std::size_t>(seq % kPool)]);
        const std::int64_t cycle = seq / kPool;
        if (cycle == 0)
            return src;
        // A later cycle reuses the pool shifted along one axis, so every
        // inserted vector is distinct and is its own unique top-1.
        std::copy(src, src + scratch_.size(), scratch_.begin());
        scratch_[static_cast<std::size_t>(cycle) % scratch_.size()] +=
            1e-2f * static_cast<float>(cycle);
        return scratch_.data();
    }

    /** The current vector of live inserted id @p id. */
    const float *vectorOfId(idx_t id)
    {
        return vectorOf(vec_of_[static_cast<std::size_t>(id - kPoints)]);
    }

    /** Inserts the next id; returns it, or -1 when refused. */
    idx_t insert(juno::SearchService &service, SpanLog *log)
    {
        if (static_cast<std::size_t>(next_id_) == vec_of_.size())
            return -1;
        const idx_t id = kPoints + next_id_++;
        const std::int64_t seq = next_seq_++;
        const auto ok = timed(kInsert, log, [&] {
            return service.insert(vectorOf(seq), id);
        });
        if (!ok)
            return -1;
        vec_of_[static_cast<std::size_t>(id - kPoints)] = seq;
        fifo_.push_back(id);
        return id;
    }

    /**
     * Deletes the oldest insert still live, once kDeleteLag younger ones
     * exist, so that deletes mostly hit merged rows.
     */
    void remove(juno::SearchService &service, SpanLog *log)
    {
        if (fifo_.size() <= kDeleteLag)
            return;
        const idx_t id = fifo_.front();
        fifo_.pop_front();
        if (timed(kRemove, log, [&] { return service.remove(id); })) {
            vec_of_[static_cast<std::size_t>(id - kPoints)] = -1;
            deleted_at_[static_cast<std::size_t>(id - kPoints)].store(
                stamp(Clock::now()));
        }
    }

    /** Replaces the vector of one of the oldest inserts still live. */
    void upsert(juno::SearchService &service, SpanLog *log)
    {
        if (fifo_.empty())
            return;
        const idx_t id =
            fifo_[rng_() % std::min(fifo_.size(), kUpsertWindow)];
        const std::int64_t seq = next_seq_++;
        if (timed(kUpsert, log,
                  [&] { return service.upsert(vectorOf(seq), id); }))
            vec_of_[static_cast<std::size_t>(id - kPoints)] = seq;
    }

    /** True when no id in @p r was deleted before @p sent. */
    bool noneDeletedBefore(const juno::ResultList &r,
                           Clock::time_point sent) const
    {
        const std::int64_t t = stamp(sent);
        for (const juno::Neighbor &n : r) {
            if (n.id < kPoints ||
                n.id >= kPoints + static_cast<idx_t>(vec_of_.size()))
                continue;
            if (deleted_at_[static_cast<std::size_t>(n.id - kPoints)].load() <
                t)
                return false;
        }
        return true;
    }

    /** Rows of the client's live set and their external ids. */
    juno::FloatMatrix liveSet(std::vector<idx_t> &ids)
    {
        const idx_t dim = ds_.base.cols();
        std::vector<std::pair<idx_t, std::int64_t>> live;
        for (std::size_t i = 0; i < vec_of_.size(); ++i)
            if (vec_of_[i] >= 0)
                live.emplace_back(kPoints + static_cast<idx_t>(i), vec_of_[i]);
        juno::FloatMatrix rows(kPoints + static_cast<idx_t>(live.size()), dim);
        ids.clear();
        for (idx_t r = 0; r < kPoints; ++r) {
            std::copy(ds_.base.row(r), ds_.base.row(r) + dim, rows.row(r));
            ids.push_back(r);
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            const float *v = vectorOf(live[i].second);
            std::copy(v, v + dim, rows.row(kPoints + static_cast<idx_t>(i)));
            ids.push_back(live[i].first);
        }
        return rows;
    }

    const std::vector<double> &writeUs(Op op) const { return write_us_[op]; }
    std::vector<double> allWriteUs() const
    {
        std::vector<double> all;
        for (const auto &v : write_us_)
            all.insert(all.end(), v.begin(), v.end());
        return all;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t refused() const { return refused_; }

  private:
    template <typename Fn>
    bool timed(Op op, SpanLog *log, Fn &&fn)
    {
        static const char *const kNames[] = {"", "live.insert", "live.remove",
                                             "live.upsert"};
        const auto t0 = Clock::now();
        const juno::MutateStatus status = fn();
        const auto t1 = Clock::now();
        span(log, kNames[op], t0, t1, attempted_);
        write_us_[op].push_back(micros(t1 - t0));
        ++attempted_;
        if (status != juno::MutateStatus::kOk) {
            ++refused_;
            return false;
        }
        return true;
    }

    const juno::Dataset &ds_;
    /** Per inserted id: its current vector's sequence, -1 when not live. */
    std::vector<std::int64_t> vec_of_;
    /** Per inserted id: when its delete was acknowledged (ns). */
    std::vector<std::atomic<std::int64_t>> deleted_at_;
    std::deque<idx_t> fifo_;
    std::mt19937_64 rng_;
    std::vector<float> scratch_;
    /** Pool rows in the seed's insertion order. */
    std::vector<idx_t> order_;
    idx_t next_id_ = 0;
    std::int64_t next_seq_ = 0;
    std::vector<double> write_us_[4];
    std::uint64_t attempted_ = 0;
    std::uint64_t refused_ = 0;
};

Clock::time_point
dueAt(Clock::time_point t0, const Event &ev)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ev.at_s));
}

} // namespace

void
runLiveMixed(const Args &args, RunResult &result)
{
    // Base rows first, then the insert pool, from one mixture; the seed
    // orders the queries and the pool's inserts.
    const juno::Dataset ds =
        deepLike(kPoints + kPool, kQueries, args.seed);
    const idx_t dim = ds.base.cols();
    const juno::FloatMatrixView base(ds.base.data(), kPoints, dim);
    const juno::FloatMatrixView queries = ds.queries.view();
    const std::vector<Event> writes = poissonSchedule(
        {{kInsert, kInsertRate}, {kRemove, kRemoveRate}, {kUpsert, kUpsertRate}},
        args.seconds, subSeed(args.seed, 5));
    const std::vector<Event> reads =
        poissonSchedule({{kRead, kReadRate}}, args.seconds, subSeed(args.seed, 6));
    std::size_t max_ids = kDeleteLag;
    for (const Event &ev : writes)
        max_ids += ev.kind == kInsert;
    result.param("points", static_cast<double>(kPoints));
    result.param("queries", static_cast<double>(kQueries));
    result.param("dim", static_cast<double>(dim));
    result.param("k", static_cast<double>(kK));
    result.param("spec", kSpec);
    result.param("read_rate", kReadRate);
    result.param("insert_rate", kInsertRate);
    result.param("remove_rate", kRemoveRate);
    result.param("upsert_rate", kUpsertRate);
    result.param("merge_threshold", static_cast<double>(kMergeThreshold));

    // Merge spans land here; it outlives the index that records them and
    // keeps every merge a run can make (at most one per write).
    juno::TracerConfig tracer_config;
    tracer_config.max_sampled = writes.size() + 64;
    juno::Tracer merge_tracer(tracer_config);
    juno::LiveConfig live_config;
    live_config.fresh_capacity = kFreshCapacity;
    live_config.merge_threshold = kMergeThreshold;
    live_config.tracer = &merge_tracer;

    // One read per batch, so the service's search time of a request is
    // that read's own and read capacity can be taken from it.
    juno::ServiceConfig service_config;
    service_config.max_batch = 1;
    std::unique_ptr<juno::LiveIndex> live;
    std::unique_ptr<juno::SearchService> service;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetups; ++rep) {
        service.reset();
        live.reset();
        const auto t0 = Clock::now();
        live = std::make_unique<juno::LiveIndex>(ds.metric, base, kSpec,
                                                 live_config);
        service = std::make_unique<juno::SearchService>(*live, service_config);
        service->start();
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    result.set("setup_s", quantile(setup_s, 0.5));
    // Warm-up, outside set-up and measurement: the inserts that deletes
    // lag behind, folded into the index, so deletes start at once.
    Writer writer(ds, max_ids, subSeed(args.seed, 7));
    for (std::size_t i = 0; i < kDeleteLag; ++i)
        writer.insert(*service, nullptr);
    live->mergeNow();
    const juno::LiveStats stats0 = live->liveStats();
    const std::size_t merge_traces0 = merge_tracer.sampledTraces().size();

    const auto epoch = Clock::now();
    const std::size_t span_cap = args.trace ? 1u << 20 : 0;
    SpanLog reader_log("live-mixed reader", span_cap, epoch);
    SpanLog writer_log("live-mixed writer", span_cap, epoch);
    SpanLog *reader = args.trace ? &reader_log : nullptr;
    SpanLog *writer_spans = args.trace ? &writer_log : nullptr;
    std::vector<double> late_us;
    late_us.reserve(reads.size());
    std::vector<double> fresh_rows, tombstones;
    // Merges hold two generations for a while, so resident memory steps
    // between ~60, 76, 84, 92 and 99 MiB on the reference host, in shares
    // that differ from run to run. It is sampled through the run and
    // reported as the 10th percentile: the footprint between merges.
    std::vector<double> rss_samples;
    rss_samples.reserve(1024);
    // The service's search time so far, (reads, total us), sampled once
    // per kCapacityInterval.
    std::vector<std::pair<double, double>> search_marks;
    search_marks.reserve(1024);
    auto sample_live = [&, next_rss = Clock::now(),
                        next_mark = Clock::now(),
                        next_stats = Clock::now()]() mutable {
        const auto now = Clock::now();
        if (now >= next_rss) {
            next_rss += std::chrono::milliseconds(100);
            rss_samples.push_back(rssMiB());
        }
        if (now >= next_mark) {
            next_mark += kCapacityInterval;
            const juno::LatencySummary s =
                service->stats().snapshot().search_us;
            search_marks.emplace_back(static_cast<double>(s.count),
                                      s.mean * static_cast<double>(s.count));
        }
        if (!args.trace || now < next_stats)
            return;
        next_stats += std::chrono::milliseconds(10);
        const juno::LiveStats s = live->liveStats();
        fresh_rows.push_back(static_cast<double>(s.fresh_rows));
        tombstones.push_back(static_cast<double>(s.tombstones));
    };
    auto apply_write = [&](int kind) {
        if (kind == kInsert)
            writer.insert(*service, writer_spans);
        else if (kind == kRemove)
            writer.remove(*service, writer_spans);
        else
            writer.upsert(*service, writer_spans);
    };

    // One open-loop phase: reads and writes on their own schedules and
    // threads, so a write waiting on the index's writer lock does not
    // hold back reads. A probe read follows each probe insert at once;
    // the main thread settles it with the reads.
    std::uint64_t resurrected = 0;
    ClientCounts open, probes_sent;
    PendingLine line;
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    Windows windows(t0, args.seconds, kWindowS, reads.size());
    std::thread write_thread([&] {
        std::uint64_t inserts = 0;
        for (const Event &ev : writes) {
            std::this_thread::sleep_until(dueAt(t0, ev));
            if (ev.kind != kInsert) {
                apply_write(ev.kind);
                sample_live();
                continue;
            }
            const bool probe = inserts++ % kProbeEvery == 0;
            const idx_t id = writer.insert(*service, writer_spans);
            sample_live();
            if (!probe || id < 0)
                continue;
            const auto ack = Clock::now();
            juno::RejectReason reason = juno::RejectReason::kNone;
            auto f = service->submit(writer.vectorOfId(id), kK, &reason);
            ++probes_sent.attempted;
            if (reason != juno::RejectReason::kNone)
                ++probes_sent.rejected;
            else
                line.push(Pending{std::move(f), ack, ack, -1 - id});
        }
        line.close();
    });
    std::vector<double> fresh_ms;
    fresh_ms.reserve(writes.size());
    std::uint64_t invisible = 0;
    std::uint64_t settled = 0;
    openLoop(*service, queries, kK, reads, t0, open, late_us, line,
             [&](const Pending &p, bool ok, const juno::ResultList &r,
                 Clock::time_point done) {
                 span(reader, p.tag >= 0 ? "loadgen.request" : "loadgen.probe",
                      p.due, done, settled++);
                 if (!ok)
                     return;
                 resurrected += !writer.noneDeletedBefore(r, p.sent);
                 const double ms =
                     std::chrono::duration<double, std::milli>(done - p.due)
                         .count();
                 if (p.tag >= 0) {
                     windows.add(p.due, ms);
                     return;
                 }
                 const idx_t id = -1 - p.tag;
                 if (std::any_of(r.begin(), r.end(),
                                 [&](const juno::Neighbor &n) {
                                     return n.id == id;
                                 }))
                     fresh_ms.push_back(ms);
                 else
                     ++invisible;
             },
             reader);
    write_thread.join();
    open.attempted += probes_sent.attempted;
    open.rejected += probes_sent.rejected;
    result.set("rss_mb", rss_samples.empty() ? rssMiB()
                                             : quantile(rss_samples, 0.1));
    service->stop();
    const juno::ServiceStats::Snapshot snap = service->snapshot();
    checkConservation(result, "open loop", snap, open);
    const juno::LiveStats stats1 = live->liveStats();

    // Read capacity under writes: reads per second of the service's own
    // search time, which includes waits on the index's writer lock.
    // Offered load is fixed, so the delivered rate would only read the
    // generator; this moves with the read path and with write contention.
    // It is the median over the intervals' mean search times, so a host
    // stall or burst shorter than half the run does not move it.
    std::vector<double> interval_us;
    for (std::size_t i = 1; i < search_marks.size(); ++i) {
        const double reads_in =
            search_marks[i].first - search_marks[i - 1].first;
        if (reads_in > 0.0)
            interval_us.push_back((search_marks[i].second -
                                   search_marks[i - 1].second) /
                                  reads_in);
    }
    if (interval_us.empty()) // a run shorter than two intervals
        interval_us.push_back(snap.search_us.mean);
    result.set("qps", 1e6 / quantile(interval_us, 0.5));
    result.set("lat_p50_ms", windows.medianQuantile(0.50));
    result.set("lat_p99_ms", windows.medianQuantile(0.99));
    result.set("fresh_p50_ms", quantile(fresh_ms, 0.50));
    result.set("fresh_p99_ms", quantile(fresh_ms, 0.99));
    result.set("write_p99_us", quantile(writer.allWriteUs(), 0.99));
    const double late_p99 = quantile(late_us, 0.99);
    result.set("loadgen.late_p99_us", late_p99);
    result.param("probes", static_cast<double>(fresh_ms.size() + invisible));
    result.param("generations",
                 static_cast<double>(stats1.generations_published -
                                     stats0.generations_published));
    if (fellBehind(late_us))
        result.violation("open-loop generator fell behind its schedule");
    if (invisible != 0)
        result.violation(std::to_string(invisible) +
                             " probe inserts not visible to the next read",
                         invisible);
    if (resurrected != 0)
        result.violation(std::to_string(resurrected) +
                             " reads returned an id deleted before they "
                             "were sent",
                         resurrected);
    result.attempted +=
        open.attempted + writer.attempted();
    const std::uint64_t lost = open.rejected + open.shed + open.errors +
                               writer.refused();
    if (lost != 0)
        result.violation(std::to_string(lost) +
                             " operations failed, shed or refused",
                         lost);

    // Recall of the final state against exact search over the client's
    // own record of the live set; the live count must agree with it.
    std::vector<idx_t> ids;
    const juno::FloatMatrix rows = writer.liveSet(ids);
    if (stats1.live_count != static_cast<idx_t>(ids.size()))
        result.violation("index holds " + std::to_string(stats1.live_count) +
                         " live ids, client expects " +
                         std::to_string(ids.size()));
    juno::GroundTruth gt;
    {
        juno::ThreadPool pool(kThreadBudget);
        gt = juno::computeGroundTruth(ds.metric, rows.view(), queries, kK,
                                      &pool);
    }
    for (auto &list_q : gt.neighbors)
        for (juno::Neighbor &n : list_q)
            n.id = ids[static_cast<std::size_t>(n.id)];
    juno::SearchOptions direct;
    direct.k = kK;
    direct.threads = 1;
    const juno::SearchResults final_res =
        live->search(juno::SearchRequest(queries, direct));
    result.attempted += kQueries;
    result.set("recall", juno::recallMAtK(gt, final_res, kK));
    if (!args.trace)
        return;

    const std::vector<double> submit_us = reader_log.durationsUs("serve.submit");
    result.set("serve.submit_us.p50", quantile(submit_us, 0.50));
    result.set("serve.submit_us.p99", quantile(submit_us, 0.99));
    result.set("serve.queue_us.p50", snap.queue_us.p50);
    result.set("serve.queue_us.p99", snap.queue_us.p99);
    result.set("serve.batch_us.p50", snap.batch_us.p50);
    result.set("serve.search_us.p50", snap.search_us.p50);
    result.set("serve.search_us.p99", snap.search_us.p99);
    result.set("serve.mean_batch", snap.mean_batch);
    result.set("serve.shed_frac",
               static_cast<double>(open.rejected + open.shed) /
                   static_cast<double>(open.attempted));
    result.set("live.insert_us.p99", quantile(writer.writeUs(kInsert), 0.99));
    result.set("live.remove_us.p99", quantile(writer.writeUs(kRemove), 0.99));
    result.set("live.upsert_us.p99", quantile(writer.writeUs(kUpsert), 0.99));
    result.set("live.merges", static_cast<double>(stats1.merges - stats0.merges));
    result.set("live.rejected_full",
               static_cast<double>(stats1.rejected_full - stats0.rejected_full));
    result.set("live.fresh_rows.mean", mean(fresh_rows));
    result.set("live.tombstones.mean", mean(tombstones));
    // Merges of the measured phase only: the warm-up merge folds in four
    // times as many rows.
    std::vector<double> merge_ms;
    const auto merge_traces = merge_tracer.sampledTraces();
    for (std::size_t i = merge_traces0; i < merge_traces.size(); ++i) {
        std::int64_t lo = INT64_MAX, hi = INT64_MIN;
        for (const juno::TraceEvent &ev : merge_traces[i]->events()) {
            if (ev.phase != 'X')
                continue;
            lo = std::min(lo, ev.ts_us);
            hi = std::max(hi, ev.ts_us + ev.dur_us);
        }
        if (hi >= lo)
            merge_ms.push_back(static_cast<double>(hi - lo) * 1e-3);
    }
    result.set("live.merge_ms.p50", quantile(merge_ms, 0.50));
    writeSpans(spanPath(args), {&reader_log, &writer_log});
}

} // namespace perfbench
