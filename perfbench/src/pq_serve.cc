/**
 * @file
 * pq-serve: SearchService over IVFPQ 4-bit fast-scan on DEEP-like 100k
 * (k=10). Phase 1 is a closed loop with a fixed number of outstanding
 * requests (throughput); phase 2 is an open loop of Poisson arrivals at
 * one fixed absolute rate (latency, timed from each request's scheduled
 * send time). Every served result must equal direct AnnIndex::search
 * bit for bit. No JUNO code runs: this is the bypass workload for every
 * core/rtcore change, and the one where the request layers are a
 * visible share of each request's cost.
 */
#include <deque>
#include <memory>
#include <stdexcept>

#include "baseline/ivfpq_index.h"
#include "common/thread_pool.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "registry/index_factory.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr idx_t kPoints = 100000;
constexpr idx_t kQueries = 2000;
constexpr idx_t kK = 10;
const char *const kSpec = "ivfpq:nlist=512,m=48,entries=16,nprobe=8,"
                          "train=20000";
/** Set-ups per run; set-up time is their median. */
constexpr int kSetups = 2;
/**
 * Closed loop: requests kept outstanding by the one client, twice the
 * service's max_batch so the dispatcher always finds a full batch.
 */
constexpr int kWindow = 128;
/**
 * Open-loop arrival rate (requests/s). Calibrated once at about 40% of
 * the closed-loop capacity measured on a 4-core AVX-512 host, and fixed
 * so that every commit is offered the same load.
 */
constexpr double kOpenRate = 4000.0;
/** Open-loop latencies are medians over windows of this many seconds. */
constexpr double kWindowS = 1.0;
/**
 * Closed-loop throughput is read over spans of this many consecutive
 * completions (32 full batches, ~0.2 s on the reference host; ~37 spans
 * in a ten-second run).
 */
constexpr std::size_t kRateSpan = 2048;

/**
 * Closed loop: one client keeps kWindow requests outstanding for
 * @p seconds, cycling through @p queries. Results that differ from
 * @p ref (the direct search) or are flagged degraded count into @p bad.
 * Returns each completion's time (s from the start of the loop).
 */
std::vector<double>
closedLoop(juno::SearchService &service, juno::FloatMatrixView queries,
           double seconds, const juno::SearchResults &ref,
           ClientCounts &counts, std::uint64_t &bad, SpanLog *log)
{
    struct InFlight {
        std::future<juno::ResultList> result;
        idx_t row;
        Clock::time_point sent;
    };
    std::deque<InFlight> inflight;
    juno::ResultList list;
    // Sized and touched up front: ~3x the reference host's capacity.
    std::vector<double> done(static_cast<std::size_t>(seconds * 40000.0));
    done.clear();
    const auto start = Clock::now();
    auto reap = [&] {
        InFlight &f = inflight.front();
        if (settle(f.result, counts, list)) {
            done.push_back(secondsBetween(start, Clock::now()));
            bad += list.degraded || !sameNeighbors(list, ref[f.row]);
        }
        inflight.pop_front();
    };
    const auto stop = start +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    idx_t row = 0;
    std::uint64_t req = 0;
    while (Clock::now() < stop) {
        if (inflight.size() >= static_cast<std::size_t>(kWindow))
            reap();
        juno::RejectReason reason = juno::RejectReason::kNone;
        const auto sent = Clock::now();
        auto f = service.submit(queries.row(row), kK, &reason);
        span(log, "serve.submit", sent, Clock::now(), req++);
        ++counts.attempted;
        if (reason != juno::RejectReason::kNone)
            ++counts.rejected;
        else
            inflight.push_back(InFlight{std::move(f), row, sent});
        row = (row + 1) % queries.rows();
    }
    while (!inflight.empty())
        reap();
    return done;
}

/**
 * Completions per second of each span of kRateSpan consecutive
 * completions in @p done, in order; of the whole loop when it completed
 * less than one span (a run of a second or so).
 */
std::vector<double>
spanRates(const std::vector<double> &done)
{
    std::vector<double> rates;
    for (std::size_t i = kRateSpan; i < done.size(); i += kRateSpan)
        rates.push_back(static_cast<double>(kRateSpan) /
                        (done[i] - done[i - kRateSpan]));
    if (rates.empty() && done.size() > 1)
        rates.push_back(static_cast<double>(done.size() - 1) /
                        (done.back() - done.front()));
    return rates;
}

} // namespace

void
runPqServe(const Args &args, RunResult &result)
{
    const juno::Dataset ds = deepLike(kPoints, kQueries, args.seed);
    const idx_t dim = ds.base.cols();
    const juno::FloatMatrixView queries = ds.queries.view();
    juno::GroundTruth gt;
    {
        juno::ThreadPool pool(kThreadBudget);
        gt = juno::computeGroundTruth(ds.metric, ds.base.view(), queries, kK,
                                      &pool);
    }
    // Throughput (the end-to-end metric) gets three quarters of the run.
    const double closed_s = args.seconds * 0.75;
    const double open_s = args.seconds - closed_s;
    const std::vector<Event> schedule =
        poissonSchedule({{0, kOpenRate}}, open_s, subSeed(args.seed, 3));
    result.param("points", static_cast<double>(kPoints));
    result.param("queries", static_cast<double>(kQueries));
    result.param("dim", static_cast<double>(dim));
    result.param("k", static_cast<double>(kK));
    result.param("spec", kSpec);
    result.param("window", static_cast<double>(kWindow));
    result.param("open_rate", kOpenRate);

    // Set-up: index build + service start, repeated; the last one serves.
    std::unique_ptr<juno::AnnIndex> index;
    std::unique_ptr<juno::SearchService> service;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetups; ++rep) {
        service.reset();
        index.reset();
        const auto t0 = Clock::now();
        index = juno::buildIndex(ds.metric, ds.base.view(), kSpec);
        service = std::make_unique<juno::SearchService>(*index,
                                                     juno::ServiceConfig{});
        service->start();
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    result.set("setup_s", quantile(setup_s, 0.5));
    const auto *pq = dynamic_cast<const juno::IvfPqIndex *>(index.get());
    if (pq == nullptr)
        throw std::runtime_error("spec did not build an IvfPqIndex");

    juno::SearchOptions direct;
    direct.k = kK;
    direct.threads = 1;
    direct.collect_stats = false;
    const juno::SearchResults ref =
        index->search(juno::SearchRequest(queries, direct));
    result.attempted += kQueries;
    result.set("recall", juno::recallMAtK(gt, ref, kK));

    const auto epoch = Clock::now();
    const std::size_t span_cap = args.trace ? 1u << 20 : 0;
    SpanLog client_log("pq-serve client", span_cap, epoch);
    SpanLog *client = args.trace ? &client_log : nullptr;

    // Phase 1: closed loop.
    ClientCounts closed;
    std::uint64_t closed_bad = 0;
    // The 10th percentile of the span rates: the reference host runs at a
    // base speed most of the time and switches to a mode up to 45% faster
    // for seconds to tens of seconds at a time, so the fastest spans read
    // that mode and a low percentile reads the base speed unless the fast
    // mode fills nearly the whole loop.
    result.set("qps", quantile(spanRates(closedLoop(*service, queries,
                                                    closed_s, ref, closed,
                                                    closed_bad, client)),
                               0.10));
    service->stop();
    checkConservation(result, "closed loop", service->snapshot(), closed);

    // Phase 2: open loop on a fresh service over the same index, so its
    // ServiceStats cover this phase alone.
    service = std::make_unique<juno::SearchService>(*index,
                                                     juno::ServiceConfig{});
    service->start();
    ClientCounts open;
    // Client-side buffers are sized and touched before the phase, so
    // resident-memory growth during it is the program's own.
    std::vector<double> late_us(schedule.size());
    late_us.clear();
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    Windows open_windows(t0, open_s, kWindowS, schedule.size());
    std::uint64_t open_bad = 0;
    std::uint64_t settled = 0;
    PendingLine line;
    line.close(); // the loop's own reads are the only requests
    const double rss0 = rssMiB();
    openLoop(*service, queries, kK, schedule, t0, open, late_us, line,
             [&](const Pending &p, bool ok, const juno::ResultList &r,
                 Clock::time_point done) {
                 span(client, "loadgen.request", p.due, done, settled++);
                 if (!ok)
                     return;
                 open_windows.add(p.due, micros(done - p.due) * 1e-3);
                 open_bad += r.degraded || !sameNeighbors(r, ref[p.tag]);
             },
             client);
    const double rss1 = rssMiB();
    result.set("rss_mb", rss1);
    service->stop();
    const juno::ServiceStats::Snapshot snap = service->snapshot();
    checkConservation(result, "open loop", snap, open);

    result.set("lat_p50_ms", open_windows.medianQuantile(0.50));
    result.set("lat_p99_ms", open_windows.medianQuantile(0.99));
    const double late_p99 = quantile(late_us, 0.99);
    result.set("loadgen.late_p99_us", late_p99);
    if (fellBehind(late_us))
        result.violation("open-loop generator fell behind its schedule");
    result.attempted += closed.attempted + open.attempted;
    const std::uint64_t lost = closed.rejected + closed.shed + closed.errors +
                               open.rejected + open.shed + open.errors;
    if (lost != 0)
        result.violation(std::to_string(lost) + " requests failed or shed",
                         lost);
    if (closed_bad + open_bad != 0)
        result.violation(std::to_string(closed_bad + open_bad) +
                             " served results differ from direct search",
                         closed_bad + open_bad);
    if (!args.trace)
        return;

    const std::vector<double> submit_us = client_log.durationsUs("serve.submit");
    result.set("serve.submit_us.p50", quantile(submit_us, 0.50));
    result.set("serve.submit_us.p99", quantile(submit_us, 0.99));
    result.set("serve.queue_us.p50", snap.queue_us.p50);
    result.set("serve.queue_us.p99", snap.queue_us.p99);
    result.set("serve.batch_us.p50", snap.batch_us.p50);
    result.set("serve.search_us.p50", snap.search_us.p50);
    result.set("serve.search_us.p99", snap.search_us.p99);
    result.set("serve.mean_batch", snap.mean_batch);
    result.set("serve.shed_frac", static_cast<double>(lost) /
                                      static_cast<double>(closed.attempted +
                                                          open.attempted));
    result.set("serve.rss_growth_kb_per_kreq",
               (rss1 - rss0) * 1024.0 /
                   (static_cast<double>(open.ok) / 1000.0));

    // Layer ledger of the index itself: one direct batch over the query
    // set with stage stats on, plus the codes it must scan.
    double codes = 0.0;
    for (idx_t q = 0; q < kQueries; ++q)
        for (const juno::Neighbor &probe :
             pq->ivf().probe(ds.metric, queries.row(q), pq->nprobs()))
            codes += static_cast<double>(
                pq->ivf().list(static_cast<juno::cluster_t>(probe.id)).size());
    const juno::StageTimers timers0 = index->stageTimers();
    juno::SearchOptions staged = direct;
    staged.collect_stats = true;
    const auto b0 = Clock::now();
    const juno::SearchResults staged_res =
        index->search(juno::SearchRequest(queries, staged));
    const auto b1 = Clock::now();
    span(client, "engine.search", b0, b1, 0);
    result.attempted += kQueries;
    std::uint64_t staged_bad = 0;
    for (idx_t q = 0; q < kQueries; ++q)
        staged_bad += !sameNeighbors(staged_res[q], ref[q]);
    if (staged_bad != 0)
        result.violation("stage-stats batch differs from direct search",
                         staged_bad);
    const juno::StageTimers &timers = index->stageTimers();
    auto stage_s = [&](juno::Stage s) {
        return timers.seconds(s) - timers0.seconds(s);
    };
    const double n = static_cast<double>(kQueries);
    const double filter_s = stage_s(juno::Stage::kFilter);
    const double lut_s = stage_s(juno::Stage::kLut);
    const double scan_s = stage_s(juno::Stage::kScan);
    result.set("ivf.filter_us_per_q", filter_s * 1e6 / n);
    result.set("quant.lut_us_per_q", lut_s * 1e6 / n);
    result.set("quant.scan_us_per_q", scan_s * 1e6 / n);
    result.set("quant.codes_per_q", codes / n);
    result.set("quant.scan_ns_per_code", scan_s * 1e9 / codes);
    result.set("engine.busy_frac",
               (filter_s + lut_s + scan_s) / secondsBetween(b0, b1));
    writeSpans(spanPath(args), {&client_log});
}

} // namespace perfbench
