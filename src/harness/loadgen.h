/**
 * @file
 * The one load generator of the serving layer (bench_serve, bench_live
 * and `juno_cli serve` all load their service through it): concurrent
 * clients plus an optional paced insert/delete writer against a
 * caller-owned, started SearchService, and the conservation predicate
 * every serving gate checks.
 *
 *   service.start(); r = runLoad(service, queries, spec);
 *   service.stop();  conserved(service.snapshot(), r)
 *
 * Every request a client or the writer issues is tallied by outcome on
 * the submitting side, so once stop() has drained the tallies can be
 * reconciled one for one with the service's own counters.
 */
#ifndef JUNO_HARNESS_LOADGEN_H
#define JUNO_HARNESS_LOADGEN_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "serve/search_service.h"

namespace juno {

/** How the clients pace their requests. */
enum class Arrival {
    /** Each client keeps `window` requests in flight; kQueueFull is
     * backpressure: yield and resubmit the same request. */
    kClosed,
    /** Poisson arrivals at `offered_qps` over all clients, independent
     * of completions; refusals are counted, not retried. */
    kOpen,
};

/** Write traffic riding along with the clients (needs a LiveIndex). */
struct WriteLoad {
    double insert_rate = 0.0; ///< per second; 0 = none
    /** Per second; each removes the oldest id the writer inserted, so
     * the served ground set never shrinks. */
    double delete_rate = 0.0;
    /** The rows the index was built over (ids 0..rows-1), recycled as
     * insert vectors under ids from rows + 1,000,000 up. Every 16th
     * insert is instead a probe (probeVector() of a query row) polled
     * through the service until it is visible. */
    FloatMatrixView source;
};

struct LoadSpec {
    Arrival arrival = Arrival::kClosed;
    int clients = 1;
    int window = 8;           ///< closed loop: requests in flight
    double offered_qps = 0.0; ///< open loop: total arrival rate
    idx_t k = 10;
    /**
     * Stop conditions, at least one set; the first reached ends the
     * run. `requests` is the total: each client serves
     * requests / clients, the first requests % clients one more.
     */
    std::uint64_t requests = 0;
    double duration_s = 0.0;
    const std::atomic<bool> *stop = nullptr;
    WriteLoad writes;
};

/** Outcomes of the requests one side issued, as that side saw them. */
struct RequestTally {
    /** Requests issued, each ending in exactly one outcome below (a
     * closed-loop resubmission is not a new request). */
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0; ///< delivered a result...
    std::uint64_t degraded = 0;  ///< ...flagged ResultList::degraded
    /** Refused at submit(), by reason. */
    std::uint64_t shed_full = 0;
    std::uint64_t shed_expired = 0;
    std::uint64_t shed_stopped = 0;
    std::uint64_t expired = 0; ///< accepted, then shed at dequeue
    std::uint64_t errors = 0;  ///< any other exception
    /** kQueueFull refusals resubmitted by the closed loop. */
    std::uint64_t retried_full = 0;
    /** Completions observed past the service's default deadline (plus
     * a reap grace) without the degraded flag; the resilience contract
     * keeps this 0. */
    std::uint64_t late_unmarked = 0;

    std::uint64_t
    shed() const
    {
        return shed_full + shed_expired + shed_stopped;
    }
    RequestTally &operator+=(const RequestTally &o);
};

struct WriteResult {
    std::uint64_t inserts = 0;  ///< applied
    std::uint64_t removes = 0;  ///< applied
    std::uint64_t rejected = 0; ///< refused (kBufferFull: merge behind)
    std::uint64_t probes = 0;
    std::uint64_t probes_missed = 0; ///< never seen in 200 queries
    /** Insert -> first query returning it, over the visible probes
     * (count 0 when none became visible). */
    HistogramSummary lag_us;
    RequestTally polls;    ///< the probes' queries
};

struct LoadResult {
    RequestTally reads; ///< the clients' requests
    /** First client start to last client drained. */
    double seconds = 0.0;
    /** reads.completed / seconds: the clients' own completions. */
    double qps = 0.0;
    WriteResult writes;
};

/**
 * Runs @p spec against @p service with queries drawn round-robin from
 * @p queries (each client from its own offset); blocks until every
 * client has drained, the writer stopping with them. Throws
 * ConfigError on an invalid spec.
 */
LoadResult runLoad(SearchService &service, FloatMatrixView queries,
                   const LoadSpec &spec);

/**
 * Conservation of one run whose load was the service's only traffic,
 * over its snapshot after stop(): every accepted request settled once
 * (submitted == completed + failed + expired), nothing failed, every
 * issued request has one outcome, and the tallies equal the service's
 * counters (completions, degraded, expired, refusals by reason). On a
 * violation, stores the first failed balance in @p why.
 */
bool conserved(const ServiceStats::Snapshot &snap, const LoadResult &load,
               std::string *why = nullptr);

/**
 * A visibility probe: a copy of @p query, its own nearest neighbour
 * under L2. Under inner product rank follows norm, so the copy is
 * scaled by 16 to dominate. The r-th reuse of a row (@p round) scales
 * by a further 1 + r so a probe never ties with its older copies.
 */
std::vector<float> probeVector(const float *query, idx_t dim,
                               Metric metric, int round = 0);

} // namespace juno

#endif // JUNO_HARNESS_LOADGEN_H
