#include "serve/service_stats.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace juno {

ResourceUsage
readResourceUsage()
{
    ResourceUsage u;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru {};
    if (::getrusage(RUSAGE_SELF, &ru) == 0) {
        u.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
        u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
        // ru_maxrss is the high-water mark (KiB on Linux, bytes on
        // macOS) — a fallback if /proc is unavailable below.
#if defined(__APPLE__)
        u.rss_bytes = static_cast<std::size_t>(ru.ru_maxrss);
#else
        u.rss_bytes = static_cast<std::size_t>(ru.ru_maxrss) * 1024;
#endif
    }
#endif
#if defined(__linux__)
    // Current (not peak) RSS: field 2 of /proc/self/statm, in pages.
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        unsigned long long vm_pages = 0, rss_pages = 0;
        if (std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages) == 2)
            u.rss_bytes = static_cast<std::size_t>(rss_pages) *
                          static_cast<std::size_t>(
                              ::sysconf(_SC_PAGESIZE));
        std::fclose(f);
    }
#endif
    return u;
}

void
ServiceStats::recordCompletion(double queue_us, double batch_us,
                               double search_us, double total_us)
{
    queue_us_.observe(queue_us);
    batch_us_.observe(batch_us);
    search_us_.observe(search_us);
    total_us_.observe(total_us);
    completed_.fetch_add(1);
}

void
ServiceStats::recordBatch(std::size_t size)
{
    batches_.fetch_add(1);
    batched_requests_.fetch_add(size);
}

LatencySummary
ServiceStats::componentSummary(Component component) const
{
    switch (component) {
    case Component::kQueue:
        return queue_us_.summary();
    case Component::kBatch:
        return batch_us_.summary();
    case Component::kSearch:
        return search_us_.summary();
    case Component::kTotal:
        return total_us_.summary();
    }
    return {};
}

ServiceStats::Snapshot
ServiceStats::snapshot() const
{
    Snapshot snap;
    snap.submitted = submitted_.load();
    snap.completed = completed_.load();
    snap.failed = failed_.load();
    snap.rejected_full = rejected_full_.load();
    snap.rejected_stopped = rejected_stopped_.load();
    snap.rejected_expired = rejected_expired_.load();
    snap.expired = expired_.load();
    snap.degraded = degraded_.load();
    snap.degraded_batches = degraded_batches_.load();
    snap.batches = batches_.load();
    const std::uint64_t batched = batched_requests_.load();
    snap.mean_batch = snap.batches == 0
                          ? 0.0
                          : static_cast<double>(batched) /
                                static_cast<double>(snap.batches);
    snap.queue_us = queue_us_.summary();
    snap.batch_us = batch_us_.summary();
    snap.search_us = search_us_.summary();
    snap.total_us = total_us_.summary();
    snap.live_inserts = live_inserts_.load();
    snap.live_removes = live_removes_.load();
    snap.live_upserts = live_upserts_.load();
    snap.live_rejected = live_rejected_.load();
    return snap;
}

} // namespace juno
