#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/service_stats.h"

namespace perfbench {

void
RunResult::param(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    params.emplace_back(key, buf);
}

void
RunResult::param(const std::string &key, const std::string &text)
{
    params.emplace_back(key, "\"" + text + "\"");
}

void
RunResult::violation(const std::string &what, std::uint64_t ops)
{
    failed += ops;
    violations.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

SpanLog::SpanLog(std::string thread, std::size_t capacity,
                 Clock::time_point epoch)
    : thread_(std::move(thread)), epoch_(epoch), spans_(capacity)
{
}

void
SpanLog::record(const char *name, Clock::time_point begin,
                Clock::time_point end, std::uint64_t req, const char *parent)
{
    if (count_ == spans_.size()) {
        ++dropped_;
        return;
    }
    Span &s = spans_[count_++];
    s.name = name;
    s.parent = parent;
    s.req = req;
    s.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     begin - epoch_)
                     .count();
    s.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
}

std::vector<double>
SpanLog::durationsUs(const char *name) const
{
    std::vector<double> out;
    for (const Span *s = begin(); s != end(); ++s)
        if (std::strcmp(s->name, name) == 0)
            out.push_back(static_cast<double>(s->end_ns - s->begin_ns) *
                          1e-3);
    return out;
}

void
writeSpans(const std::string &path, const std::vector<const SpanLog *> &logs)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    out << "{\"traceEvents\": [\n";
    bool first = true;
    for (std::size_t t = 0; t < logs.size(); ++t) {
        out << (first ? "" : ",\n")
            << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": "
            << t << ", \"args\": {\"name\": \"" << logs[t]->thread()
            << "\"}}";
        first = false;
        for (const Span *s = logs[t]->begin(); s != logs[t]->end(); ++s) {
            char buf[320];
            std::snprintf(buf, sizeof buf,
                          ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"req\": %llu, \"parent\": \"%s\"}}",
                          s->name, t, static_cast<double>(s->begin_ns) * 1e-3,
                          static_cast<double>(s->end_ns - s->begin_ns) * 1e-3,
                          static_cast<unsigned long long>(s->req),
                          s->parent != nullptr ? s->parent : "");
            out << buf;
        }
    }
    out << "\n]}\n";
    std::size_t dropped = 0;
    for (const SpanLog *log : logs)
        dropped += log->dropped();
    std::fprintf(stderr, "spans written to %s (%zu dropped: buffer full)\n",
                 path.c_str(), dropped);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
rssMiB()
{
    return static_cast<double>(juno::readResourceUsage().rss_bytes) /
           (1024.0 * 1024.0);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t purpose)
{
    // splitmix64 over (seed, purpose).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

juno::Dataset
deepLike(idx_t points, idx_t queries, std::uint64_t seed)
{
    juno::SyntheticSpec spec;
    spec.kind = juno::DatasetKind::kDeepLike;
    spec.num_points = points;
    spec.num_queries = queries;
    spec.components = 512;
    spec.noise_scale = 4.0f;
    spec.seed = 20240404; // bench::deepSpec()'s
    juno::Dataset ds = juno::makeDataset(spec);

    std::vector<idx_t> order(static_cast<std::size_t>(queries));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<idx_t>(i);
    std::mt19937_64 rng(subSeed(seed, 0));
    std::shuffle(order.begin(), order.end(), rng);
    const idx_t dim = ds.queries.cols();
    juno::FloatMatrix shuffled(queries, dim);
    for (idx_t q = 0; q < queries; ++q) {
        const float *row = ds.queries.row(order[static_cast<std::size_t>(q)]);
        std::copy(row, row + dim, shuffled.row(q));
    }
    ds.queries = std::move(shuffled);
    return ds;
}

bool
sameNeighbors(const std::vector<juno::Neighbor> &a,
              const std::vector<juno::Neighbor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id ||
            std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0)
            return false;
    }
    return true;
}

std::vector<Event>
poissonSchedule(const std::vector<std::pair<int, double>> &rates,
                double seconds, std::uint64_t seed)
{
    std::vector<Event> events;
    for (std::size_t s = 0; s < rates.size(); ++s) {
        if (rates[s].second <= 0.0)
            continue;
        std::mt19937_64 rng(subSeed(seed, s));
        std::exponential_distribution<double> gap(rates[s].second);
        for (double t = gap(rng); t < seconds; t += gap(rng))
            events.push_back(Event{t, rates[s].first});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.at_s < b.at_s;
                     });
    return events;
}

void
PendingLine::push(Pending &&p)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.push_back(std::move(p));
    }
    cv_.notify_one();
}

void
PendingLine::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_one();
}

Pending *
PendingLine::front(Clock::time_point until, bool &drained)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, until,
                   [&] { return !pending_.empty() || closed_; });
    drained = closed_ && pending_.empty();
    // push_back keeps references to existing elements valid, and only
    // the consumer pops.
    return pending_.empty() ? nullptr : &pending_.front();
}

void
PendingLine::pop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.pop_front();
}

bool
fellBehind(const std::vector<double> &late_us)
{
    return quantile(late_us, 0.5) > 1000.0;
}

bool
settle(std::future<juno::ResultList> &f, ClientCounts &counts,
       juno::ResultList &out)
{
    try {
        out = f.get();
        ++counts.ok;
        return true;
    } catch (const juno::RejectedError &) {
        ++counts.shed;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "request failed: %s\n", e.what());
        ++counts.errors;
    }
    return false;
}

void
checkConservation(RunResult &result, const char *phase,
                  const juno::ServiceStats::Snapshot &snap,
                  const ClientCounts &client)
{
    const std::uint64_t door = snap.rejected_full + snap.rejected_stopped +
                               snap.rejected_expired;
    auto expect = [&](const char *what, std::uint64_t service,
                      std::uint64_t seen) {
        if (service != seen)
            result.violation(std::string(phase) + ": service " + what +
                             " " + std::to_string(service) +
                             " != client " + std::to_string(seen));
    };
    expect("submitted", snap.submitted, client.attempted - client.rejected);
    expect("completed", snap.completed, client.ok);
    expect("failed", snap.failed, client.errors);
    expect("expired", snap.expired, client.shed);
    expect("rejected", door, client.rejected);
    if (snap.submitted != snap.completed + snap.failed + snap.expired)
        result.violation(std::string(phase) +
                         ": submitted != completed + failed + shed");
}

Windows::Windows(Clock::time_point start, double phase_s, double window_s,
                 std::size_t capacity)
    : start_(start), window_s_(window_s),
      windows_(std::max<std::size_t>(
          1, static_cast<std::size_t>(phase_s / window_s))),
      latency_(capacity, 0.0), window_of_(capacity, 0)
{
}

void
Windows::add(Clock::time_point at, double latency)
{
    const double t = std::chrono::duration<double>(at - start_).count();
    if (t < 0.0)
        return;
    const auto w = static_cast<std::size_t>(t / window_s_);
    if (w >= windows_)
        return;
    if (n_ == latency_.size())
        return;
    latency_[n_] = latency;
    window_of_[n_] = static_cast<std::uint32_t>(w);
    ++n_;
}

double
Windows::medianQuantile(double q) const
{
    std::vector<std::vector<double>> per(windows_);
    for (std::size_t i = 0; i < n_; ++i)
        per[window_of_[i]].push_back(latency_[i]);
    std::vector<double> qs;
    for (const auto &w : per)
        if (!w.empty())
            qs.push_back(quantile(w, q));
    return quantile(qs, 0.5);
}

void
openLoop(juno::SearchService &service, juno::FloatMatrixView queries,
         idx_t k, const std::vector<Event> &reads, Clock::time_point t0,
         ClientCounts &counts, std::vector<double> &late_us,
         PendingLine &line, const Settled &settled, SpanLog *log)
{
    juno::ResultList list;
    std::size_t next = 0;
    for (;;) {
        const bool reads_left = next < reads.size();
        const auto now = Clock::now();
        const auto due =
            reads_left ? t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      reads[next].at_s))
                       : now + std::chrono::hours(1);
        if (now >= due) {
            late_us.push_back(micros(now - due));
            const idx_t row = static_cast<idx_t>(next) % queries.rows();
            juno::RejectReason reason = juno::RejectReason::kNone;
            auto f = service.submit(queries.row(row), k, &reason);
            span(log, "serve.submit", now, Clock::now(), next,
                 "loadgen.request");
            ++counts.attempted;
            if (reason != juno::RejectReason::kNone)
                ++counts.rejected;
            else
                line.push(Pending{std::move(f), due, now,
                                  static_cast<std::int64_t>(row)});
            ++next;
            continue;
        }
        bool drained = false;
        Pending *head = line.front(due, drained);
        if (head == nullptr) {
            if (drained && !reads_left)
                return;
            if (drained)
                std::this_thread::sleep_until(due);
            continue;
        }
        if (head->result.wait_until(due) != std::future_status::ready)
            continue;
        const auto done = Clock::now();
        const bool ok = settle(head->result, counts, list);
        settled(*head, ok, list, done);
        line.pop();
    }
}

} // namespace perfbench
