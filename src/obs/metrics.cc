#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "common/logging.h"

namespace juno {

namespace {

/** Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. */
bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (const char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

/** Escapes HELP text / label values per the text exposition format. */
std::string
promEscape(const std::string &s, bool label_value)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else if (label_value && c == '"')
            out += "\\\"";
        else
            out += c;
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"')
            out += "\\\"";
        else if (c == '\\')
            out += "\\\\";
        else if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out;
}

/** Prometheus sample value (NaN/Inf render in their text form). */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/** JSON number (non-finite values are not valid JSON; emit 0). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::string
summaryJson(const HistogramSummary &s)
{
    std::string out = "{\"count\":" + std::to_string(s.count);
    out += ",\"mean\":" + jsonNumber(s.mean);
    out += ",\"p50\":" + jsonNumber(s.p50);
    out += ",\"p95\":" + jsonNumber(s.p95);
    out += ",\"p99\":" + jsonNumber(s.p99);
    out += ",\"max\":" + jsonNumber(s.max);
    out += "}";
    return out;
}

} // namespace

std::size_t
HistogramMetric::bucketOf(double v)
{
    if (!(v > 0.0)) // also catches NaN
        return 0;
    // The unbiased exponent picks the octave (subnormals read -1023,
    // infinity 1024), the top mantissa bits the linear sub-bucket.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    const int exp = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
    if (exp < kMinExp)
        return 0;
    if (exp >= kMaxExp)
        return kBuckets - 1;
    const std::size_t sub = static_cast<std::size_t>(
        (bits >> (52 - kSubBucketBits)) & (kSubBuckets - 1));
    return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

void
HistogramMetric::observe(double v)
{
    buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
    cur = min_.load(std::memory_order_relaxed);
    while (v < cur && !min_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
    // Release: a summary that reads this count also sees the bucket,
    // sum, min and max writes above.
    count_.fetch_add(1, std::memory_order_release);
}

HistogramSummary
HistogramMetric::summary() const
{
    HistogramSummary out;
    const std::uint64_t n = count_.load(std::memory_order_acquire);
    if (n == 0)
        return out;
    const double lo = min_.load(std::memory_order_relaxed);
    const double hi = max_.load(std::memory_order_relaxed);
    out.count = static_cast<std::size_t>(n);
    out.mean = sum_.load(std::memory_order_relaxed) / static_cast<double>(n);
    out.max = hi;

    auto representative = [&](std::size_t b) {
        if (b == 0)
            return lo;
        if (b == kBuckets - 1)
            return hi;
        const std::size_t i = b - 1;
        const double mid =
            std::ldexp(1.0 + (static_cast<double>(i % kSubBuckets) + 0.5) /
                                 static_cast<double>(kSubBuckets),
                       static_cast<int>(i / kSubBuckets) + kMinExp);
        return std::min(std::max(mid, lo), hi);
    };
    // Nearest rank ceil(q*n), walked in one pass over the buckets.
    // Counts only grow, so the walk reaches every rank of the n
    // observations it was sized for.
    const struct {
        double q;
        double *value;
    } targets[] = {{0.50, &out.p50}, {0.95, &out.p95}, {0.99, &out.p99}};
    std::size_t next = 0;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets && next < std::size(targets);
         ++b) {
        seen += buckets_[b].load(std::memory_order_relaxed);
        while (next < std::size(targets) &&
               static_cast<double>(seen) >=
                   std::ceil(targets[next].q * static_cast<double>(n))) {
            *targets[next].value = representative(b);
            ++next;
        }
    }
    return out;
}

MetricsRegistry::Registration &
MetricsRegistry::Registration::operator=(Registration &&other) noexcept
{
    if (this != &other) {
        release();
        owner_ = other.owner_;
        name_ = std::move(other.name_);
        id_ = other.id_;
        other.owner_ = nullptr;
        other.id_ = 0;
    }
    return *this;
}

void
MetricsRegistry::Registration::release()
{
    if (owner_ != nullptr) {
        owner_->unregister(name_, id_);
        owner_ = nullptr;
        id_ = 0;
    }
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked on purpose: callbacks unregister through RAII handles at
    // shutdown, and a destructed registry racing static teardown is a
    // worse failure mode than a leak the OS reclaims anyway.
    static MetricsRegistry *instance = new MetricsRegistry();
    return *instance;
}

MetricsRegistry::Registration
MetricsRegistry::registerCallback(const std::string &name, Entry entry)
{
    // Labeled entries are keyed by their full sample string
    // `base{k="v"}`; only the base must be a valid metric name.
    const auto brace = name.find('{');
    const std::string base =
        brace == std::string::npos ? name : name.substr(0, brace);
    JUNO_REQUIRE(validMetricName(base),
                 "invalid metric name '" << name << "'");
    MutexLock lock(mutex_);
    entry.id = next_id_++;
    const std::uint64_t id = entry.id;
    entries_[name] = std::move(entry); // replace-on-collision
    return Registration(this, name, id);
}

MetricsRegistry::Registration
MetricsRegistry::counterCallback(const std::string &name,
                                 const std::string &help,
                                 std::function<std::uint64_t()> fn)
{
    Entry entry;
    entry.kind = Kind::kCounterFn;
    entry.help = help;
    entry.counter_fn = std::move(fn);
    return registerCallback(name, std::move(entry));
}

MetricsRegistry::Registration
MetricsRegistry::counterCallback(
    const std::string &name,
    std::vector<std::pair<std::string, std::string>> labels,
    const std::string &help, std::function<std::uint64_t()> fn)
{
    std::string key = name + "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            key += ",";
        first = false;
        key += k + "=\"" + promEscape(v, true) + "\"";
    }
    key += "}";
    Entry entry;
    entry.kind = Kind::kCounterFn;
    entry.help = help;
    entry.counter_fn = std::move(fn);
    entry.labels = std::move(labels);
    return registerCallback(key, std::move(entry));
}

MetricsRegistry::Registration
MetricsRegistry::gaugeCallback(const std::string &name,
                               const std::string &help,
                               std::function<double()> fn)
{
    Entry entry;
    entry.kind = Kind::kGaugeFn;
    entry.help = help;
    entry.gauge_fn = std::move(fn);
    return registerCallback(name, std::move(entry));
}

MetricsRegistry::Registration
MetricsRegistry::summaryCallback(const std::string &name,
                                 const std::string &help,
                                 std::function<HistogramSummary()> fn)
{
    Entry entry;
    entry.kind = Kind::kSummaryFn;
    entry.help = help;
    entry.summary_fn = std::move(fn);
    return registerCallback(name, std::move(entry));
}

MetricsRegistry::Registration
MetricsRegistry::info(const std::string &name, const std::string &help,
                      std::vector<std::pair<std::string, std::string>> labels)
{
    Entry entry;
    entry.kind = Kind::kInfo;
    entry.help = help;
    entry.labels = std::move(labels);
    return registerCallback(name, std::move(entry));
}

void
MetricsRegistry::unregister(const std::string &name, std::uint64_t id)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    // Only remove the entry this handle created: a replace-on-collision
    // bumps the id, so a stale handle's destruction must not tear down
    // its successor.
    if (it != entries_.end() && it->second.id == id)
        entries_.erase(it);
}

std::vector<std::pair<std::string, MetricsRegistry::Entry>>
MetricsRegistry::snapshotEntries() const
{
    MutexLock lock(mutex_);
    return {entries_.begin(), entries_.end()};
}

std::size_t
MetricsRegistry::size() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

void
MetricsRegistry::clear()
{
    MutexLock lock(mutex_);
    entries_.clear();
}

std::string
MetricsRegistry::renderPrometheus() const
{
    // Callbacks run on the copied entries, outside the registry lock.
    const auto entries = snapshotEntries();
    std::string out;
    // Labeled samples of one family (`base{...}` keys) sort adjacently
    // in the name-ordered snapshot ('{' follows every identifier
    // character), so one HELP/TYPE block per base suffices — emitting
    // it per sample would be an invalid exposition.
    std::string last_base;
    for (const auto &[name, entry] : entries) {
        const auto brace = name.find('{');
        const std::string base =
            brace == std::string::npos ? name : name.substr(0, brace);
        if (base != last_base) {
            last_base = base;
            if (!entry.help.empty())
                out += "# HELP " + base + " " +
                       promEscape(entry.help, false) + "\n";
            const char *type = "gauge";
            switch (entry.kind) {
            case Kind::kCounterFn:
                type = "counter";
                break;
            case Kind::kGaugeFn:
            case Kind::kInfo:
                type = "gauge";
                break;
            case Kind::kSummaryFn:
                type = "summary";
                break;
            }
            out += "# TYPE " + base + " " + type + "\n";
        }
        switch (entry.kind) {
        case Kind::kCounterFn:
            out += name + " " + std::to_string(entry.counter_fn()) + "\n";
            break;
        case Kind::kGaugeFn:
            out += name + " " + promNumber(entry.gauge_fn()) + "\n";
            break;
        case Kind::kSummaryFn: {
            const HistogramSummary s = entry.summary_fn();
            out += name + "{quantile=\"0.5\"} " + promNumber(s.p50) + "\n";
            out += name + "{quantile=\"0.95\"} " + promNumber(s.p95) + "\n";
            out += name + "{quantile=\"0.99\"} " + promNumber(s.p99) + "\n";
            out += name + "_sum " +
                   promNumber(s.mean * static_cast<double>(s.count)) + "\n";
            out += name + "_count " + std::to_string(s.count) + "\n";
            break;
        }
        case Kind::kInfo: {
            out += name + "{";
            bool first = true;
            for (const auto &[k, v] : entry.labels) {
                if (!first)
                    out += ",";
                first = false;
                out += k + "=\"" + promEscape(v, true) + "\"";
            }
            out += "} 1\n";
            break;
        }
        }
    }
    return out;
}

std::string
MetricsRegistry::renderJson() const
{
    const auto entries = snapshotEntries();
    std::string out = "{";
    bool first = true;
    for (const auto &[name, entry] : entries) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":";
        switch (entry.kind) {
        case Kind::kCounterFn:
            out += std::to_string(entry.counter_fn());
            break;
        case Kind::kGaugeFn:
            out += jsonNumber(entry.gauge_fn());
            break;
        case Kind::kSummaryFn:
            out += summaryJson(entry.summary_fn());
            break;
        case Kind::kInfo: {
            out += "{";
            bool first_label = true;
            for (const auto &[k, v] : entry.labels) {
                if (!first_label)
                    out += ",";
                first_label = false;
                out += "\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) +
                       "\"";
            }
            out += "}";
            break;
        }
        }
    }
    out += "}";
    return out;
}

} // namespace juno
