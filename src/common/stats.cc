#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace juno {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
QuantileSketch::add(double x)
{
    data_.push_back(x);
    sorted_ = false;
}

void
QuantileSketch::add(const std::vector<double> &xs)
{
    data_.insert(data_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void
QuantileSketch::ensureSorted() const
{
    if (!sorted_) {
        std::sort(data_.begin(), data_.end());
        sorted_ = true;
    }
}

double
QuantileSketch::quantile(double q) const
{
    JUNO_REQUIRE(!data_.empty(), "quantile of empty sketch");
    JUNO_REQUIRE(q >= 0.0 && q <= 1.0, "quantile arg " << q);
    ensureSorted();
    if (data_.size() == 1)
        return data_[0];
    const double pos = q * static_cast<double>(data_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, data_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return data_[lo] * (1.0 - frac) + data_[hi] * frac;
}

double
QuantileSketch::mean() const
{
    if (data_.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : data_)
        sum += x;
    return sum / static_cast<double>(data_.size());
}

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), counts_(static_cast<std::size_t>(bins), 0)
{
    JUNO_REQUIRE(bins > 0, "histogram needs bins > 0");
    JUNO_REQUIRE(hi > lo, "histogram needs hi > lo");
}

void
Histogram::add(double x)
{
    const int nbins = bins();
    int bin = static_cast<int>((x - lo_) / (hi_ - lo_) *
                               static_cast<double>(nbins));
    bin = std::clamp(bin, 0, nbins - 1);
    ++counts_[static_cast<std::size_t>(bin)];
    ++total_;
}

double
Histogram::cdfAt(int bin) const
{
    if (total_ == 0)
        return 0.0;
    std::size_t acc = 0;
    for (int b = 0; b <= bin && b < bins(); ++b)
        acc += counts_[static_cast<std::size_t>(b)];
    return static_cast<double>(acc) / static_cast<double>(total_);
}

double
Histogram::binCenter(int bin) const
{
    const double width = (hi_ - lo_) / static_cast<double>(bins());
    return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

} // namespace juno
