/**
 * @file
 * Streaming statistics helpers used by the benches to reproduce the
 * paper's mean / quartile / CDF plots (Figs. 4-7).
 */
#ifndef JUNO_COMMON_STATS_H
#define JUNO_COMMON_STATS_H

#include <string>
#include <vector>

namespace juno {

/** Welford mean/variance plus min/max over a stream of doubles. */
class RunningStat {
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Holds all samples to answer arbitrary quantile queries. Quartile
 * accessors match the paper's plots: Q1/Q3 are the 25th/75th
 * percentiles, Q0/Q4 are the Tukey whiskers Q1-1.5*IQR / Q3+1.5*IQR.
 * Memory grows with the stream, so it serves the offline benches and
 * tests; long-running recorders use HistogramMetric (obs/metrics.h).
 */
class QuantileSketch {
  public:
    void add(double x);
    void add(const std::vector<double> &xs);

    std::size_t count() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /**
     * Linear-interpolated quantile, q in [0, 1]. Lazily sorts the
     * retained samples on first call after an add(); the mutation is
     * confined to the mutable sample buffer, so the method stays
     * logically const — but it is NOT safe to call concurrently with
     * itself or with add() on the same sketch.
     */
    double quantile(double q) const;

    double median() const { return quantile(0.5); }
    double q1() const { return quantile(0.25); }
    double q3() const { return quantile(0.75); }
    double iqr() const { return q3() - q1(); }
    /** Tukey lower whisker Q1 - 1.5*IQR (paper Fig. 7 notation Q0). */
    double q0() const { return q1() - 1.5 * iqr(); }
    /** Tukey upper whisker Q3 + 1.5*IQR (paper Fig. 7 notation Q4). */
    double q4() const { return q3() + 1.5 * iqr(); }
    double mean() const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> data_;
    mutable bool sorted_ = true;
};

/** Histogram with fixed-width bins over [lo, hi); used for CDF plots. */
class Histogram {
  public:
    Histogram(double lo, double hi, int bins);

    void add(double x);

    int bins() const { return static_cast<int>(counts_.size()); }
    std::size_t total() const { return total_; }
    std::size_t countAt(int bin) const { return counts_.at(bin); }

    /** Fraction of samples in bins [0, bin] (the empirical CDF). */
    double cdfAt(int bin) const;

    /** Center x-value of @p bin. */
    double binCenter(int bin) const;

  private:
    double lo_, hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace juno

#endif // JUNO_COMMON_STATS_H
