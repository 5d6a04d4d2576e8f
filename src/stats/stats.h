// Streaming statistics used by probers, metrics, and benches.
#ifndef SRC_STATS_STATS_H_
#define SRC_STATS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace vsched {

// The lower median: the element at index (n - 1) / 2 of `values` sorted
// ascending, so always one of the inputs. `values` must not be empty.
double LowerMedian(std::vector<double> values);

// Exponential moving average, as used by vcap for capacity smoothing
// (paper §3.1): new = alpha * sample + (1 - alpha) * old. `alpha` is derived
// from a decay specification like "50% per 2 periods".
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}

  // Alpha such that the weight of history halves every `periods` updates.
  static Ema WithHalfLife(double periods);

  void Add(double sample);
  bool has_value() const { return initialized_; }
  double value() const { return value_; }
  double alpha() const { return alpha_; }
  void Reset();

 private:
  double alpha_;
  double value_ = 0;
  bool initialized_ = false;
};

// Sample reservoir with exact quantiles. Simulation scale (at most a few
// million samples per run) makes exact storage affordable.
class Distribution {
 public:
  void Add(double sample);
  size_t count() const { return samples_.size(); }
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  double Stddev() const;
  // q in [0,1]; linear interpolation between order statistics.
  double Quantile(double q) const;
  // Samples strictly greater than `threshold` (SLO-violation counting).
  size_t CountAbove(double threshold) const;
  // Appends every sample of `other` (fleet-level aggregation across VMs).
  void MergeFrom(const Distribution& other);
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
  void Clear();

 private:
  void Sort() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Fixed-width bucket histogram over [lo, hi); out-of-range samples clamp to
// the edge buckets. Used for e.g. the active-core-count histogram (Fig 12a).
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double sample, double weight = 1.0);
  size_t bucket_count() const { return counts_.size(); }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;
  double bucket_weight(size_t i) const { return counts_[i]; }
  double total_weight() const { return total_; }
  // Fraction of total weight in bucket i (0 when empty).
  double Fraction(size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0;
};

// Named monotonic counter.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Time series of (t, value) points, e.g. live Nginx throughput (Fig 16/17).
class TimeSeries {
 public:
  void Add(TimeNs t, double value);
  size_t size() const { return points_.size(); }
  // Mean of values with time in [from, to).
  double MeanInWindow(TimeNs from, TimeNs to) const;

 private:
  std::vector<std::pair<TimeNs, double>> points_;
};

// Integrates a piecewise-constant signal over time; Mean() gives the
// time-weighted average. Used for e.g. ground-truth vCPU capacity.
class TimeWeightedValue {
 public:
  explicit TimeWeightedValue(TimeNs start = 0) : last_change_(start) {}

  void Set(TimeNs now, double value);
  // Total integral up to `now` divided by elapsed time.
  double MeanUntil(TimeNs now) const;
  double current() const { return current_; }

 private:
  TimeNs start_ = 0;
  TimeNs last_change_ = 0;
  double current_ = 0;
  double integral_ = 0;
  bool started_ = false;
};

}  // namespace vsched

#endif  // SRC_STATS_STATS_H_
