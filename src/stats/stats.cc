#include "src/stats/stats.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace vsched {

double LowerMedian(std::vector<double> values) {
  VSCHED_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

Ema Ema::WithHalfLife(double periods) {
  VSCHED_CHECK(periods > 0);
  // History weight (1 - alpha)^periods == 0.5.
  double alpha = 1.0 - std::pow(0.5, 1.0 / periods);
  return Ema(alpha);
}

void Ema::Add(double sample) {
  if (!initialized_) {
    value_ = sample;
    initialized_ = true;
    return;
  }
  value_ = alpha_ * sample + (1.0 - alpha_) * value_;
}

void Ema::Reset() {
  value_ = 0;
  initialized_ = false;
}

void Distribution::Add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Distribution::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Distribution::Sum() const {
  double total = 0;
  for (double s : samples_) {
    total += s;
  }
  return total;
}

double Distribution::Mean() const {
  if (samples_.empty()) {
    return 0;
  }
  return Sum() / static_cast<double>(samples_.size());
}

double Distribution::Min() const {
  Sort();
  return samples_.empty() ? 0 : samples_.front();
}

double Distribution::Max() const {
  Sort();
  return samples_.empty() ? 0 : samples_.back();
}

double Distribution::Stddev() const {
  if (samples_.size() < 2) {
    return 0;
  }
  double mean = Mean();
  double acc = 0;
  for (double s : samples_) {
    acc += (s - mean) * (s - mean);
  }
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Distribution::Quantile(double q) const {
  if (samples_.empty()) {
    return 0;
  }
  VSCHED_CHECK(q >= 0 && q <= 1);
  Sort();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  double pos = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void Distribution::MergeFrom(const Distribution& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = samples_.empty();
}

size_t Distribution::CountAbove(double threshold) const {
  Sort();
  return static_cast<size_t>(samples_.end() -
                             std::upper_bound(samples_.begin(), samples_.end(), threshold));
}

void Distribution::Clear() {
  samples_.clear();
  sorted_ = true;
}

Histogram::Histogram(double lo, double hi, size_t buckets) : lo_(lo), hi_(hi), counts_(buckets, 0) {
  VSCHED_CHECK(hi > lo);
  VSCHED_CHECK(buckets > 0);
}

void Histogram::Add(double sample, double weight) {
  double span = hi_ - lo_;
  double rel = (sample - lo_) / span * static_cast<double>(counts_.size());
  int64_t idx = static_cast<int64_t>(rel);
  idx = std::clamp<int64_t>(idx, 0, static_cast<int64_t>(counts_.size()) - 1);
  counts_[static_cast<size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bucket_lo(size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bucket_hi(size_t i) const { return bucket_lo(i + 1); }

double Histogram::Fraction(size_t i) const {
  if (total_ <= 0) {
    return 0;
  }
  return counts_[i] / total_;
}

void TimeSeries::Add(TimeNs t, double value) { points_.emplace_back(t, value); }

double TimeSeries::MeanInWindow(TimeNs from, TimeNs to) const {
  double sum = 0;
  size_t n = 0;
  for (const auto& [t, v] : points_) {
    if (t >= from && t < to) {
      sum += v;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

void TimeWeightedValue::Set(TimeNs now, double value) {
  if (started_) {
    VSCHED_CHECK(now >= last_change_);
    integral_ += current_ * static_cast<double>(now - last_change_);
  } else {
    start_ = now;
    started_ = true;
  }
  last_change_ = now;
  current_ = value;
}

double TimeWeightedValue::MeanUntil(TimeNs now) const {
  if (!started_ || now <= start_) {
    return current_;
  }
  double total = integral_ + current_ * static_cast<double>(now - last_change_);
  return total / static_cast<double>(now - start_);
}

}  // namespace vsched
