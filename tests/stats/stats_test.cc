#include "src/stats/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(LowerMedianTest, OddSizeTakesTheMiddle) {
  EXPECT_EQ(LowerMedian({7.0}), 7.0);
  EXPECT_EQ(LowerMedian({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(LowerMedian({9.0, -4.0, 5.5, 0.25, 100.0}), 5.5);
}

TEST(LowerMedianTest, EvenSizeTakesTheLowerOfTheMiddlePair) {
  EXPECT_EQ(LowerMedian({2.0, 1.0}), 1.0);
  EXPECT_EQ(LowerMedian({40.0, 10.0, 30.0, 20.0}), 20.0);
}

TEST(LowerMedianTest, TiesAndUnsortedInputReturnAnInput) {
  EXPECT_EQ(LowerMedian({5.0, 5.0, 1.0, 5.0}), 5.0);
  EXPECT_EQ(LowerMedian({1.0, 9.0, 1.0, 9.0}), 1.0);
  // Never an average of two inputs: 0.1 and 0.3 average to 0.2, no input.
  EXPECT_EQ(LowerMedian({0.3, 0.1}), 0.1);
}

TEST(EmaTest, FirstSampleInitializes) {
  Ema ema(0.3);
  EXPECT_FALSE(ema.has_value());
  ema.Add(10.0);
  EXPECT_TRUE(ema.has_value());
  EXPECT_DOUBLE_EQ(ema.value(), 10.0);
}

TEST(EmaTest, BlendsTowardNewSamples) {
  Ema ema(0.5);
  ema.Add(0.0);
  ema.Add(100.0);
  EXPECT_DOUBLE_EQ(ema.value(), 50.0);
  ema.Add(100.0);
  EXPECT_DOUBLE_EQ(ema.value(), 75.0);
}

TEST(EmaTest, HalfLifeDecaysHistoryByHalf) {
  // "50% per 2 periods" (Table 1): after 2 updates with sample 0, an initial
  // value of 100 should retain weight 0.5 → value 50.
  Ema ema = Ema::WithHalfLife(2.0);
  ema.Add(100.0);
  ema.Add(0.0);
  ema.Add(0.0);
  EXPECT_NEAR(ema.value(), 50.0, 1e-9);
}

TEST(EmaTest, SmoothsSpikes) {
  Ema ema = Ema::WithHalfLife(2.0);
  for (int i = 0; i < 10; ++i) {
    ema.Add(100.0);
  }
  ema.Add(1000.0);  // One-sample spike.
  EXPECT_LT(ema.value(), 400.0);
  EXPECT_GT(ema.value(), 100.0);
}

TEST(EmaTest, ResetClearsState) {
  Ema ema(0.5);
  ema.Add(10);
  ema.Reset();
  EXPECT_FALSE(ema.has_value());
}

TEST(DistributionTest, EmptyIsZero) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.P95(), 0.0);
}

TEST(DistributionTest, BasicMoments) {
  Distribution d;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    d.Add(v);
  }
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.Min(), 1.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
  EXPECT_DOUBLE_EQ(d.Sum(), 15.0);
  EXPECT_NEAR(d.Stddev(), std::sqrt(2.5), 1e-12);
}

TEST(DistributionTest, QuantilesInterpolate) {
  Distribution d;
  for (int i = 0; i <= 100; ++i) {
    d.Add(i);
  }
  EXPECT_DOUBLE_EQ(d.P50(), 50.0);
  EXPECT_DOUBLE_EQ(d.P95(), 95.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 100.0);
}

TEST(DistributionTest, QuantileOfSingleSample) {
  Distribution d;
  d.Add(7.0);
  EXPECT_DOUBLE_EQ(d.P95(), 7.0);
}

TEST(DistributionTest, AddAfterQuantileStillSorted) {
  Distribution d;
  d.Add(5.0);
  d.Add(1.0);
  EXPECT_DOUBLE_EQ(d.Min(), 1.0);
  d.Add(0.5);
  EXPECT_DOUBLE_EQ(d.Min(), 0.5);
}

TEST(DistributionTest, CountAboveIsStrict) {
  Distribution d;
  EXPECT_EQ(d.CountAbove(0.0), 0u);
  for (double s : {1.0, 2.0, 2.0, 3.0, 5.0}) {
    d.Add(s);
  }
  EXPECT_EQ(d.CountAbove(0.0), 5u);
  EXPECT_EQ(d.CountAbove(2.0), 2u);  // strictly greater
  EXPECT_EQ(d.CountAbove(4.0), 1u);
  EXPECT_EQ(d.CountAbove(5.0), 0u);
}

TEST(HistogramTest, BucketsAndFractions) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(1.7);
  EXPECT_DOUBLE_EQ(h.bucket_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(1), 2.0);
  EXPECT_NEAR(h.Fraction(1), 2.0 / 3.0, 1e-12);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);
  h.Add(50.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(9), 1.0);
}

TEST(HistogramTest, WeightedSamples) {
  Histogram h(0.0, 4.0, 4);
  h.Add(1.0, 2.5);
  EXPECT_DOUBLE_EQ(h.bucket_weight(1), 2.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 2.5);
}

TEST(HistogramTest, BucketBounds) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);
}

TEST(TimeSeriesTest, WindowMean) {
  TimeSeries ts;
  ts.Add(10, 1.0);
  ts.Add(20, 2.0);
  ts.Add(30, 3.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(10, 30), 1.5);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(0, 100), 2.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(40, 50), 0.0);
}

TEST(TimeWeightedValueTest, MeanOverPiecewiseConstant) {
  TimeWeightedValue v;
  v.Set(0, 10.0);
  v.Set(100, 20.0);
  // 10 for 100 ns, then 20 for 100 ns.
  EXPECT_DOUBLE_EQ(v.MeanUntil(200), 15.0);
}

TEST(TimeWeightedValueTest, CurrentReflectsLastSet) {
  TimeWeightedValue v;
  v.Set(0, 5.0);
  v.Set(50, 7.0);
  EXPECT_DOUBLE_EQ(v.current(), 7.0);
}

TEST(CounterTest, IncAndReset) {
  Counter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

}  // namespace
}  // namespace vsched
