#include "src/guest/cpumask.h"

#include <vector>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(CpuMaskTest, BasicSetTestClear) {
  CpuMask m;
  EXPECT_TRUE(m.Empty());
  m.Set(3);
  m.Set(63);
  EXPECT_TRUE(m.Test(3));
  EXPECT_TRUE(m.Test(63));
  EXPECT_FALSE(m.Test(4));
  EXPECT_EQ(m.Count(), 2);
  m.Clear(3);
  EXPECT_FALSE(m.Test(3));
}

TEST(CpuMaskTest, FirstN) {
  EXPECT_EQ(CpuMask::FirstN(0).Count(), 0);
  EXPECT_EQ(CpuMask::FirstN(5).Count(), 5);
  EXPECT_EQ(CpuMask::FirstN(64).Count(), 64);
  EXPECT_TRUE(CpuMask::FirstN(5).Test(4));
  EXPECT_FALSE(CpuMask::FirstN(5).Test(5));
}

TEST(CpuMaskTest, FirstAndNextFrom) {
  CpuMask m;
  EXPECT_EQ(m.First(), -1);
  m.Set(2);
  m.Set(7);
  EXPECT_EQ(m.First(), 2);
  EXPECT_EQ(m.NextFrom(0), 2);
  EXPECT_EQ(m.NextFrom(3), 7);
  EXPECT_EQ(m.NextFrom(8), -1);
}

TEST(CpuMaskTest, Operators) {
  CpuMask a = CpuMask::FirstN(4);
  CpuMask b = CpuMask::Single(2) | CpuMask::Single(5);
  CpuMask both = a & b;
  EXPECT_EQ(both.Count(), 1);
  EXPECT_TRUE(both.Test(2));
  CpuMask inv = ~a & CpuMask::FirstN(6);
  EXPECT_EQ(inv.Count(), 2);
  EXPECT_TRUE(inv.Test(4));
  EXPECT_TRUE(inv.Test(5));
}

TEST(CpuMaskTest, Iteration) {
  CpuMask m = CpuMask::Single(1) | CpuMask::Single(9) | CpuMask::Single(33);
  std::vector<int> seen;
  for (int cpu : m) {
    seen.push_back(cpu);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 9, 33}));
}

TEST(CpuMaskTest, IterationEmpty) {
  CpuMask m;
  for (int cpu : m) {
    (void)cpu;
    FAIL() << "empty mask iterated";
  }
}

TEST(CpuMaskTest, Assign) {
  CpuMask m = CpuMask::Single(5);
  m.Assign(5, false);
  m.Assign(63, true);
  m.Assign(0, true);
  m.Assign(0, true);
  EXPECT_EQ(m, CpuMask::Single(0) | CpuMask::Single(63));
}

// The guest's placement scans visit vCPUs as (start + k) % n for k < n; a
// rotated iteration over a candidate mask must visit the mask's members in
// exactly that order, for every VM size and every start.
TEST(CpuMaskTest, RotatedFromMatchesTheModuloScan) {
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next_bits = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int n = 1; n <= 64; ++n) {
    std::vector<CpuMask> masks = {CpuMask::None(), CpuMask::FirstN(n),
                                  CpuMask::Single(0), CpuMask::Single(n - 1)};
    for (int i = 0; i < 8; ++i) {
      masks.push_back(CpuMask(next_bits()) & CpuMask::FirstN(n));
      masks.push_back(CpuMask(next_bits() & next_bits()) & CpuMask::FirstN(n));
    }
    for (CpuMask mask : masks) {
      for (int start = 0; start < n; ++start) {
        std::vector<int> expected;
        for (int k = 0; k < n; ++k) {
          int cpu = (start + k) % n;
          if (mask.Test(cpu)) {
            expected.push_back(cpu);
          }
        }
        std::vector<int> seen;
        for (int cpu : mask.RotatedFrom(start)) {
          seen.push_back(cpu);
        }
        ASSERT_EQ(seen, expected) << "n=" << n << " start=" << start << " mask=" << mask.bits();
      }
    }
  }
}

}  // namespace
}  // namespace vsched
