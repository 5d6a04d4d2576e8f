#include "src/cluster/placement.h"

#include <gtest/gtest.h>

namespace vsched {
namespace {

HostLoadView Host(int id, bool on, int committed, int capacity) {
  HostLoadView v;
  v.host_id = id;
  v.accepts_vms = on;
  v.committed_vcpus = committed;
  v.capacity_vcpus = capacity;
  return v;
}

TEST(GreedyLoad, PicksLeastCommittedRatio) {
  std::vector<HostLoadView> hosts = {
      Host(0, true, 12, 16),
      Host(1, true, 4, 16),
      Host(2, true, 8, 16),
  };
  EXPECT_EQ(PickLeastLoaded(hosts, 4), 1);
}

TEST(GreedyLoad, TiesBreakOnLowestHostId) {
  std::vector<HostLoadView> hosts = {
      Host(0, true, 4, 16),
      Host(1, true, 4, 16),
      Host(2, true, 4, 16),
  };
  EXPECT_EQ(PickLeastLoaded(hosts, 2), 0);
}

TEST(GreedyLoad, SkipsPoweredOffAndFullHosts) {
  std::vector<HostLoadView> hosts = {
      Host(0, false, 0, 16),   // off: most attractive load, but not accepting
      Host(1, true, 15, 16),   // on, but 4 vCPUs do not fit
      Host(2, true, 10, 16),
  };
  EXPECT_EQ(PickLeastLoaded(hosts, 4), 2);
}

TEST(GreedyLoad, ReturnsMinusOneWhenNothingFits) {
  std::vector<HostLoadView> hosts = {
      Host(0, false, 0, 16),
      Host(1, true, 14, 16),
  };
  EXPECT_EQ(PickLeastLoaded(hosts, 4), -1);
}

}  // namespace
}  // namespace vsched
