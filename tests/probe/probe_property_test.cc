// Parameterized accuracy sweeps for the vProbers: vcap across capacity
// grids (bandwidth- and DVFS-induced), vact across latency grids, and vtop
// against randomly generated ground-truth topologies.
#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/probe/vact.h"
#include "src/probe/vcap.h"
#include "src/probe/vtop.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TopologySpec FlatSpec(int cores) {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = cores;
  spec.threads_per_core = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// vcap: probed capacity tracks bandwidth-shaped ground truth.
// ---------------------------------------------------------------------------

class VcapBandwidth : public ::testing::TestWithParam<double> {};

TEST_P(VcapBandwidth, ProbesShapedCapacity) {
  double fraction = GetParam();
  Simulation sim(41);
  HostMachine machine(&sim, FlatSpec(2));
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].bw_quota = static_cast<TimeNs>(fraction * MsToNs(10));
  spec.vcpus[0].bw_period = MsToNs(10);
  Vm vm(&sim, &machine, spec);
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim.RunFor(SecToNs(6));
  EXPECT_NEAR(vcap.CapacityOf(0) / kCapacityScale, fraction, 0.1) << "fraction " << fraction;
}

INSTANTIATE_TEST_SUITE_P(Fractions, VcapBandwidth, ::testing::Values(0.2, 0.35, 0.5, 0.7, 0.9));

class VcapFreq : public ::testing::TestWithParam<double> {};

TEST_P(VcapFreq, HeavyPhaseSeesFrequency) {
  double freq = GetParam();
  Simulation sim(43);
  HostMachine machine(&sim, FlatSpec(2));
  machine.SetCoreFreq(0, freq);
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 2));
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim.RunFor(SecToNs(3));
  EXPECT_NEAR(vcap.CapacityOf(0) / kCapacityScale, freq, 0.08) << "freq " << freq;
  // Steal-based estimates cannot see frequency; the heavy phase must.
  EXPECT_NEAR(vcap.last_sample(0).core_capacity / kCapacityScale, freq, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Freqs, VcapFreq, ::testing::Values(0.25, 0.5, 0.75, 1.0, 1.5));

// ---------------------------------------------------------------------------
// vact: probed latency tracks the shaped inactive period.
// ---------------------------------------------------------------------------

class VactLatency : public ::testing::TestWithParam<TimeNs> {};

TEST_P(VactLatency, LatencyMatchesInactivePeriod) {
  TimeNs inactive = GetParam();
  Simulation sim(47);
  HostMachine machine(&sim, FlatSpec(1));
  VmSpec spec = MakeSimpleVmSpec("vm", 1);
  spec.vcpus[0].bw_quota = inactive;           // symmetric on/off
  spec.vcpus[0].bw_period = 2 * inactive;
  Vm vm(&sim, &machine, spec);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vact vact(&vm.kernel());
  vact.Start();
  sim.RunFor(SecToNs(4));
  EXPECT_NEAR(vact.LatencyOf(0), static_cast<double>(inactive),
              0.25 * static_cast<double>(inactive))
      << "inactive " << NsToMs(inactive) << " ms";
}

INSTANTIATE_TEST_SUITE_P(Periods, VactLatency,
                         ::testing::Values(MsToNs(2), MsToNs(4), MsToNs(8), MsToNs(12)));

// ---------------------------------------------------------------------------
// vtop: recovered topology matches randomly generated ground truth.
// ---------------------------------------------------------------------------

struct VtopCase {
  uint64_t seed;
  int vcpus;
};

// ctest names each case after this text. Without it gtest prints the raw
// bytes, padding included, and the name changes from one build to the next.
void PrintTo(const VtopCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " vcpus=" << c.vcpus;
}

class VtopRandomTopology : public ::testing::TestWithParam<VtopCase> {};

TEST_P(VtopRandomTopology, RecoversGroundTruth) {
  VtopCase c = GetParam();
  Simulation sim(c.seed);
  TopologySpec host;
  host.sockets = 2;
  host.cores_per_socket = 5;
  host.threads_per_core = 2;
  HostMachine machine(&sim, host);
  HostTopology topo(host);
  Rng rng = sim.ForkRng();

  // Random pinning; allow up to one stacked pair by reusing a thread.
  VmSpec spec = MakeSimpleVmSpec("vm", c.vcpus);
  std::vector<int> tids;
  for (int i = 0; i < c.vcpus; ++i) {
    int tid;
    if (i > 0 && rng.Bernoulli(0.15)) {
      tid = tids[static_cast<size_t>(rng.UniformInt(0, i - 1))];  // stack
    } else {
      do {
        tid = static_cast<int>(rng.UniformInt(0, topo.num_threads() - 1));
      } while (std::find(tids.begin(), tids.end(), tid) != tids.end());
    }
    tids.push_back(tid);
    spec.vcpus[i].tid = tid;
  }
  Vm vm(&sim, &machine, spec);
  Vtop vtop(&vm.kernel());
  bool done = false;
  vtop.RunFullProbe([&] { done = true; });
  sim.RunFor(SecToNs(30));
  ASSERT_TRUE(done) << "probe did not converge";

  const GuestTopology& probed = vtop.probed_topology();
  for (int a = 0; a < c.vcpus; ++a) {
    for (int b = 0; b < c.vcpus; ++b) {
      bool same_thread = tids[a] == tids[b];
      bool same_core = topo.CoreOf(tids[a]) == topo.CoreOf(tids[b]);
      bool same_socket = topo.SocketOf(tids[a]) == topo.SocketOf(tids[b]);
      EXPECT_EQ(probed.stack_mask[a].Test(b), same_thread) << a << "," << b;
      EXPECT_EQ(probed.smt_mask[a].Test(b), same_core) << a << "," << b;
      EXPECT_EQ(probed.llc_mask[a].Test(b), same_socket) << a << "," << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, VtopRandomTopology,
                         ::testing::Values(VtopCase{1, 6}, VtopCase{2, 6}, VtopCase{3, 8},
                                           VtopCase{4, 10}, VtopCase{5, 12}, VtopCase{6, 16}));

// ---------------------------------------------------------------------------
// vtop under interference: busy vCPUs must not be misread as stacked when
// timeout extension is enabled.
// ---------------------------------------------------------------------------

TEST(VtopInterference, BusyPairsNotMisreadAsStacked) {
  Simulation sim(777);
  TopologySpec host = FlatSpec(4);
  HostMachine machine(&sim, host);
  VmSpec spec = MakeSimpleVmSpec("vm", 4);
  for (auto& p : spec.vcpus) {
    p.bw_quota = MsToNs(3);
    p.bw_period = MsToNs(10);  // 30% duty: little overlap between pairs
  }
  Vm vm(&sim, &machine, spec);
  // CPU-bound workload keeps all vCPUs demanded (worst case for overlap).
  std::vector<std::unique_ptr<HogBehavior>> hogs;
  for (int i = 0; i < 4; ++i) {
    hogs.push_back(std::make_unique<HogBehavior>());
    Task* t = vm.kernel().CreateTask("h", TaskPolicy::kNormal, hogs.back().get(),
                                     CpuMask::Single(i));
    vm.kernel().StartTask(t);
  }
  Vtop vtop(&vm.kernel());
  bool done = false;
  vtop.RunFullProbe([&] { done = true; });
  sim.RunFor(SecToNs(60));
  ASSERT_TRUE(done);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(vtop.probed_topology().stack_mask[i].Count(), 1) << "vcpu " << i;
  }
}

}  // namespace
}  // namespace vsched
