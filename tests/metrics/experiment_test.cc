#include "src/metrics/experiment.h"

#include <gtest/gtest.h>

#include "src/host/machine.h"
#include "src/probe/vcap.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TEST(ExperimentTest, RcvmSpecMatchesPaperLayout) {
  VmSpec spec = MakeRcvmSpec();
  ASSERT_EQ(spec.vcpus.size(), 12u);
  // Five SMT pairs.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(spec.vcpus[i].tid, i);
  }
  // Stacked pair.
  EXPECT_EQ(spec.vcpus[10].tid, spec.vcpus[11].tid);
}

TEST(ExperimentTest, RcvmClassRatios) {
  // hc ≈ 2× lc capacity; ll ≈ 1/3 hl latency (inactive period).
  auto cap = [](VcpuClassShape s) { return 1024.0 / (1024.0 + s.competitor_weight); };
  auto lat = [](VcpuClassShape s) {
    // Inactive period: `gran` when we outweigh the competitor, else scaled.
    return s.competitor_weight <= 1024.0
               ? static_cast<double>(s.granularity)
               : static_cast<double>(s.granularity) * s.competitor_weight / 1024.0;
  };
  EXPECT_NEAR(cap(HchlShape()) / cap(LchlShape()), 2.0, 0.1);
  EXPECT_NEAR(cap(HcllShape()) / cap(LcllShape()), 2.0, 0.1);
  EXPECT_NEAR(lat(LchlShape()) / lat(HcllShape()), 3.0, 0.2);
  EXPECT_NEAR(lat(HchlShape()) / lat(LcllShape()), 3.0, 0.2);
  EXPECT_LT(cap(StragglerShape()), 0.1);
}

TEST(ExperimentTest, HpvmSpecMatchesPaperLayout) {
  VmSpec spec = MakeHpvmSpec();
  TopologySpec host = HpvmHostTopology();
  HostTopology topo(host);
  ASSERT_EQ(spec.vcpus.size(), 32u);
  // Each group of 8 lives in its own socket.
  for (int group = 0; group < 4; ++group) {
    int socket = topo.SocketOf(spec.vcpus[group * 8].tid);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(topo.SocketOf(spec.vcpus[group * 8 + i].tid), socket);
    }
  }
  // No stacked vCPUs in hpvm.
  for (size_t a = 0; a < spec.vcpus.size(); ++a) {
    for (size_t b = a + 1; b < spec.vcpus.size(); ++b) {
      EXPECT_NE(spec.vcpus[a].tid, spec.vcpus[b].tid);
    }
  }
}

TEST(ExperimentTest, RcvmBootsAndProbesShapedCapacities) {
  Simulation sim(71);
  HostMachine machine(&sim, RcvmHostTopology());
  std::vector<std::unique_ptr<Stressor>> stressors;
  ShapeRcvmHost(&sim, &machine, stressors);
  Vm vm(&sim, &machine, MakeRcvmSpec());
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim.RunFor(SecToNs(8));
  // hc classes probe roughly 2x the lc classes.
  double hc = (vcap.CapacityOf(0) + vcap.CapacityOf(2)) / 2;
  double lc = (vcap.CapacityOf(4) + vcap.CapacityOf(6)) / 2;
  EXPECT_NEAR(hc / lc, 2.0, 0.5);
  // Stragglers far below everything.
  EXPECT_LT(vcap.CapacityOf(8), 0.25 * lc);
}

// Shaping gives a thread its class granularities and keeps every other knob
// of the machine's: a machine built as the ticking reference stays ticking
// on every thread, shaped or not. `granularity_of(t)` is the granularity
// shaping gives thread t, or 0 for a thread it leaves alone.
using ShapeFn = void (*)(Simulation*, HostMachine*, std::vector<std::unique_ptr<Stressor>>&);
void ExpectShapingKeepsTheMachinesOtherKnobs(const TopologySpec& topology, ShapeFn shape,
                                             TimeNs (*granularity_of)(int)) {
  HostSchedParams ticking;
  ticking.tickless = false;
  Simulation sim(1);
  HostMachine machine(&sim, topology, ticking);
  std::vector<std::unique_ptr<Stressor>> stressors;
  shape(&sim, &machine, stressors);
  for (int t = 0; t < machine.num_threads(); ++t) {
    const HostSchedParams& params = machine.sched(t).params();
    const TimeNs shaped = granularity_of(t);
    EXPECT_FALSE(params.tickless) << "thread " << t;
    EXPECT_EQ(params.min_granularity, shaped > 0 ? shaped : ticking.min_granularity)
        << "thread " << t;
    EXPECT_EQ(params.wakeup_granularity, shaped > 0 ? shaped : ticking.wakeup_granularity)
        << "thread " << t;
  }
}

TEST(ExperimentTest, RcvmShapingKeepsTheMachinesOtherKnobs) {
  // Threads 0-7: two per class; 8 and 9: stragglers; 10: the stacked pair.
  ExpectShapingKeepsTheMachinesOtherKnobs(RcvmHostTopology(), ShapeRcvmHost, [](int t) {
    const VcpuClassShape classes[4] = {HchlShape(), HcllShape(), LchlShape(), LcllShape()};
    return t < 8 ? classes[t / 2].granularity : t < 10 ? StragglerShape().granularity : 0;
  });
}

TEST(ExperimentTest, HpvmShapingKeepsTheMachinesOtherKnobs) {
  // Sockets 0-2 shape their first eight threads; socket 3 is dedicated.
  ExpectShapingKeepsTheMachinesOtherKnobs(HpvmHostTopology(), ShapeHpvmHost, [](int t) {
    const VcpuClassShape classes[4] = {HchlShape(), HcllShape(), LchlShape(), LcllShape()};
    return t / 10 < 3 && t % 10 < 8 ? classes[t % 10 / 2].granularity : TimeNs{0};
  });
}

TEST(ExperimentTest, GeoMean) {
  EXPECT_NEAR(GeoMean({1.0, 4.0}), 2.0, 1e-9);
  EXPECT_NEAR(GeoMean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}

TEST(ExperimentTest, TotalWorkDoneAccumulates) {
  Simulation sim(5);
  HostMachine machine(&sim, RcvmHostTopology());
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 2));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim.RunFor(SecToNs(1));
  // One dedicated vCPU busy at full capacity for 1 s.
  EXPECT_NEAR(TotalWorkDone(vm.kernel()), kCapacityScale * 1e9, kCapacityScale * 1e7);
}

TEST(ExperimentTest, TablePrinterFormats) {
  EXPECT_EQ(TablePrinter::Fmt(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::Pct(42.0, 0), "42%");
}

}  // namespace
}  // namespace vsched
