// Property tests on the workload models: throughput scaling, queueing
// sanity, pipeline bottleneck laws, closed-loop conservation, and catalog
// coverage under both reference VMs.
#include <ostream>

#include <gtest/gtest.h>

#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/metrics/experiment.h"
#include "src/sim/simulation.h"
#include "src/workloads/catalog.h"
#include "src/workloads/latency_app.h"
#include "src/workloads/throughput_app.h"

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
// TaskParallel throughput scales with threads until vCPUs saturate.
// ---------------------------------------------------------------------------

class TaskParallelScaling : public ::testing::TestWithParam<int> {};

TEST_P(TaskParallelScaling, ThroughputMatchesMinThreadsVcpus) {
  int threads = GetParam();
  const int kVcpus = 4;
  Simulation sim(31);
  HostMachine machine(&sim, FlatSpec(kVcpus));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", kVcpus));
  TaskParallelParams p;
  p.threads = threads;
  p.chunk_mean = MsToNs(1);
  p.chunk_cv = 0.0;
  TaskParallelApp app(&vm.kernel(), p);
  app.Start();
  sim.RunFor(SecToNs(2));
  double expected = 1000.0 * std::min(threads, kVcpus);
  EXPECT_NEAR(app.Result().throughput, expected, 0.08 * expected) << threads << " threads";
}

INSTANTIATE_TEST_SUITE_P(Threads, TaskParallelScaling, ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------------
// Open-loop latency app: throughput equals the offered load below
// saturation; mean latency stays near service time at low utilization.
// ---------------------------------------------------------------------------

class OpenLoopLoad : public ::testing::TestWithParam<double> {};

TEST_P(OpenLoopLoad, ServesOfferedLoad) {
  double rate = GetParam();
  Simulation sim(32);
  HostMachine machine(&sim, FlatSpec(4));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 4));
  LatencyAppParams p;
  p.workers = 4;
  p.arrival_rate_per_sec = rate;
  p.service_mean = UsToNs(200);
  p.service_cv = 0.1;
  LatencyApp app(&vm.kernel(), p);
  app.Start();
  sim.RunFor(SecToNs(5));
  EXPECT_NEAR(app.Result().throughput, rate, 0.06 * rate + 10);
  // Utilization = rate * 0.2ms / 4 workers; low utilizations → latency near
  // the bare service time.
  if (rate * 0.0002 / 4 < 0.3) {
    EXPECT_LT(app.Result().mean_ns, 2.0 * UsToNs(200) + UsToNs(50));
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, OpenLoopLoad, ::testing::Values(100.0, 1000.0, 4000.0));

// ---------------------------------------------------------------------------
// Closed-loop latency app: completed counts are conserved and throughput
// follows Little's law (connections = throughput × mean latency).
// ---------------------------------------------------------------------------

class ClosedLoopLaw : public ::testing::TestWithParam<int> {};

TEST_P(ClosedLoopLaw, LittlesLawHolds) {
  int connections = GetParam();
  Simulation sim(33);
  HostMachine machine(&sim, FlatSpec(4));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 4));
  LatencyAppParams p;
  p.workers = 8;
  p.service_mean = UsToNs(300);
  p.service_cv = 0.1;
  p.closed_loop = true;
  p.connections = connections;
  LatencyApp app(&vm.kernel(), p);
  app.Start();
  sim.RunFor(SecToNs(2));
  app.ResetStats();
  sim.RunFor(SecToNs(4));
  WorkloadResult r = app.Result();
  ASSERT_GT(r.completed, 100u);
  double little = r.throughput * (r.mean_ns / 1e9);
  EXPECT_NEAR(little, connections, 0.2 * connections) << connections << " connections";
}

INSTANTIATE_TEST_SUITE_P(Connections, ClosedLoopLaw, ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------------
// Pipeline: throughput is set by the bottleneck stage across shapes.
// ---------------------------------------------------------------------------

struct PipelineCase {
  TimeNs bottleneck;
  int workers;
};

// ctest names each case after this text. Without it gtest prints the raw
// bytes, padding included, and the name changes from one build to the next.
void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << "bottleneck_us=" << c.bottleneck / 1000 << " workers=" << c.workers;
}

class PipelineBottleneck : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineBottleneck, ThroughputTracksBottleneck) {
  PipelineCase c = GetParam();
  Simulation sim(34);
  HostMachine machine(&sim, FlatSpec(8));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 8));
  PipelineAppParams p;
  p.stages = {{2, UsToNs(100), 0.0}, {c.workers, c.bottleneck, 0.0}, {2, UsToNs(100), 0.0}};
  p.window = 12;
  p.comm_lines = 0;
  PipelineApp app(&vm.kernel(), p);
  app.Start();
  sim.RunFor(SecToNs(1));
  app.ResetStats();
  sim.RunFor(SecToNs(3));
  double expected = static_cast<double>(c.workers) * 1e9 / static_cast<double>(c.bottleneck);
  EXPECT_NEAR(app.Result().throughput, expected, 0.15 * expected);
}

INSTANTIATE_TEST_SUITE_P(Cases, PipelineBottleneck,
                         ::testing::Values(PipelineCase{MsToNs(1), 1}, PipelineCase{MsToNs(1), 2},
                                           PipelineCase{UsToNs(500), 2},
                                           PipelineCase{MsToNs(2), 3}));

// ---------------------------------------------------------------------------
// Barrier app: iteration rate is the slowest thread's chunk rate.
// ---------------------------------------------------------------------------

TEST(BarrierLawTest, RateIsBoundedByStraggler) {
  Simulation sim(35);
  HostMachine machine(&sim, FlatSpec(4));
  machine.SetCoreFreq(3, 0.5);  // one slow vCPU
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 4));
  BarrierAppParams p;
  p.threads = 4;
  p.chunk_mean = MsToNs(1);
  p.chunk_cv = 0.0;
  BarrierApp app(&vm.kernel(), p);
  app.Start();
  sim.RunFor(SecToNs(2));
  // The slow thread takes 2 ms per chunk → ~500 iter/s.
  EXPECT_NEAR(app.Result().throughput, 500.0, 75.0);
}

// ---------------------------------------------------------------------------
// Every catalog workload runs on both reference VMs without wedging.
// ---------------------------------------------------------------------------

class CatalogOnReferenceVms : public ::testing::TestWithParam<bool> {};

TEST_P(CatalogOnReferenceVms, AllWorkloadsProgress) {
  bool rcvm = GetParam();
  for (const std::string& name : Fig18WorkloadNames()) {
    Simulation sim(36);
    HostMachine machine(&sim, rcvm ? RcvmHostTopology() : HpvmHostTopology());
    std::vector<std::unique_ptr<Stressor>> stressors;
    if (rcvm) {
      ShapeRcvmHost(&sim, &machine, stressors);
    } else {
      ShapeHpvmHost(&sim, &machine, stressors);
    }
    Vm vm(&sim, &machine, rcvm ? MakeRcvmSpec() : MakeHpvmSpec());
    auto w = MakeWorkload(&vm.kernel(), name, vm.num_vcpus());
    w->Start();
    sim.RunFor(MsToNs(400));
    WorkloadResult r = w->Result();
    EXPECT_GT(r.throughput + static_cast<double>(r.completed), 0.0)
        << name << " stuck on " << (rcvm ? "rcvm" : "hpvm");
    w->Stop();
  }
}

INSTANTIATE_TEST_SUITE_P(Vms, CatalogOnReferenceVms, ::testing::Values(true, false));

}  // namespace
}  // namespace vsched
