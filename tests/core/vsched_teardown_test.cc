// Lifetime: a full VSched (vcap, vact, vtop, BVS, IVH, RWC) destroyed while
// a vtop probe and a vcap window are in flight must leave nothing behind in
// its guest kernel that points back into it. The in-flight PairProbes are
// run-change watchers held by raw pointer (vsched-lint's event-lifetime rule
// cannot see them), the prober tasks of vtop and vcap outlive their probers
// in the kernel, and BVS's select hook runs on every wakeup. The VM keeps
// running, waking and switching tasks afterwards, so under ASan (the
// asan-ubsan ctest job) anything left behind is a use-after-free.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/vsched.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TEST(VSchedTeardownTest, DestroyedMidProbeWhileTheVmKeepsRunning) {
  Simulation sim(31);
  TopologySpec topo;
  topo.sockets = 2;
  topo.cores_per_socket = 2;
  HostMachine machine(&sim, topo);
  VmSpec spec = MakeSimpleVmSpec("vm", 4);
  spec.vcpus[1].tid = 4;
  spec.vcpus[2].tid = 2;
  spec.vcpus[3].tid = 2;  // stacked with vCPU 2: its probe runs to the last timeout
  Vm vm(&sim, &machine, spec);
  // Duty-cycled tasks keep every vCPU switching between them and the
  // probers; the small ones go through the wake-placement hook.
  std::vector<std::unique_ptr<PeriodicBehavior>> churn;
  for (int cpu = 0; cpu < vm.num_vcpus(); ++cpu) {
    churn.push_back(std::make_unique<PeriodicBehavior>(
        WorkAtCapacity(kCapacityScale, UsToNs(300)), UsToNs(200)));
    vm.kernel().StartTask(vm.kernel().CreateTask("churn", TaskPolicy::kNormal, churn.back().get(),
                                                 CpuMask::Single(cpu)));
    churn.push_back(std::make_unique<PeriodicBehavior>(
        WorkAtCapacity(kCapacityScale, UsToNs(20)), MsToNs(2)));
    vm.kernel().StartTask(
        vm.kernel().CreateTask("small", TaskPolicy::kNormal, churn.back().get()));
  }
  auto vsched = std::make_unique<VSched>(&vm.kernel(), VSchedOptions::Full());
  vsched->Start();
  sim.RunFor(MsToNs(5));
  ASSERT_TRUE(vsched->vtop()->busy());
  vsched.reset();  // mid vtop probe and mid vcap window

  const uint64_t switches = vm.kernel().counters().context_switches.value();
  sim.RunFor(MsToNs(300));
  EXPECT_GT(vm.kernel().counters().context_switches.value(), switches + 1000);
}

}  // namespace
}  // namespace vsched
