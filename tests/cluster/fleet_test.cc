// Fleet lifecycle, replay and placement on the fleet engine at one shard.
// tests/cluster/sharded_fleet_test.cc covers the shard-count contract.
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/core/config.h"
#include "src/core/vsched.h"
#include "src/fault/fault_plan.h"

namespace vsched {
namespace {

constexpr uint64_t kSeed = 0xF1EE7;

FleetSpec Tiny() {
  FleetSpec spec;
  EXPECT_TRUE(LookupFleetSpec("tiny", &spec));
  return spec;
}

// Runs a fleet to the horizon and returns its frozen totals.
FleetTotals RunFleet(const FleetSpec& spec, const VSchedOptions& options,
                     TimeNs horizon, uint64_t seed = kSeed,
                     const FaultPlan* plan = nullptr) {
  ShardedFleet fleet(spec, seed, options, /*shards=*/1, plan);
  fleet.Run(horizon);
  return fleet.totals();
}

TEST(Fleet, TinyLifecycleCoversPlacementChurnAndPower) {
  FleetTotals t = RunFleet(Tiny(), VSchedOptions::Cfs(), MsToNs(1000));

  // All 10 VMs arrive within the 100 ms window and the 150 ms mean lifetime
  // means essentially all depart inside a 1 s horizon.
  EXPECT_EQ(t.vms_placed, 10);
  EXPECT_EQ(t.vms_rejected, 0);
  EXPECT_GE(t.vms_departed, 8);

  EXPECT_GT(t.requests, 0u);
  EXPECT_GT(t.fleet_p99_ns, t.fleet_p50_ns);

  // The tiny preset is tuned so boots, consolidation migrations, and idle
  // power-downs all occur; CI smoke (.github/workflows/ci.yml) relies on the
  // nonzero-migration property too.
  EXPECT_GT(t.migrations, 0u);
  EXPECT_GT(t.hosts_shutdown, 0);
  EXPECT_GE(t.hosts_on_at_end, Tiny().min_hosts_on);
  EXPECT_GT(t.energy_j, 0);
  EXPECT_GT(t.host_util_mean, 0);
}

TEST(Fleet, SameSeedReplaysIdentically) {
  FleetTotals a = RunFleet(Tiny(), VSchedOptions::Full(), MsToNs(600));
  FleetTotals b = RunFleet(Tiny(), VSchedOptions::Full(), MsToNs(600));

  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.fleet_p50_ns, b.fleet_p50_ns);
  EXPECT_EQ(a.fleet_p99_ns, b.fleet_p99_ns);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.batch_chunks, b.batch_chunks);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.host_util_mean, b.host_util_mean);
}

TEST(Fleet, DifferentSeedsDiffer) {
  FleetTotals a = RunFleet(Tiny(), VSchedOptions::Cfs(), MsToNs(600), 1);
  FleetTotals b = RunFleet(Tiny(), VSchedOptions::Cfs(), MsToNs(600), 2);
  // Arrival times, lifetimes, and service draws all come from RNG streams
  // forked from the seed, so distinct seeds must not collide.
  EXPECT_NE(a.requests, b.requests);
}

// Regression: tenants depart (and migrate) mid-simulation while vSched
// guests have IVH handshakes and rescheduling IPIs in flight. Tearing down
// a tenant used to leave [this]-capturing closures in pending-IPI queues
// and After events, which a later bandwidth reshape on a surviving tenant
// would drain into freed Ivh/GuestKernel objects (use-after-free; caught
// under ASan). The tiny preset's churn plus Full options reproduces it.
TEST(Fleet, MidSimTeardownWithVschedGuestsInFlight) {
  FleetSpec spec = Tiny();
  // Faster probing widens the window where a departure races a handshake.
  spec.probe_interval = MsToNs(20);
  spec.probe_window = MsToNs(1);
  FleetTotals t = RunFleet(spec, VSchedOptions::Full(), MsToNs(1000));
  EXPECT_GE(t.vms_departed, 8);
  EXPECT_GT(t.migrations, 0u);
}

// Lifetime: a tenant that departs while its first full vtop probe is in
// flight destroys PairProbes that are run-change watchers of its guest
// kernel. The VM is still attached: relaxing its neighbours' caps
// (VacateThreads) reschedules its vCPUs before it detaches. Under ASan (the
// asan-ubsan ctest job) a watcher left in the kernel is a use-after-free.
TEST(Fleet, TenantDepartsMidFullProbe) {
  VSchedOptions options = VSchedOptions::Full();
  // The pair probes miss their target and run to the timeout, so a full
  // probe stays in flight for most of a tenant's life.
  options.vtop.pair.target_transfers = 1 << 30;
  // More tenants than the tiny hosts hold, so departures share capped threads.
  FleetSpec spec = Tiny();
  spec.vms = 40;
  spec.arrival_window = MsToNs(600);
  ShardedFleet fleet(spec, kSeed, options, /*shards=*/1);
  std::vector<bool> probing;
  int departed_mid_probe = 0;
  for (int step = 1; step <= 1000; ++step) {
    fleet.RunUntil(MsToNs(step));
    probing.resize(static_cast<size_t>(fleet.num_tenants()), false);
    for (int id = 0; id < fleet.num_tenants(); ++id) {
      const TenantVm& tenant = fleet.tenant(id);
      if (tenant.departed && probing[static_cast<size_t>(id)]) {
        ++departed_mid_probe;
      }
      probing[static_cast<size_t>(id)] = !tenant.departed && tenant.vsched != nullptr &&
                                         tenant.vsched->vtop()->busy() &&
                                         tenant.vsched->vtop()->validations_run() == 0;
    }
  }
  fleet.Finish();
  EXPECT_GT(departed_mid_probe, 0);
}

TEST(Fleet, FaultPlanAppliesAndReplays) {
  FaultPlan plan;
  ASSERT_TRUE(LookupFaultPlan("everything", &plan));
  FleetTotals a = RunFleet(Tiny(), VSchedOptions::Full(), MsToNs(800), kSeed, &plan);
  FleetTotals b = RunFleet(Tiny(), VSchedOptions::Full(), MsToNs(800), kSeed, &plan);
  EXPECT_GT(a.fault_applied, 0u);
  EXPECT_EQ(a.fault_applied, b.fault_applied);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.fleet_p99_ns, b.fleet_p99_ns);
}

}  // namespace
}  // namespace vsched
