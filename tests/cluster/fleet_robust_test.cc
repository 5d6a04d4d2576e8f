// Fleet-level robustness: under chaos or an adversarial co-tenant, guests
// running with robust.enabled must actually take their degradation paths —
// pessimistic capacity publishes, quarantine, and component degradation
// (IVH pause / RWC freeze) — and the fleet must surface those in its totals
// rather than silently absorbing them. Clean fleets must stay silent.
#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/core/config.h"
#include "src/fault/fault_plan.h"

namespace vsched {
namespace {

constexpr uint64_t kSeed = 0xB0B57;

FleetSpec Tiny() {
  FleetSpec spec;
  EXPECT_TRUE(LookupFleetSpec("tiny", &spec));
  return spec;
}

// Guest stack with the anti-evasion layer armed. The probing cadence is
// taken from the FleetSpec (the fleet ctor overrides the vcap/vact knobs),
// so only the robust switch matters here.
VSchedOptions RobustGuest() {
  VSchedOptions options = VSchedOptions::Full();
  options.robust.enabled = true;
  return options;
}

// Tiny's population churns every ~150 ms — a tenant lives for about one
// probe window, far too short for any plausibility streak. Detection needs
// tenants that survive the horizon, so pin the same hosts under a small
// immortal population instead.
FleetSpec LongLived() {
  FleetSpec spec = Tiny();
  spec.name = "tiny-longlived";
  spec.vms = 6;
  spec.arrival_window = MsToNs(50);
  spec.vm_lifetime_mean = 0;  // live to the horizon
  return spec;
}

FaultPlan Plan(const std::string& name) {
  FaultPlan plan;
  EXPECT_TRUE(LookupFaultPlan(name, &plan));
  return plan;
}

FleetTotals RunFleet(const FleetSpec& spec, const VSchedOptions& options,
                     const FaultPlan* plan, TimeNs horizon = SecToNs(4)) {
  ShardedFleet fleet(spec, kSeed, options, /*shards=*/1, plan);
  fleet.Run(horizon);
  return fleet.totals();
}

TEST(FleetRobustTest, CleanRobustFleetReportsNoDetections) {
  FleetTotals t = RunFleet(Tiny(), RobustGuest(), nullptr);
  EXPECT_EQ(t.adversary_activations, 0u);
  EXPECT_EQ(t.degraded_tenants, 0);
  EXPECT_EQ(t.pessimistic_publishes, 0u);
  EXPECT_EQ(t.quarantine_events, 0u);
}

TEST(FleetRobustTest, ChaosFleetFiresDegradationPaths) {
  FaultPlan plan = Plan("everything");
  FleetTotals t = RunFleet(LongLived(), RobustGuest(), &plan);

  // Chaos hosts injure a quarter of the fleet; at least one robust guest
  // must notice (degradation transition) and contain (pessimistic publish
  // or quarantine) rather than publishing the corrupted view unchanged.
  EXPECT_GT(t.fault_applied, 0u);
  EXPECT_GT(t.degraded_tenants, 0);
  EXPECT_GT(t.pessimistic_publishes + t.quarantine_events, 0u);
}

TEST(FleetRobustTest, AdversarialTenantsDetectedOnlyWithRobustOn) {
  FaultPlan plan = Plan("adversary-all");

  VSchedOptions off = RobustGuest();
  off.robust.enabled = false;
  FleetTotals blind = RunFleet(LongLived(), off, &plan);
  EXPECT_GT(blind.adversary_activations, 0u);
  EXPECT_EQ(blind.degraded_tenants, 0);
  EXPECT_EQ(blind.pessimistic_publishes, 0u);
  EXPECT_EQ(blind.quarantine_events, 0u);

  FleetTotals armed = RunFleet(LongLived(), RobustGuest(), &plan);
  EXPECT_GT(armed.adversary_activations, 0u);
  // The combined attack must trip at least one guest's degradation tracker
  // (IVH pause / RWC freeze / quarantine all count as transitions).
  EXPECT_GT(armed.degraded_tenants, 0);
}

// The detection aggregates are integer sums, so the sharded engine must
// merge them identically for any shard count — the property the
// --adversary fleet rows' byte-compare rests on.
TEST(FleetRobustTest, ShardedDetectionTotalsMatchAcrossShardCounts) {
  FaultPlan plan = Plan("adversary-all");
  auto run = [&](int shards) {
    ShardedFleet fleet(LongLived(), kSeed, RobustGuest(), shards, &plan);
    fleet.Run(SecToNs(3));
    return fleet.totals();
  };
  FleetTotals s1 = run(1);
  FleetTotals s3 = run(3);
  EXPECT_EQ(s1.adversary_activations, s3.adversary_activations);
  EXPECT_EQ(s1.degraded_tenants, s3.degraded_tenants);
  EXPECT_EQ(s1.pessimistic_publishes, s3.pessimistic_publishes);
  EXPECT_EQ(s1.quarantine_events, s3.quarantine_events);
  EXPECT_GT(s1.adversary_activations, 0u);
}

}  // namespace
}  // namespace vsched
