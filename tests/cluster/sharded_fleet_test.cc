#include "src/cluster/sharded_fleet.h"

#include <gtest/gtest.h>

#include <string>

#include "src/base/audit.h"
#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/core/config.h"
#include "src/fault/fault_plan.h"
#include "src/sim/shard_mailbox.h"

namespace vsched {
namespace {

constexpr uint64_t kSeed = 0x5AA3D;

FleetSpec Preset(const std::string& name) {
  FleetSpec spec;
  EXPECT_TRUE(LookupFleetSpec(name, &spec));
  return spec;
}

FleetSpec Tiny() { return Preset("tiny"); }

FleetTotals RunSharded(const FleetSpec& spec, const VSchedOptions& options, int shards,
                       TimeNs horizon, uint64_t seed = kSeed, const FaultPlan* plan = nullptr) {
  ShardedFleet fleet(spec, seed, options, shards, plan);
  fleet.Run(horizon);
  return fleet.totals();
}

// Every FleetTotals field, the floating-point ones bit for bit.
void ExpectTotalsEqual(const FleetTotals& a, const FleetTotals& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.fleet_p50_ns, b.fleet_p50_ns);
  EXPECT_EQ(a.fleet_p95_ns, b.fleet_p95_ns);
  EXPECT_EQ(a.fleet_p99_ns, b.fleet_p99_ns);
  EXPECT_EQ(a.fleet_mean_ns, b.fleet_mean_ns);
  EXPECT_EQ(a.tenant_p99_p50_ns, b.tenant_p99_p50_ns);
  EXPECT_EQ(a.tenant_p99_p95_ns, b.tenant_p99_p95_ns);
  EXPECT_EQ(a.tenant_p99_max_ns, b.tenant_p99_max_ns);
  EXPECT_EQ(a.vms_placed, b.vms_placed);
  EXPECT_EQ(a.vms_rejected, b.vms_rejected);
  EXPECT_EQ(a.vms_departed, b.vms_departed);
  EXPECT_EQ(a.batch_chunks, b.batch_chunks);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.hosts_booted, b.hosts_booted);
  EXPECT_EQ(a.hosts_shutdown, b.hosts_shutdown);
  EXPECT_EQ(a.hosts_on_at_end, b.hosts_on_at_end);
  EXPECT_EQ(a.host_util_mean, b.host_util_mean);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.fault_applied, b.fault_applied);
  EXPECT_EQ(a.adversary_activations, b.adversary_activations);
  EXPECT_EQ(a.degraded_tenants, b.degraded_tenants);
  EXPECT_EQ(a.pessimistic_publishes, b.pessimistic_publishes);
  EXPECT_EQ(a.quarantine_events, b.quarantine_events);
}

TEST(ShardMailbox, DrainsInDueThenPostOrder) {
  ShardMailbox mailbox;
  std::vector<int> order;
  // Posted deliberately out of due order: a later due first, then four
  // messages at one due that must apply in the order they were posted.
  mailbox.Post(MsToNs(2), [&] { order.push_back(5); });
  mailbox.Post(MsToNs(1), [&] { order.push_back(1); });
  mailbox.Post(MsToNs(1), [&] { order.push_back(2); });
  mailbox.Post(MsToNs(1), [&] { order.push_back(3); });
  mailbox.Post(MsToNs(1), [&] { order.push_back(4); });
  EXPECT_EQ(mailbox.next_due(), MsToNs(1));

  EXPECT_EQ(mailbox.DrainUpTo(MsToNs(1)), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(mailbox.pending(), 1u);
  EXPECT_EQ(mailbox.DrainUpTo(MsToNs(2)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ShardMailbox, FollowUpPostsDeliverInTheSameDrain) {
  ShardMailbox mailbox;
  std::vector<int> order;
  mailbox.Post(MsToNs(1), [&] {
    order.push_back(1);
    // A handler chaining another same-instant action (boot completing and
    // immediately placing, say) must not wait a whole extra window.
    mailbox.Post(MsToNs(1), [&] { order.push_back(2); });
  });
  EXPECT_EQ(mailbox.DrainUpTo(MsToNs(1)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedFleet, LookaheadWindowIsControlLatencyGcd) {
  // tiny: gcd(10ms control, 20ms boot, 10ms copy, 1ms downtime) = 1ms, and
  // the tiny preset splits 4 hosts into two 2-host cells.
  ShardedFleet fleet(Tiny(), kSeed, VSchedOptions::Cfs(), /*shards=*/1);
  EXPECT_EQ(fleet.window(), MsToNs(1));
  EXPECT_EQ(fleet.num_cells(), 2);
}

TEST(ShardedFleet, TinyLifecycleCoversPlacementChurnAndPower) {
  FleetTotals t = RunSharded(Tiny(), VSchedOptions::Cfs(), /*shards=*/2, MsToNs(1000));

  // The lifecycle coverage Fleet.TinyLifecycleCoversPlacementChurnAndPower
  // pins at one shard, here across two worker threads: all VMs placed,
  // churn departs nearly all of them, and consolidation, power-down, and
  // real traffic all occur.
  EXPECT_EQ(t.vms_placed, 10);
  EXPECT_EQ(t.vms_rejected, 0);
  EXPECT_GE(t.vms_departed, 8);
  EXPECT_GT(t.requests, 0u);
  EXPECT_GT(t.fleet_p99_ns, t.fleet_p50_ns);
  EXPECT_GT(t.migrations, 0u);
  EXPECT_GT(t.hosts_shutdown, 0);
  EXPECT_GT(t.energy_j, 0);
  EXPECT_GT(t.host_util_mean, 0);
}

TEST(ShardedFleet, TotalsAreIdenticalAtAnyShardCount) {
  // The determinism contract of --shards: the partition into cells is fixed
  // by the spec, so the worker-thread count may not change a single total —
  // including the floating-point ones, whose accumulation order is pinned.
  FleetTotals one = RunSharded(Tiny(), VSchedOptions::Full(), 1, MsToNs(800));
  FleetTotals two = RunSharded(Tiny(), VSchedOptions::Full(), 2, MsToNs(800));
  FleetTotals four = RunSharded(Tiny(), VSchedOptions::Full(), 4, MsToNs(800));
  ExpectTotalsEqual(one, two);
  ExpectTotalsEqual(one, four);
}

TEST(ShardedFleet, ChaosReplayIsIdenticalAcrossShardCounts) {
  FaultPlan plan;
  ASSERT_TRUE(LookupFaultPlan("everything", &plan));
  FleetTotals one = RunSharded(Tiny(), VSchedOptions::Full(), 1, MsToNs(800), kSeed, &plan);
  FleetTotals four = RunSharded(Tiny(), VSchedOptions::Full(), 4, MsToNs(800), kSeed, &plan);
  EXPECT_GT(one.fault_applied, 0u);
  ExpectTotalsEqual(one, four);
}

TEST(ShardedFleet, StepwiseRunMatchesOneShot) {
  // Every RunUntil deadline stops every cell. Stepping by window() stops
  // them at every grid point, so it is the oracle for Run(horizon), which
  // runs each cell once to the horizon. 10 ms steps are what callers that
  // sample fleet state mid-run (fleet_test.cc) do. Neither may move a single
  // total.
  FaultPlan plan;
  ASSERT_TRUE(LookupFaultPlan("everything", &plan));
  struct Case {
    const char* preset;
    TimeNs horizon;
    const FaultPlan* chaos;
  };
  const Case cases[] = {
      {"tiny", MsToNs(800), nullptr},
      {"tiny", MsToNs(800), &plan},
      {"small", MsToNs(3000), nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.preset) + (c.chaos == nullptr ? " clean" : " chaos"));
    FleetSpec spec = Preset(c.preset);
    FleetTotals one_shot =
        RunSharded(spec, VSchedOptions::Full(), 1, c.horizon, kSeed, c.chaos);
    // The run must cover every lifecycle path an action can take.
    EXPECT_GT(one_shot.requests, 0u);
    EXPECT_GT(one_shot.vms_departed, 0);
    EXPECT_GT(one_shot.migrations, 0u);
    EXPECT_GT(one_shot.hosts_shutdown, 0);
    for (bool by_window : {false, true}) {
      SCOPED_TRACE(by_window ? "window steps" : "10 ms steps");
      ShardedFleet fleet(spec, kSeed, VSchedOptions::Full(), /*shards=*/1, c.chaos);
      TimeNs step = by_window ? fleet.window() : MsToNs(10);
      for (TimeNs t = step; t <= c.horizon; t += step) {
        fleet.RunUntil(t);
      }
      fleet.Finish();
      ExpectTotalsEqual(fleet.totals(), one_shot);
    }
  }
}

TEST(ShardedFleet, TickSampleReadsTheStateBeforeTheTicksDecisions) {
  // Crowded: arrivals queue, so control ticks place tenants, boot hosts and
  // power them down. Each tick's energy/utilization sample must read the
  // power states and busy threads from before those decisions and after
  // everything planned earlier for the tick's instant. The expected values
  // were recorded from an engine that stopped every cell at each tick and
  // sampled there; both totals move when the sample moves after the tick's
  // placements.
  FleetSpec spec = Preset("small");
  spec.vms = 200;
  spec.arrival_window = MsToNs(600);
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    FleetTotals t = RunSharded(spec, VSchedOptions::Cfs(), shards, MsToNs(2000));
    EXPECT_EQ(t.energy_j, 7220.8999999999996);
    EXPECT_EQ(t.host_util_mean, 0.96132785763175588);
  }
}

// More tenants than tiny's hosts hold, so arrivals queue and control ticks
// place them as departures free room.
FleetSpec CrowdedTiny() {
  FleetSpec spec = Tiny();
  spec.vms = 40;
  spec.arrival_window = MsToNs(600);
  return spec;
}

TEST(ShardedFleet, BarriersLeaveNoPlannedActionUnapplied) {
  // A tick's placements apply at the tick's own instant: whenever RunUntil
  // returns at a tick, a tenant's stack exists exactly when the coordinator
  // has it placed and not departed.
  FleetSpec spec = CrowdedTiny();
  ShardedFleet fleet(spec, kSeed, VSchedOptions::Cfs(), /*shards=*/2);
  for (TimeNs t = spec.control_period; t <= MsToNs(1000); t += spec.control_period) {
    fleet.RunUntil(t);
    for (int id = 0; id < fleet.num_tenants(); ++id) {
      const TenantVm& tenant = fleet.tenant(id);
      ASSERT_EQ(tenant.placed && !tenant.departed, tenant.vm != nullptr)
          << "tenant " << id << " at " << t << " ns";
    }
  }
  fleet.Finish();
  EXPECT_EQ(fleet.totals().vms_placed, spec.vms);
}

void IgnoreViolation(const char*, int, const char*, const char*) {}

TEST(ShardedFleet, AuditedWindowStepsReportNothing) {
  // Stepping by window() ends a RunUntil call at every grid point, so the
  // audits that compare the parked cells with the coordinator run wherever
  // an action can land, and the commit audit at every planned tick.
  FaultPlan plan;
  ASSERT_TRUE(LookupFaultPlan("everything", &plan));
  struct Case {
    const char* name;
    FleetSpec spec;
    const FaultPlan* chaos;
    int shards;
  };
  const Case cases[] = {
      {"tiny clean", Tiny(), nullptr, 1},
      {"tiny chaos", Tiny(), &plan, 1},
      {"crowded tiny", CrowdedTiny(), nullptr, 2},
  };
  audit::ScopedEnable enable;
  audit::ScopedHandler handler(&IgnoreViolation);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    audit::ResetViolationCount();
    ShardedFleet fleet(c.spec, kSeed, VSchedOptions::Full(), c.shards, c.chaos);
    for (TimeNs t = fleet.window(); t <= MsToNs(800); t += fleet.window()) {
      fleet.RunUntil(t);
    }
    fleet.Finish();
    EXPECT_GT(fleet.totals().migrations, 0u);
    EXPECT_EQ(audit::ViolationCount(), 0u);
  }
}

TEST(ShardedFleet, DifferentSeedsDiffer) {
  FleetTotals a = RunSharded(Tiny(), VSchedOptions::Cfs(), 2, MsToNs(600), 1);
  FleetTotals b = RunSharded(Tiny(), VSchedOptions::Cfs(), 2, MsToNs(600), 2);
  EXPECT_NE(a.requests, b.requests);
}

TEST(ShardedFleet, MigrationStaysWithinTheCell) {
  // The cell is the migration domain: after any number of consolidations,
  // every tenant's host must still belong to the cell range it was placed
  // into (host ids are contiguous per cell).
  FleetSpec spec = Tiny();
  ShardedFleet fleet(spec, kSeed, VSchedOptions::Cfs(), /*shards=*/2);
  fleet.Run(MsToNs(1000));
  EXPECT_GT(fleet.totals().migrations, 0u);
  for (int id = 0; id < fleet.num_tenants(); ++id) {
    const TenantVm& tenant = fleet.tenant(id);
    if (tenant.host_id < 0) {
      continue;  // never placed
    }
    EXPECT_LT(tenant.host_id, spec.hosts);
  }
}

TEST(ShardedFleet, PerCellEventBudgetTripsDeterministically) {
  FleetSpec spec = Tiny();
  ShardedFleet a(spec, kSeed, VSchedOptions::Cfs(), /*shards=*/1);
  a.SetEventBudgetPerCell(2000);
  EXPECT_THROW(a.Run(MsToNs(1000)), SimBudgetExceeded);

  // Parallel execution rethrows the same (lowest-cell) trip: each cell's
  // dispatches are a function of the spec alone.
  ShardedFleet b(spec, kSeed, VSchedOptions::Cfs(), /*shards=*/4);
  b.SetEventBudgetPerCell(2000);
  EXPECT_THROW(b.Run(MsToNs(1000)), SimBudgetExceeded);
}

TEST(ShardedFleet, BudgetTripDropsPlannedActionsAndTearsDownCleanly) {
  // The trip lands mid-run while the tripping cell's inbox still holds
  // actions the coordinator planned for later instants of the run: a
  // placement whose stack was never built, or a departure whose stack was
  // never torn down. Both shard counts must rethrow the same trip after the
  // same dispatches, and teardown (the destructor's Finish) must skip the
  // unbuilt stacks and free the rest — the asan-ubsan job checks the latter.
  constexpr uint64_t kTripBudget = 1250;  // trips mid-run, well before the horizon
  std::string what[2];
  uint64_t dispatched[2] = {0, 0};
  int run = 0;
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedFleet fleet(Tiny(), kSeed, VSchedOptions::Full(), shards);
    fleet.SetEventBudgetPerCell(kTripBudget);
    try {
      fleet.Run(MsToNs(1000));
      ADD_FAILURE() << "the event budget never tripped";
    } catch (const SimBudgetExceeded& e) {
      what[run] = e.what();
    }
    int ahead_of_stack = 0;
    for (int id = 0; id < fleet.num_tenants(); ++id) {
      const TenantVm& tenant = fleet.tenant(id);
      bool live = tenant.placed && !tenant.departed;
      if (live != (tenant.vm != nullptr)) {
        ++ahead_of_stack;
      }
    }
    EXPECT_GT(ahead_of_stack, 0);
    dispatched[run] = fleet.events_dispatched();
    ++run;
  }
  EXPECT_FALSE(what[0].empty());
  EXPECT_EQ(what[0], what[1]);
  EXPECT_EQ(dispatched[0], dispatched[1]);
}

}  // namespace
}  // namespace vsched
