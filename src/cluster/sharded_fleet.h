// The datacenter control plane: thousands of simulated hosts, each hosting
// multiple guest VM stacks, run as a conservative parallel discrete-event
// simulation (`vsched_run --fleet PRESET --shards N`).
//
// The model. A ShardedFleet owns ClusterHosts (HostMachine + power state +
// energy/utilization accounting) and TenantVms (Vm + guest kernel + VSched +
// an open-loop LatencyApp). VM arrivals are a Poisson process, placement is
// a pluggable policy (src/cluster/placement.h), provisioning is reactive
// (hosts boot on demand, idle hosts power down), and consolidation drains
// under-committed hosts via live migration modeled as a (copy-latency,
// downtime) pair — during downtime the VM's vCPU threads are paused, which
// the guest observes as steal.
//
// Partitioning. Hosts are grouped into fixed *cells* of
// FleetSpec::cell_hosts contiguous hosts. Each cell is one logical process:
// it owns a private Simulation (dispatch heap, RNG stream) plus
// every entity pinned to its hosts — VM stacks, probes, workload apps, fault
// injectors. A cell is also the migration domain: consolidation drains VMs
// within a cell only (rack locality), which is what keeps a live-migrating
// VM's pending timers inside one event queue. The partition is a function of
// the spec alone — never of --shards — so the simulated behaviour cannot
// depend on the worker-thread count.
//
// Synchronization. Cells synchronize only where a read needs all of them:
// at each control tick (the energy/utilization sample reads every host's
// busy state), at the RunUntil deadline, and at Finish. Between two barriers
// the coordinator plans and the cells apply:
//  - Planning. Before a run phase the single-threaded coordinator drains the
//    ShardMailbox up to the next barrier, in canonical (due, origin, seq)
//    order: arrivals, boot completions, migration phases, departures. Its
//    handlers do control-plane bookkeeping only. Placement reads LoadViews
//    (power and commits), consolidation reads commits and tenant flags, and
//    power-down reads idle_since, so no handler needs a cell to have reached
//    the handler's instant. Every effect on a cell's simulated state becomes
//    a timestamped action in that cell's own inbox. The action captures the
//    tenant id, host id and thread ids it was planned with, because by the
//    time the cell applies it the coordinator's copies may hold a later
//    instant's values.
//  - Applying. Each cell runs to the barrier on its own: worker threads from
//    the runner's pool when --shards > 1, in cell order on the caller's
//    thread otherwise. It stops at each action's instant and applies every
//    action due there, together, before it runs anything later.
//  - The barrier. Every cell stands at exactly now() == T with every action
//    due at or before T applied. The coordinator folds the harvests of the
//    tenants that departed since the last barrier, runs the control tick on
//    its cadence (sample, place, boot, consolidate, power down), and lets
//    the cells apply the tick's placements at T before the barrier ends.
// W = gcd(control_period, boot_delay, migration_copy_latency,
// migration_downtime) (window()) is the grid that arrivals and departures
// are quantized to; every control-plane delay is a multiple of it, so each
// action lands on the same instant, in the same order, as it would under a
// barrier every W.
//
// Determinism. A (FleetSpec, seed, options) triple replays byte-identically,
// and the JSONL a fleet run emits is byte-identical for every --shards value
// (the row_digests gate's --shards variants), the same guarantee class as the
// runner's --jobs: the coordinator is sequential, the mailbox order is
// canonical, cells share no mutable state between barriers, and per-cell
// PerfCounters keep even the hot-path tallies race-free (merged in cell
// order at Finish).
//
// See docs/PERF.md ("Sharded fleet execution") for why planning ahead is
// exact and docs/CLUSTER.md for the operator view.
#ifndef SRC_CLUSTER_SHARDED_FLEET_H_
#define SRC_CLUSTER_SHARDED_FLEET_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/thread_pool.h"
#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/placement.h"
#include "src/core/config.h"
#include "src/core/vsched.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/sim/rng.h"
#include "src/sim/shard_mailbox.h"
#include "src/sim/simulation.h"
#include "src/stats/stats.h"
#include "src/workloads/latency_app.h"
#include "src/workloads/throughput_app.h"

namespace vsched {

enum class HostPower { kOff, kBooting, kOn };

// One physical host plus the control-plane state the fleet keeps about it.
// `machine` and `occupants` are cell-owned: only the owning cell touches them
// between barriers. The commit, power, idle and energy fields are
// coordinator-owned and may run ahead of the cell to the next barrier.
struct ClusterHost {
  int id = 0;
  std::unique_ptr<HostMachine> machine;
  HostPower power = HostPower::kOff;
  int committed_vcpus = 0;
  std::vector<int> thread_commits;  // committed vCPUs per hardware thread
  // Live occupants per hardware thread as (tenant id, vcpu index) — the
  // basis for commit-driven bandwidth caps (FleetSpec::cap_period).
  std::vector<std::vector<std::pair<int, int>>> occupants;
  // Rotating start position for first-fit thread reservation (see
  // ReserveHostThreads in sharded_fleet.cc): successive VMs overlap
  // partially, which is what produces intra-VM vCPU asymmetry.
  int reserve_cursor = 0;
  TimeNs idle_since = 0;  // last time committed_vcpus hit zero
  double energy_j = 0;    // integrated by the control loop
};

// What a departing tenant contributes to FleetTotals. Its cell fills the
// slot when it tears the tenant down; the coordinator folds it at the next
// barrier, in departure order.
struct TenantHarvest {
  uint64_t pessimistic_publishes = 0;
  uint64_t quarantine_events = 0;
  bool degraded = false;
  uint64_t batch_chunks = 0;
  Distribution latency;  // end-to-end latency; empty for batch tenants
};

// One tenant: the per-VM simulation stack plus its lifecycle bookkeeping.
// The stack (vm, vsched, the apps) and `harvest` are owned by the cell that
// hosts the tenant; the placement and lifecycle fields are coordinator-owned.
struct TenantVm {
  int id = 0;
  std::string name;
  int host_id = -1;
  std::vector<HwThreadId> tids;
  std::unique_ptr<Vm> vm;
  std::unique_ptr<VSched> vsched;
  bool batch = false;                       // noisy-neighbor batch tenant
  std::unique_ptr<LatencyApp> app;          // latency tenants only
  std::unique_ptr<TaskParallelApp> batch_app;  // batch tenants only
  // Co-located best-effort (SCHED_IDLE) work inside latency VMs; see
  // FleetSpec::background_tasks_per_vm.
  std::unique_ptr<TaskParallelApp> bg_app;
  std::optional<TenantHarvest> harvest;  // departed, not yet folded
  TimeNs departs_at = 0;  // 0: lives to the horizon
  bool placed = false;
  bool departed = false;
  bool migrating = false;
  bool depart_pending = false;  // departure arrived mid-migration
  // Reserved migration destination (valid while migrating).
  int mig_dest_host = -1;
  std::vector<HwThreadId> mig_dest_tids;
};

// Aggregated fleet outcome; the runner flattens this into RunMetrics keys.
struct FleetTotals {
  uint64_t requests = 0;
  uint64_t slo_violations = 0;
  double fleet_p50_ns = 0;
  double fleet_p95_ns = 0;
  double fleet_p99_ns = 0;
  double fleet_mean_ns = 0;
  // Distribution of per-tenant p99s (only tenants that served requests).
  double tenant_p99_p50_ns = 0;
  double tenant_p99_p95_ns = 0;
  double tenant_p99_max_ns = 0;
  int vms_placed = 0;
  int vms_rejected = 0;  // still unplaced at the horizon
  int vms_departed = 0;
  uint64_t batch_chunks = 0;  // work completed by batch tenants
  uint64_t migrations = 0;
  int hosts_booted = 0;
  int hosts_shutdown = 0;
  int hosts_on_at_end = 0;
  double host_util_mean = 0;  // time-weighted mean utilization of On hosts
  double energy_j = 0;
  uint64_t fault_applied = 0;
  // Adversary/robustness aggregates (docs/ROBUSTNESS.md): attacker launches,
  // tenants whose degradation tracker ever transitioned, and the guest-side
  // containment counters summed at harvest. All zero on clean fleets and
  // whenever guests run without robust.enabled.
  uint64_t adversary_activations = 0;
  int degraded_tenants = 0;
  uint64_t pessimistic_publishes = 0;
  uint64_t quarantine_events = 0;
};

// One logical process of the sharded engine: a contiguous host range behind
// a private Simulation. Exactly one thread touches a cell during a run
// phase; the coordinator reads it only at barriers and posts to its `inbox`
// only while every cell is parked. `counters` is the cell's PerfCounters
// sink — installed via PerfCounters::Scope around construction and every run
// phase so the pointer components cache at construction is the cell's own,
// keeping tallies race-free at any shard count.
struct FleetCell {
  int id = 0;
  int first_host = 0;
  PerfCounters counters;
  std::unique_ptr<Simulation> sim;
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  // Actions the coordinator planned for this cell, applied by the cell at
  // their instants (see "Synchronization" above).
  ShardMailbox inbox;
};

class ShardedFleet {
 public:
  // `shards` is the worker-thread count (>= 1); 1 runs cells sequentially on
  // the calling thread. The cell partition comes from spec.cell_hosts and is
  // independent of `shards`. `guest_options` selects the per-guest scheduler
  // stack (Cfs vs Full — the head-to-head axis). `fault_plan` (may be null)
  // arms machine-level chaos on every fourth host, or one adversarial
  // co-tenant on every host for an adversary plan, with no VM bound.
  // `tickless` sets GuestParams::tickless and HostSchedParams::tickless for
  // every host and guest; `false` is only the ticking reference of the
  // TicklessTwin tests (tests/runner/tickless_twin_test.cc).
  ShardedFleet(FleetSpec spec, uint64_t seed, VSchedOptions guest_options, int shards,
               const FaultPlan* fault_plan = nullptr, bool tickless = true);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  // Runs the whole experiment: RunUntil(horizon), then Finish(). Call once.
  // Throws SimBudgetExceeded (deterministically, lowest cell id first) when a
  // per-cell event budget trips.
  void Run(TimeNs horizon);

  // Advances every cell to `deadline`, with barriers at the control ticks
  // on the way and at `deadline` itself. The first call draws the arrival
  // schedule and starts the fault injectors; later calls continue from the
  // previous deadline. Between calls every cell is quiesced, so host and
  // tenant state may be read. Stepping at any granularity gives the same
  // totals as one call to the final deadline.
  void RunUntil(TimeNs deadline);

  // Stops every live tenant, harvests its latency distribution, and freezes
  // totals(). Call once, after RunUntil.
  void Finish();

  const FleetTotals& totals() const { return totals_; }
  const FleetSpec& spec() const { return spec_; }
  TimeNs window() const { return window_; }
  int num_cells() const { return static_cast<int>(cells_.size()); }
  int shards() const { return shards_; }
  int hosts_on() const;
  const ClusterHost& host(int id) const;
  const TenantVm& tenant(int id) const { return *tenants_[static_cast<size_t>(id)]; }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  // Deterministic runaway-run watchdog, applied to each cell's Simulation.
  void SetEventBudgetPerCell(uint64_t budget);
  uint64_t events_dispatched() const;  // summed over cells

 private:
  friend struct AuditTestAccess;

  FleetCell* CellOfHost(int host_id);
  const FleetCell* CellOfHost(int host_id) const;
  ClusterHost* MutableHost(int host_id);
  int CapacityVcpus() const;
  std::vector<HostLoadView> LoadViews() const;
  TimeNs WindowCeil(TimeNs t) const;  // first point of the window grid >= t
  TimeNs NextControlTickAfter(TimeNs t) const;

  void ScheduleArrivals(TimeNs start);
  void BarrierPhase(TimeNs now);
  void RunCells(TimeNs barrier);
  void AuditBarrier(TimeNs now) const;

  // Coordinator: control-plane handlers. They plan cell effects as inbox
  // actions and never read simulated cell state.
  void OnVmArrival(int tenant_id, TimeNs now);
  bool TryPlace(TenantVm* tenant, TimeNs now);
  void PlacePending(TimeNs now);
  void BootHostsIfNeeded(TimeNs now);
  void OnBootComplete(int host_id, TimeNs now);
  void ControlTick(TimeNs now);
  void SampleEnergyAndUtil(TimeNs now);
  void MaybeConsolidate(TimeNs now);
  void OnMigrationDowntime(int tenant_id, TimeNs now);
  void OnMigrationCommit(int tenant_id, TimeNs now);
  void OnDepartureDue(int tenant_id, TimeNs now);
  void DoDepart(TenantVm* tenant, TimeNs now);
  void FoldHarvests();
  void FoldHarvest(const TenantHarvest& harvest);

  // Cell side: inbox actions, run by the owning cell at their instant.
  void BuildTenantStack(int tenant_id, int host_id, const std::vector<HwThreadId>& tids);
  void CommitMigration(int tenant_id, int src_host, const std::vector<HwThreadId>& src_tids,
                       int dst_host, const std::vector<HwThreadId>& dst_tids);
  void TearDownTenant(int tenant_id, int host_id, const std::vector<HwThreadId>& tids);
  static void StopApps(TenantVm* tenant);
  // Registers/unregisters a tenant's vCPUs on a host's threads and
  // re-applies the commit-driven bandwidth caps of every touched thread.
  void OccupyThreads(int tenant_id, ClusterHost* host, const std::vector<HwThreadId>& tids);
  void VacateThreads(int tenant_id, ClusterHost* host, const std::vector<HwThreadId>& tids);
  void ReshapeThread(ClusterHost* host, HwThreadId tid);

  FleetSpec spec_;
  VSchedOptions guest_options_;
  int shards_;
  TimeNs window_ = 0;
  Rng control_rng_;

  std::shared_ptr<const HostTopology> topology_;
  std::shared_ptr<const HostSchedParams> host_params_;
  std::shared_ptr<const GuestParams> guest_params_;
  std::unique_ptr<PlacementPolicy> placement_;

  // Cells before tenants_: tenants hold Vms whose vCPU threads detach from
  // cell-owned machines at destruction, so tenants must be destroyed first
  // (members die in reverse declaration order).
  std::vector<std::unique_ptr<FleetCell>> cells_;
  std::vector<std::unique_ptr<TenantVm>> tenants_;
  std::deque<int> pending_;  // arrived but unplaced tenant ids, FIFO
  std::vector<int> unfolded_departures_;  // departure order since the last fold
  ShardMailbox mailbox_;
  std::unique_ptr<ThreadPool> pool_;  // null when shards_ == 1

  TimeNs start_time_ = 0;
  TimeNs now_ = 0;  // the last barrier every cell has reached
  bool aborted_ = false;  // a run phase threw; unapplied actions were dropped
  TimeNs last_sample_ = 0;
  double util_integral_ = 0;     // sum over On hosts of util * dt
  double on_time_integral_ = 0;  // sum over On hosts of dt

  Distribution fleet_latency_;
  Distribution tenant_p99s_;
  FleetTotals totals_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace vsched

#endif  // SRC_CLUSTER_SHARDED_FLEET_H_
