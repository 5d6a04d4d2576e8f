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
// it owns a private Simulation (event queue, timer wheel, RNG stream) plus
// every entity pinned to its hosts — VM stacks, probes, workload apps, fault
// injectors. A cell is also the migration domain: consolidation drains VMs
// within a cell only (rack locality), which is what keeps a live-migrating
// VM's pending timers inside one event queue. The partition is a function of
// the spec alone — never of --shards — so the simulated behaviour cannot
// depend on the worker-thread count.
//
// Synchronization. Time advances in lookahead windows of
// W = gcd(control_period, boot_delay, migration_copy_latency,
// migration_downtime): the conservative PDES bound, since no control-plane
// interaction takes effect in less than W and every control-plane delay is a
// multiple of W. Within a window (T, T+W] each cell advances its Simulation
// independently — worker threads from the runner's pool when --shards > 1,
// in cell order on the caller's thread otherwise. At each barrier T all
// cells are quiesced at exactly now() == T and the single-threaded
// coordinator runs: it drains the ShardMailbox in canonical
// (due, origin, seq) order (arrivals, boot completions, migration phases,
// departures), then on the control cadence reads host state directly —
// safe, because nothing is running — for telemetry, provisioning, and
// consolidation decisions whose delayed effects are posted back through the
// mailbox.
//
// Determinism. A (FleetSpec, seed, options) triple replays byte-identically,
// and the JSONL a fleet run emits is byte-identical for every --shards value
// (the vsched_run_fleet_sharded ctest), the same guarantee class as the
// runner's --jobs: the coordinator is sequential, the mailbox order is
// canonical, cells share no mutable state inside a window, and per-cell
// PerfCounters keep even the hot-path tallies race-free (merged in cell
// order at Finish).
//
// See docs/PERF.md ("Sharded fleet execution") for the lookahead derivation
// and docs/CLUSTER.md for the operator view.
#ifndef SRC_CLUSTER_SHARDED_FLEET_H_
#define SRC_CLUSTER_SHARDED_FLEET_H_

#include <deque>
#include <memory>
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

// One tenant: the per-VM simulation stack plus its lifecycle bookkeeping.
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
// a private Simulation. Exactly one thread touches a cell inside any window;
// the coordinator touches it only at barriers. `counters` is the cell's
// PerfCounters sink — installed via PerfCounters::Scope around construction
// and every window so the pointer components cache at construction is the
// cell's own, keeping tallies race-free at any shard count.
struct FleetCell {
  int id = 0;
  int first_host = 0;
  PerfCounters counters;
  std::unique_ptr<Simulation> sim;
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
};

class ShardedFleet {
 public:
  // `shards` is the worker-thread count (>= 1); 1 runs cells sequentially on
  // the calling thread. The cell partition comes from spec.cell_hosts and is
  // independent of `shards`. `guest_options` selects the per-guest scheduler
  // stack (Cfs vs Full — the head-to-head axis). `fault_plan` (may be null)
  // arms machine-level chaos on every fourth host, or one adversarial
  // co-tenant on every host for an adversary plan, with no VM bound.
  ShardedFleet(FleetSpec spec, uint64_t seed, VSchedOptions guest_options, int shards,
               const FaultPlan* fault_plan = nullptr, bool tickless = false);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  // Runs the whole experiment: RunUntil(horizon), then Finish(). Call once.
  // Throws SimBudgetExceeded (deterministically, lowest cell id first) when a
  // per-cell event budget trips.
  void Run(TimeNs horizon);

  // Advances every cell to `deadline` and runs the barrier there. The first
  // call draws the arrival schedule and starts the fault injectors; later
  // calls continue from the previous deadline. Between calls every cell is
  // quiesced, so host and tenant state may be read. Stepping on the window
  // grid gives the same totals as one call to the final deadline.
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
  FleetCell* CellOfHost(int host_id);
  const FleetCell* CellOfHost(int host_id) const;
  int CapacityVcpus() const;
  std::vector<HostLoadView> LoadViews() const;
  TimeNs NextBarrierAtOrAfter(TimeNs t) const;

  void ScheduleArrivals(TimeNs start);
  void BarrierPhase(TimeNs now);
  void RunCellsUntil(TimeNs deadline);

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
  void HarvestStats(TenantVm* tenant);
  void StopApps(TenantVm* tenant);
  // Registers/unregisters a placed tenant's vCPUs on its host's threads and
  // re-applies the commit-driven bandwidth caps of every touched thread.
  void OccupyThreads(TenantVm* tenant);
  void VacateThreads(TenantVm* tenant);
  void ReshapeThread(ClusterHost* host, HwThreadId tid);

  FleetSpec spec_;
  VSchedOptions guest_options_;
  bool tickless_;
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
  ShardMailbox mailbox_;
  std::unique_ptr<ThreadPool> pool_;  // null when shards_ == 1

  TimeNs start_time_ = 0;
  TimeNs now_ = 0;  // the last barrier every cell has reached
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
