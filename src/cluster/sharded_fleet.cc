#include "src/cluster/sharded_fleet.h"

#include <algorithm>
#include <numeric>
#include <utility>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/guest/guest_kernel.h"

namespace vsched {
namespace {

// Rotating first-fit reservation of `vcpus` hardware threads on one host;
// updates the host's commit bookkeeping.
std::vector<HwThreadId> ReserveHostThreads(const FleetSpec& spec, int num_threads,
                                           ClusterHost* host, int vcpus) {
  // Rotating first-fit: take consecutive threads starting at a per-host
  // cursor, skipping only threads already at the stacking ceiling. Real VMMs
  // place vCPU threads wherever they land, not commit-balanced — so VM
  // footprints overlap partially and a VM's vCPUs end up with *unequal*
  // co-runners (some share a thread with a busy neighbor, some run alone).
  // That intra-VM capacity/latency asymmetry is the paper's §2 regime, the
  // thing guest CFS cannot see and vSched's probers exist to discover.
  // Least-committed-first reservation would equalize stacking across a VM's
  // vCPUs and erase the asymmetry.
  int n = num_threads;
  int ceiling = 1;
  while (ceiling * n < static_cast<int>(spec.overcommit * n)) {
    ++ceiling;
  }
  std::vector<HwThreadId> tids;
  tids.reserve(static_cast<size_t>(vcpus));
  int cursor = host->reserve_cursor;
  for (int v = 0; v < vcpus; ++v) {
    // First pass honors the per-thread ceiling; if all threads are at it
    // (the host-level commit gate still admitted us), fall back to the
    // least-committed thread so reservation never fails.
    int picked = -1;
    // Avoid giving this VM two vCPUs on one hardware thread (self-stacking):
    // real VMMs pin a VM's vCPU threads to distinct pCPUs whenever they fit,
    // and self-stacked siblings would only halve each other.
    for (int pass = 0; pass < 2 && picked < 0; ++pass) {
      for (int step = 0; step < n; ++step) {
        int t = (cursor + step) % n;
        if (host->thread_commits[static_cast<size_t>(t)] >= ceiling) {
          continue;
        }
        if (pass == 0 && std::find(tids.begin(), tids.end(), t) != tids.end()) {
          continue;
        }
        picked = t;
        cursor = (t + 1) % n;
        break;
      }
    }
    if (picked < 0) {
      picked = 0;
      for (int t = 1; t < n; ++t) {
        if (host->thread_commits[static_cast<size_t>(t)] <
            host->thread_commits[static_cast<size_t>(picked)]) {
          picked = t;
        }
      }
    }
    host->thread_commits[static_cast<size_t>(picked)] += 1;
    tids.push_back(picked);
  }
  // Advance one extra slot so successive footprints interleave even when the
  // VM size divides the thread count (4-vCPU VMs on 8 threads would
  // otherwise tile into aligned, internally-uniform chunks).
  host->reserve_cursor = (cursor + 1) % n;
  host->committed_vcpus += vcpus;
  return tids;
}

// Returns the reserved commits; stamps idle_since = `now` when the host
// empties (the idle power-down clock).
void ReleaseHostCommits(ClusterHost* host, const std::vector<HwThreadId>& tids, TimeNs now) {
  for (HwThreadId tid : tids) {
    host->thread_commits[static_cast<size_t>(tid)] -= 1;
    VSCHED_CHECK(host->thread_commits[static_cast<size_t>(tid)] >= 0);
  }
  host->committed_vcpus -= static_cast<int>(tids.size());
  VSCHED_CHECK(host->committed_vcpus >= 0);
  if (host->committed_vcpus == 0) {
    host->idle_since = now;
  }
}

// vCPU commitments a host accepts: hardware threads x overcommit.
int FleetCapacityVcpus(const FleetSpec& spec, int num_threads) {
  return static_cast<int>(static_cast<double>(num_threads) * spec.overcommit);
}

// Hosts carrying machine-level chaos when a fault plan is armed: a
// deterministic quarter of the fleet, by global host id, so the set is
// identical however hosts are partitioned into cells.
bool FleetChaosHost(int host_id) { return host_id % 4 == 0; }

// Hosts that get a fault injector for `plan`: adversarial co-tenant plans
// (src/adversary/) put one attacker on EVERY host — the adversary-fleet
// protocol — while stochastic chaos keeps the quarter-fleet placement.
bool FleetInjectorHost(int host_id, const FaultPlan& plan) {
  if (plan.adversary.active()) {
    return true;  // one adversarial tenant per host
  }
  return FleetChaosHost(host_id);
}

// Runs one cell to `deadline`, applying its inbox on the way (see
// "Synchronization" in sharded_fleet.h).
void RunCell(FleetCell* cell, TimeNs deadline) {
  PerfCounters::Scope scope(&cell->counters);
  // Actions planned for the instant the cell already stands at (the
  // arrivals at t = 0, Finish's closing sample) apply before anything at
  // that instant runs.
  cell->inbox.DrainUpTo(cell->sim->now());
  while (cell->sim->now() < deadline) {
    TimeNs at = std::min(cell->inbox.next_due(), deadline);
    cell->sim->RunUntil(at);
    cell->inbox.DrainUpTo(at);
  }
}

TenantHarvest TakeHarvest(const TenantVm& tenant) {
  // Guest-side detection/containment counters are read while the tenant's
  // VSched is still alive; all zero unless robust.enabled.
  TenantHarvest harvest;
  if (tenant.vsched != nullptr) {
    harvest.pessimistic_publishes = tenant.vsched->pessimistic_publishes();
    if (tenant.vsched->vcap() != nullptr) {
      harvest.quarantine_events = static_cast<uint64_t>(tenant.vsched->vcap()->quarantine_events());
    }
    harvest.degraded = tenant.vsched->degradation().transitions() > 0;
  }
  if (tenant.batch_app != nullptr) {
    harvest.batch_chunks += tenant.batch_app->chunks_done();
  }
  if (tenant.bg_app != nullptr) {
    harvest.batch_chunks += tenant.bg_app->chunks_done();
  }
  if (tenant.app != nullptr) {
    harvest.latency = tenant.app->end_to_end();
  }
  return harvest;
}

}  // namespace

ShardedFleet::ShardedFleet(FleetSpec spec, uint64_t seed, VSchedOptions guest_options, int shards,
                           const FaultPlan* fault_plan, bool tickless)
    : spec_(std::move(spec)),
      guest_options_(guest_options),
      shards_(shards),
      control_rng_(0) {
  VSCHED_CHECK(spec_.hosts > 0 && spec_.vms > 0 && spec_.vcpus_per_vm > 0);
  VSCHED_CHECK(spec_.initial_hosts_on >= 1 && spec_.initial_hosts_on <= spec_.hosts);
  VSCHED_CHECK(spec_.cell_hosts > 0);
  VSCHED_CHECK(shards_ >= 1);

  // The control plane's clock resolution: the gcd of its latencies. Arrivals
  // and departures are quantized up to this grid and every delay is a
  // multiple of it, so every control-plane action lands on a grid point. A
  // spec whose latencies are mutually prime would grind the grid toward
  // nanoseconds; the floor catches that at construction.
  window_ = std::gcd(spec_.control_period, spec_.boot_delay);
  window_ = std::gcd(window_, spec_.migration_copy_latency);
  window_ = std::gcd(window_, spec_.migration_downtime);
  VSCHED_CHECK_MSG(window_ >= UsToNs(100),
                   "fleet control-plane latencies give a sub-100us control-plane grid");

  Rng root(seed);
  control_rng_ = root.Fork();

  topology_ = std::make_shared<const HostTopology>(spec_.host_topology);
  HostSchedParams host_params;
  host_params.min_granularity = spec_.host_min_granularity;
  host_params.wakeup_granularity = spec_.host_wakeup_granularity;
  host_params.tickless = tickless;
  host_params_ = std::make_shared<const HostSchedParams>(host_params);
  GuestParams guest_params;
  guest_params.tickless = tickless;
  guest_params_ = std::make_shared<const GuestParams>(guest_params);

  guest_options_.vcap.sampling_period = spec_.probe_window;
  guest_options_.vcap.light_interval = spec_.probe_interval;
  guest_options_.vcap.heavy_every = spec_.probe_heavy_every;
  guest_options_.vact.update_interval = spec_.probe_interval;
  guest_options_.rwc.straggler_ratio = spec_.rwc_straggler_ratio;

  // The cell partition is a pure function of the spec: contiguous
  // cell_hosts-sized ranges, never influenced by `shards`. Cell seeds are
  // drawn from the root stream in cell order, so every cell's RNG stream is
  // identical at any worker-thread count.
  int num_cells = (spec_.hosts + spec_.cell_hosts - 1) / spec_.cell_hosts;
  cells_.reserve(static_cast<size_t>(num_cells));
  for (int c = 0; c < num_cells; ++c) {
    uint64_t cell_seed = root.NextU64();
    auto cell = std::make_unique<FleetCell>();
    cell->id = c;
    cell->first_host = c * spec_.cell_hosts;
    // Everything a cell owns is constructed under the cell's counter scope:
    // the simulator components cache the thread's PerfCounters pointer at
    // construction, and binding them to the cell's own tally is what keeps
    // the plain-uint64 counters race-free when cells run on worker threads.
    PerfCounters::Scope scope(&cell->counters);
    cell->sim = std::make_unique<Simulation>(cell_seed);
    int last_host = std::min(spec_.hosts, cell->first_host + spec_.cell_hosts);
    for (int h = cell->first_host; h < last_host; ++h) {
      auto host = std::make_unique<ClusterHost>();
      host->id = h;
      host->machine = std::make_unique<HostMachine>(cell->sim.get(), topology_, host_params_);
      host->power = h < spec_.initial_hosts_on ? HostPower::kOn : HostPower::kOff;
      host->thread_commits.assign(static_cast<size_t>(topology_->num_threads()), 0);
      host->occupants.resize(static_cast<size_t>(topology_->num_threads()));
      cell->hosts.push_back(std::move(host));
    }
    if (fault_plan != nullptr && !fault_plan->Empty()) {
      for (auto& host : cell->hosts) {
        if (FleetInjectorHost(host->id, *fault_plan)) {
          // No VM is bound: bandwidth jitter and probe chaos stay off; steal
          // bursts, stressor storms, frequency droops, and adversarial
          // co-tenants hit the machine.
          cell->injectors.push_back(std::make_unique<FaultInjector>(
              cell->sim.get(), host->machine.get(), /*vm=*/nullptr, *fault_plan));
        }
      }
    }
    cells_.push_back(std::move(cell));
  }

  pool_ = MakePool(shards_, cells_.size());
}

ShardedFleet::~ShardedFleet() {
  if (started_ && !finished_) {
    // An aborted run (budget trip mid-run) still tears tenants down in
    // deterministic order and freezes totals.
    Finish();
  }
  if (pool_ != nullptr) {
    // The cells built their tenant stacks on the pool's threads, so that
    // memory sits in those threads' malloc arenas, which nothing allocates
    // from once the pool is gone. Free it here and hand it back, or a
    // process that goes on working after a sharded fleet keeps it resident.
    pool_.reset();
    tenants_.clear();
    cells_.clear();
#ifdef __GLIBC__
    malloc_trim(0);
#endif
  }
}

FleetCell* ShardedFleet::CellOfHost(int host_id) {
  return cells_[static_cast<size_t>(host_id / spec_.cell_hosts)].get();
}

const FleetCell* ShardedFleet::CellOfHost(int host_id) const {
  return cells_[static_cast<size_t>(host_id / spec_.cell_hosts)].get();
}

const ClusterHost& ShardedFleet::host(int id) const {
  const FleetCell* cell = CellOfHost(id);
  return *cell->hosts[static_cast<size_t>(id - cell->first_host)];
}

ClusterHost* ShardedFleet::MutableHost(int host_id) {
  FleetCell* cell = CellOfHost(host_id);
  return cell->hosts[static_cast<size_t>(host_id - cell->first_host)].get();
}

int ShardedFleet::CapacityVcpus() const {
  return FleetCapacityVcpus(spec_, topology_->num_threads());
}

int ShardedFleet::hosts_on() const {
  int on = 0;
  for (const auto& cell : cells_) {
    for (const auto& host : cell->hosts) {
      if (host->power != HostPower::kOff) {
        ++on;
      }
    }
  }
  return on;
}

std::vector<HostLoadView> ShardedFleet::LoadViews() const {
  // Global host-id order (cell-major), so placement sees the same candidate
  // sequence however the hosts are partitioned into cells.
  std::vector<HostLoadView> views;
  views.reserve(static_cast<size_t>(spec_.hosts));
  int capacity = CapacityVcpus();
  for (const auto& cell : cells_) {
    for (const auto& host : cell->hosts) {
      HostLoadView view;
      view.host_id = host->id;
      view.accepts_vms = host->power == HostPower::kOn;
      view.committed_vcpus = host->committed_vcpus;
      view.capacity_vcpus = capacity;
      views.push_back(view);
    }
  }
  return views;
}

TimeNs ShardedFleet::WindowCeil(TimeNs t) const {
  return ((t + window_ - 1) / window_) * window_;
}

TimeNs ShardedFleet::NextControlTickAfter(TimeNs t) const {
  return start_time_ + ((t - start_time_) / spec_.control_period + 1) * spec_.control_period;
}

void ShardedFleet::SetEventBudgetPerCell(uint64_t budget) {
  for (auto& cell : cells_) {
    cell->sim->SetEventBudget(budget);
  }
}

uint64_t ShardedFleet::events_dispatched() const {
  uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->sim->events_dispatched();
  }
  return total;
}

void ShardedFleet::ScheduleArrivals(TimeNs start) {
  // The whole Poisson schedule is drawn up front from the control stream in
  // tenant-id order, then posted through the mailbox. Arrival instants are
  // quantized up to the window grid — the placement decision rides the
  // control-plane RPC, and the grid *is* the control plane's clock
  // resolution.
  double mean_gap = static_cast<double>(spec_.arrival_window) / static_cast<double>(spec_.vms);
  TimeNs at = start;
  for (int i = 0; i < spec_.vms; ++i) {
    at += static_cast<TimeNs>(control_rng_.Exponential(mean_gap));
    auto tenant = std::make_unique<TenantVm>();
    tenant->id = i;
    tenant->name = "t" + std::to_string(i);
    tenant->batch = spec_.batch_every > 0 && i % spec_.batch_every == 0;
    if (spec_.vm_lifetime_mean > 0) {
      tenant->departs_at =
          at + static_cast<TimeNs>(control_rng_.Exponential(static_cast<double>(spec_.vm_lifetime_mean)));
    }
    tenants_.push_back(std::move(tenant));
    TimeNs due = WindowCeil(at);
    mailbox_.Post(due, [this, i, due] { OnVmArrival(i, due); });
  }
}

void ShardedFleet::Run(TimeNs horizon) {
  RunUntil(horizon);
  Finish();
}

void ShardedFleet::RunUntil(TimeNs deadline) {
  VSCHED_CHECK_MSG(!finished_ && !aborted_, "ShardedFleet::RunUntil after Finish or an abort");
  if (!started_) {
    started_ = true;
    start_time_ = 0;
    now_ = start_time_;
    last_sample_ = start_time_;
    for (auto& cell : cells_) {
      for (auto& host : cell->hosts) {
        host->idle_since = start_time_;
      }
      PerfCounters::Scope scope(&cell->counters);
      for (auto& injector : cell->injectors) {
        injector->Start();
      }
    }
    ScheduleArrivals(start_time_);
  } else if (deadline <= now_) {
    return;
  }

  // Plan the whole stretch (now_, deadline] on the coordinator: each control
  // tick after the mailbox messages due by its instant, then the rest of the
  // stretch. Every cell effect, the ticks' samples included, becomes an
  // inbox action; nothing here reads a cell.
  for (TimeNs tick = NextControlTickAfter(now_); tick <= deadline;
       tick += spec_.control_period) {
    mailbox_.DrainUpTo(tick);
    ControlTick(tick);
    if (audit::Enabled()) {
      AuditCommits();
    }
  }
  mailbox_.DrainUpTo(deadline);
  // Apply it: every cell runs once, to the deadline.
  RunCells(deadline);
  now_ = deadline;
  FoldSamples();
  FoldHarvests();
  if (audit::Enabled()) {
    AuditCommits();
    AuditCells(now_);
  }
}

void ShardedFleet::RunCells(TimeNs deadline) {
  // Every cell advances, even on error: a SimBudgetExceeded mid-run must not
  // leave sibling cells short of the deadline (teardown assumes quiesced
  // cells). RunEach rethrows the *lowest-id* failure, making the propagated
  // error independent of worker scheduling; the failed cell's unapplied
  // actions are dropped with it.
  try {
    RunEach(pool_.get(), cells_.size(),
            [this, deadline](size_t c) { RunCell(cells_[c].get(), deadline); });
  } catch (...) {
    aborted_ = true;
    throw;
  }
}

void ShardedFleet::AuditCommits() const {
  for (const auto& cell : cells_) {
    for (const auto& host : cell->hosts) {
      int commits = std::accumulate(host->thread_commits.begin(), host->thread_commits.end(), 0);
      VSCHED_AUDIT_CHECK(host->committed_vcpus == commits,
                         "host committed_vcpus disagrees with its thread commits");
    }
  }
}

void ShardedFleet::AuditCells(TimeNs now) const {
  VSCHED_AUDIT_CHECK(mailbox_.next_due() > now,
                     "mailbox message due at or before the deadline was never planned");
  for (const auto& cell : cells_) {
    VSCHED_AUDIT_CHECK(cell->sim->now() == now, "cell clock is not at the deadline");
    VSCHED_AUDIT_CHECK(cell->inbox.next_due() > now,
                       "cell inbox holds an action due at or before the deadline");
    for (const auto& host : cell->hosts) {
      for (size_t t = 0; t < host->occupants.size(); ++t) {
        VSCHED_AUDIT_CHECK(
            static_cast<int>(host->occupants[t].size()) <= host->thread_commits[t],
            "hardware thread has more occupants than commits");
      }
    }
  }
}

void ShardedFleet::OnVmArrival(int tenant_id, TimeNs now) {
  TenantVm* tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  if (!TryPlace(tenant, now)) {
    pending_.push_back(tenant_id);
    BootHostsIfNeeded(now);
  }
}

bool ShardedFleet::TryPlace(TenantVm* tenant, TimeNs now) {
  int host_id = PickLeastLoaded(LoadViews(), spec_.vcpus_per_vm);
  if (host_id < 0) {
    return false;
  }
  tenant->host_id = host_id;
  tenant->tids =
      ReserveHostThreads(spec_, topology_->num_threads(), MutableHost(host_id), spec_.vcpus_per_vm);
  int id = tenant->id;
  std::vector<HwThreadId> tids = tenant->tids;
  CellOfHost(host_id)->inbox.Post(now, [this, id, host_id, tids] {
    BuildTenantStack(id, host_id, tids);
  });

  tenant->placed = true;
  totals_.vms_placed += 1;
  if (tenant->departs_at > 0) {
    TimeNs due = std::max(WindowCeil(tenant->departs_at), now + window_);
    mailbox_.Post(due, [this, id, due] { OnDepartureDue(id, due); });
  }
  return true;
}

void ShardedFleet::BuildTenantStack(int tenant_id, int host_id,
                                    const std::vector<HwThreadId>& tids) {
  // The tenant's whole simulation stack lives in the owning cell: built
  // against the cell's Simulation, under the cell's counter scope (hot-path
  // components cache the counters pointer at construction).
  TenantVm* tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  ClusterHost* host = MutableHost(host_id);
  VmSpec vm_spec;
  vm_spec.name = tenant->name;
  vm_spec.guest_params = guest_params_;  // one shared snapshot fleet-wide
  for (HwThreadId tid : tids) {
    VcpuPlacement p;
    p.tid = tid;
    vm_spec.vcpus.push_back(p);
  }
  tenant->vm =
      std::make_unique<Vm>(CellOfHost(host_id)->sim.get(), host->machine.get(), std::move(vm_spec));
  OccupyThreads(tenant_id, host, tids);
  tenant->vsched = std::make_unique<VSched>(&tenant->vm->kernel(), guest_options_);
  tenant->vsched->Start();

  if (tenant->batch) {
    TaskParallelParams bp;
    bp.name = tenant->name + "/batch";
    bp.threads = spec_.vcpus_per_vm;
    bp.chunk_mean = MsToNs(2);
    tenant->batch_app = std::make_unique<TaskParallelApp>(&tenant->vm->kernel(), bp);
    tenant->batch_app->Start();
  } else {
    LatencyAppParams app;
    app.name = tenant->name + "/app";
    app.workers = spec_.vcpus_per_vm;
    app.arrival_rate_per_sec =
        spec_.requests_per_sec_per_vcpu * static_cast<double>(spec_.vcpus_per_vm);
    app.service_mean = spec_.service_mean;
    app.service_cv = spec_.service_cv;
    tenant->app = std::make_unique<LatencyApp>(&tenant->vm->kernel(), app);
    tenant->app->Start();
    if (spec_.background_tasks_per_vm > 0) {
      // Best-effort work co-located inside the service VM (the paper's §2
      // restricted-capacity regime). SCHED_IDLE yields instantly to the
      // latency workers *in the guest*, but the spinning keeps draining the
      // host bandwidth quota, so vCPUs go inactive in a way guest CFS
      // cannot observe at wakeup-placement time — vact can.
      TaskParallelParams bg;
      bg.name = tenant->name + "/bg";
      bg.threads = spec_.background_tasks_per_vm;
      bg.chunk_mean = MsToNs(10);
      bg.policy = TaskPolicy::kIdle;
      tenant->bg_app = std::make_unique<TaskParallelApp>(&tenant->vm->kernel(), bg);
      tenant->bg_app->Start();
    }
  }
}

void ShardedFleet::PlacePending(TimeNs now) {
  while (!pending_.empty()) {
    TenantVm* tenant = tenants_[static_cast<size_t>(pending_.front())].get();
    if (!TryPlace(tenant, now)) {
      break;  // FIFO: nothing smaller jumps the queue
    }
    pending_.pop_front();
  }
}

void ShardedFleet::BootHostsIfNeeded(TimeNs now) {
  // Reactive provisioning: boot Off hosts (lowest id first) until the
  // committed capacity of On + Booting hosts covers the pending demand.
  int need = static_cast<int>(pending_.size()) * spec_.vcpus_per_vm;
  if (need == 0) {
    return;
  }
  int capacity = CapacityVcpus();
  int free_commits = 0;
  for (const auto& cell : cells_) {
    for (const auto& host : cell->hosts) {
      if (host->power != HostPower::kOff) {
        free_commits += capacity - host->committed_vcpus;
      }
    }
  }
  for (auto& cell : cells_) {
    for (auto& host : cell->hosts) {
      if (free_commits >= need) {
        return;
      }
      if (host->power != HostPower::kOff) {
        continue;
      }
      host->power = HostPower::kBooting;
      totals_.hosts_booted += 1;
      free_commits += capacity;
      int id = host->id;
      TimeNs due = now + spec_.boot_delay;  // boot_delay is a multiple of the window
      mailbox_.Post(due, [this, id, due] { OnBootComplete(id, due); });
    }
  }
}

void ShardedFleet::OnBootComplete(int host_id, TimeNs now) {
  ClusterHost* host = MutableHost(host_id);
  VSCHED_CHECK(host->power == HostPower::kBooting);
  host->power = HostPower::kOn;
  host->idle_since = now;
  PlacePending(now);
}

void ShardedFleet::ControlTick(TimeNs now) {
  PlanSample(now);
  PlacePending(now);
  BootHostsIfNeeded(now);
  MaybeConsolidate(now);

  // Idle power-down: an On host with no commitments for idle_shutdown_after
  // powers off, as long as min_hosts_on powered hosts remain.
  int on = hosts_on();
  for (auto& cell : cells_) {
    for (auto& host : cell->hosts) {
      if (on <= spec_.min_hosts_on) {
        return;
      }
      if (host->power == HostPower::kOn && host->committed_vcpus == 0 &&
          now - host->idle_since >= spec_.idle_shutdown_after) {
        host->power = HostPower::kOff;
        totals_.hosts_shutdown += 1;
        on -= 1;
      }
    }
  }
}

void ShardedFleet::PlanSample(TimeNs now) {
  // The energy/utilization sample has a coordinator half, each host's power
  // state, recorded here before the tick's placements, boots and
  // power-downs, and a simulated half, each host's busy threads. The latter
  // is an action every cell applies at `now`, after the actions planned for
  // `now` so far and before the tick's own: what stopping every cell at `now`
  // would have read. FoldSamples combines the halves once the cells have run.
  TimeNs dt = now - last_sample_;
  last_sample_ = now;
  if (dt <= 0) {
    return;
  }
  PlannedSample sample;
  sample.dt = dt;
  sample.power.reserve(static_cast<size_t>(spec_.hosts));
  for (const auto& cell : cells_) {
    for (const auto& host : cell->hosts) {
      sample.power.push_back(host->power);
    }
  }
  samples_.push_back(std::move(sample));
  for (int c = 0; c < num_cells(); ++c) {
    cells_[static_cast<size_t>(c)]->inbox.Post(now, [this, c] { CountBusyThreads(c); });
  }
}

void ShardedFleet::CountBusyThreads(int cell_id) {
  FleetCell* cell = cells_[static_cast<size_t>(cell_id)].get();
  int threads = topology_->num_threads();
  for (const auto& host : cell->hosts) {
    int busy = 0;
    for (int t = 0; t < threads; ++t) {
      if (host->machine->sched(t).busy()) {
        ++busy;
      }
    }
    cell->busy_threads.push_back(busy);
  }
}

void ShardedFleet::FoldSamples() {
  // Sample order, then global host order: fixed, so the floating-point sums
  // are bit-stable at any shard count and any RunUntil stepping.
  int threads = topology_->num_threads();
  for (const auto& cell : cells_) {
    VSCHED_CHECK(cell->busy_threads.size() == samples_.size() * cell->hosts.size());
  }
  for (size_t k = 0; k < samples_.size(); ++k) {
    const PlannedSample& sample = samples_[k];
    double dt_sec = static_cast<double>(sample.dt) / 1e9;
    for (auto& cell : cells_) {
      for (size_t i = 0; i < cell->hosts.size(); ++i) {
        ClusterHost* host = cell->hosts[i].get();
        HostPower power = sample.power[static_cast<size_t>(host->id)];
        double watts = spec_.off_watts;
        if (power == HostPower::kBooting) {
          watts = spec_.booting_watts;
        } else if (power == HostPower::kOn) {
          int busy = cell->busy_threads[k * cell->hosts.size() + i];
          double util = static_cast<double>(busy) / static_cast<double>(threads);
          watts = spec_.idle_watts + (spec_.busy_watts - spec_.idle_watts) * util;
          util_integral_ += util * dt_sec;
          on_time_integral_ += dt_sec;
        }
        host->energy_j += watts * dt_sec;
      }
    }
  }
  samples_.clear();
  for (auto& cell : cells_) {
    cell->busy_threads.clear();
  }
}

void ShardedFleet::MaybeConsolidate(TimeNs now) {
  // Drain the least-committed On host whose load ratio sits in
  // (0, consolidate_below]: live-migrate its lowest-id tenant to a strictly
  // busier host. One migration start per tick keeps the churn bounded and
  // the event trace easy to audit. Source selection scans the whole fleet;
  // the destination is confined to the source's *cell*. The cell is the
  // migration domain (rack locality): a live-migrating VM's pending events
  // and timers stay inside one cell Simulation, which is what makes the
  // downtime and commit phases actions of a single cell instead of a
  // cross-queue event transplant.
  int capacity = CapacityVcpus();
  ClusterHost* source = nullptr;
  double source_load = 0;
  for (auto& cell : cells_) {
    for (auto& host : cell->hosts) {
      if (host->power != HostPower::kOn || host->committed_vcpus == 0) {
        continue;
      }
      double load = static_cast<double>(host->committed_vcpus) / static_cast<double>(capacity);
      if (load > spec_.consolidate_below) {
        continue;
      }
      if (source == nullptr || load < source_load) {
        source = host.get();
        source_load = load;
      }
    }
  }
  if (source == nullptr) {
    return;
  }
  TenantVm* mover = nullptr;
  for (auto& tenant : tenants_) {
    if (tenant->placed && !tenant->departed && !tenant->migrating &&
        tenant->host_id == source->id) {
      mover = tenant.get();
      break;
    }
  }
  if (mover == nullptr) {
    return;  // everything on the host is already in flight
  }
  // Best-fit within the source's cell: the most-committed On host that still
  // fits the VM, independent of arrival placement. Asking the spreading
  // PickLeastLoaded here is self-defeating: it returns the *least*
  // committed host, which is never strictly busier than a drain source, so
  // consolidation silently never fires (a rack-preset benchmark once sat at
  // zero migrations for exactly this reason).
  FleetCell* cell = CellOfHost(source->id);
  ClusterHost* dest = nullptr;
  for (auto& host : cell->hosts) {
    if (host->power != HostPower::kOn || host->id == source->id) {
      continue;
    }
    if (host->committed_vcpus + spec_.vcpus_per_vm > capacity) {
      continue;
    }
    if (dest == nullptr || host->committed_vcpus > dest->committed_vcpus) {
      dest = host.get();
    }
  }
  if (dest == nullptr || dest->committed_vcpus <= source->committed_vcpus) {
    return;  // only drain toward busier hosts, or two near-idle hosts ping-pong
  }
  mover->migrating = true;
  mover->mig_dest_host = dest->id;
  mover->mig_dest_tids = ReserveHostThreads(spec_, topology_->num_threads(), dest, spec_.vcpus_per_vm);
  int id = mover->id;
  // Pre-copy phase: the VM keeps running on the source for the copy latency.
  TimeNs due = now + spec_.migration_copy_latency;  // a multiple of the window
  mailbox_.Post(due, [this, id, due] { OnMigrationDowntime(id, due); });
}

void ShardedFleet::OnMigrationDowntime(int tenant_id, TimeNs now) {
  TenantVm* tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  VSCHED_CHECK(tenant->migrating);
  if (tenant->depart_pending) {
    // The tenant's lifetime ended during the copy: abort the migration.
    ReleaseHostCommits(MutableHost(tenant->mig_dest_host), tenant->mig_dest_tids, now);
    tenant->migrating = false;
    tenant->mig_dest_host = -1;
    tenant->mig_dest_tids.clear();
    DoDepart(tenant, now);
    return;
  }
  // Downtime blackout: paused vCPUs stay attached (guest sees steal).
  CellOfHost(tenant->host_id)->inbox.Post(now, [this, tenant_id] {
    tenants_[static_cast<size_t>(tenant_id)]->vm->SetPausedAll(true);
  });
  TimeNs due = now + spec_.migration_downtime;
  mailbox_.Post(due, [this, tenant_id, due] { OnMigrationCommit(tenant_id, due); });
}

void ShardedFleet::OnMigrationCommit(int tenant_id, TimeNs now) {
  TenantVm* tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  VSCHED_CHECK(tenant->migrating);
  int src = tenant->host_id;
  int dst = tenant->mig_dest_host;
  VSCHED_CHECK(CellOfHost(dst) == CellOfHost(src));  // cell == migration domain
  std::vector<HwThreadId> src_tids = tenant->tids;
  std::vector<HwThreadId> dst_tids = tenant->mig_dest_tids;
  CellOfHost(src)->inbox.Post(now, [this, tenant_id, src, src_tids, dst, dst_tids] {
    CommitMigration(tenant_id, src, src_tids, dst, dst_tids);
  });
  ReleaseHostCommits(MutableHost(src), tenant->tids, now);
  tenant->host_id = dst;
  tenant->tids = std::move(tenant->mig_dest_tids);
  tenant->mig_dest_host = -1;
  tenant->mig_dest_tids.clear();
  tenant->migrating = false;
  totals_.migrations += 1;
  if (tenant->depart_pending) {
    DoDepart(tenant, now);
  }
}

void ShardedFleet::CommitMigration(int tenant_id, int src_host,
                                   const std::vector<HwThreadId>& src_tids, int dst_host,
                                   const std::vector<HwThreadId>& dst_tids) {
  Vm* vm = tenants_[static_cast<size_t>(tenant_id)]->vm.get();
  ClusterHost* dest = MutableHost(dst_host);
  VacateThreads(tenant_id, MutableHost(src_host), src_tids);  // source neighbors' caps relax
  vm->MigrateToMachine(dest->machine.get(), dst_tids);
  vm->SetPausedAll(false);
  OccupyThreads(tenant_id, dest, dst_tids);  // dest caps tighten around the newcomer
}

void ShardedFleet::OnDepartureDue(int tenant_id, TimeNs now) {
  TenantVm* tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  if (tenant->departed) {
    return;
  }
  if (tenant->migrating) {
    tenant->depart_pending = true;  // the commit handler finishes the job
    return;
  }
  DoDepart(tenant, now);
}

void ShardedFleet::DoDepart(TenantVm* tenant, TimeNs now) {
  VSCHED_CHECK(tenant->placed && !tenant->departed && !tenant->migrating);
  int id = tenant->id;
  int host_id = tenant->host_id;
  std::vector<HwThreadId> tids = tenant->tids;
  CellOfHost(host_id)->inbox.Post(now,
                                  [this, id, host_id, tids] { TearDownTenant(id, host_id, tids); });
  ReleaseHostCommits(MutableHost(host_id), tenant->tids, now);
  tenant->departed = true;
  totals_.vms_departed += 1;
  unfolded_departures_.push_back(id);
}

void ShardedFleet::TearDownTenant(int tenant_id, int host_id,
                                  const std::vector<HwThreadId>& tids) {
  TenantVm* tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  tenant->harvest = TakeHarvest(*tenant);
  StopApps(tenant);
  tenant->vsched->Stop();
  tenant->vsched.reset();
  // Neighbors' caps relax before the VM detaches its vCPU threads.
  VacateThreads(tenant_id, MutableHost(host_id), tids);
  tenant->vm.reset();
}

void ShardedFleet::FoldHarvests() {
  // Departure order, which is the order the coordinator planned them in.
  for (int id : unfolded_departures_) {
    TenantVm* tenant = tenants_[static_cast<size_t>(id)].get();
    if (!tenant->harvest.has_value()) {
      VSCHED_CHECK_MSG(aborted_, "departed tenant was never harvested");
      continue;  // its cell failed before the departure action ran
    }
    FoldHarvest(*tenant->harvest);
    tenant->harvest.reset();
  }
  unfolded_departures_.clear();
}

void ShardedFleet::FoldHarvest(const TenantHarvest& harvest) {
  // Each tenant is folded exactly once, at departure or at Finish. Integer
  // sums are merge-order neutral; the distributions merge in the fixed
  // order of the calls (departures, then live tenants by id).
  totals_.pessimistic_publishes += harvest.pessimistic_publishes;
  totals_.quarantine_events += harvest.quarantine_events;
  if (harvest.degraded) {
    totals_.degraded_tenants += 1;
  }
  totals_.batch_chunks += harvest.batch_chunks;
  const Distribution& latency = harvest.latency;
  fleet_latency_.MergeFrom(latency);
  totals_.slo_violations += latency.CountAbove(static_cast<double>(spec_.slo_latency));
  totals_.requests += static_cast<uint64_t>(latency.count());
  if (latency.count() > 0) {
    tenant_p99s_.Add(latency.P99());
  }
}

void ShardedFleet::StopApps(TenantVm* tenant) {
  if (tenant->app != nullptr) {
    tenant->app->Stop();
    tenant->app.reset();
  }
  if (tenant->batch_app != nullptr) {
    tenant->batch_app->Stop();
    tenant->batch_app.reset();
  }
  if (tenant->bg_app != nullptr) {
    tenant->bg_app->Stop();
    tenant->bg_app.reset();
  }
}

void ShardedFleet::OccupyThreads(int tenant_id, ClusterHost* host,
                                 const std::vector<HwThreadId>& tids) {
  for (size_t v = 0; v < tids.size(); ++v) {
    host->occupants[static_cast<size_t>(tids[v])].emplace_back(tenant_id, static_cast<int>(v));
  }
  for (HwThreadId tid : tids) {
    ReshapeThread(host, tid);
  }
}

void ShardedFleet::VacateThreads(int tenant_id, ClusterHost* host,
                                 const std::vector<HwThreadId>& tids) {
  for (HwThreadId tid : tids) {
    auto& occ = host->occupants[static_cast<size_t>(tid)];
    for (auto it = occ.begin(); it != occ.end(); ++it) {
      if (it->first == tenant_id) {
        occ.erase(it);
        break;
      }
    }
  }
  for (HwThreadId tid : tids) {
    ReshapeThread(host, tid);
  }
}

void ShardedFleet::ReshapeThread(ClusterHost* host, HwThreadId tid) {
  // During Finish() teardown neighbor VMs are being destroyed in id order;
  // caps no longer matter and the occupant list must not be dereferenced.
  if (spec_.cap_period <= 0 || finished_) {
    return;
  }
  auto& occ = host->occupants[static_cast<size_t>(tid)];
  int k = static_cast<int>(occ.size());
  for (const auto& [tenant_id, vcpu] : occ) {
    Vm* vm = tenants_[static_cast<size_t>(tenant_id)]->vm.get();
    if (k <= 1) {
      vm->ClearVcpuBandwidth(vcpu);
    } else {
      vm->SetVcpuBandwidth(vcpu, spec_.cap_period / k, spec_.cap_period);
    }
  }
}

void ShardedFleet::Finish() {
  VSCHED_CHECK_MSG(started_, "ShardedFleet::Finish before RunUntil");
  if (finished_) {
    return;
  }
  finished_ = true;
  FoldHarvests();  // non-empty only after an aborted run
  if (!aborted_) {
    // The closing sample takes a tick's path: each cell applies it where it
    // stands. An aborted run has no consistent instant to sample.
    PlanSample(now_);
    RunCells(now_);
    FoldSamples();
  }
  for (auto& cell : cells_) {
    PerfCounters::Scope scope(&cell->counters);
    for (auto& injector : cell->injectors) {
      injector->Stop();
      totals_.fault_applied += injector->stats().total_applied();
      totals_.adversary_activations += injector->adversary_activations();
    }
  }
  // Live-tenant teardown and harvest in tenant-id order: the merge order
  // into the fleet-wide distributions is part of the deterministic-output
  // contract. A tenant's stack is live exactly when its placement was
  // applied and its departure was not — after an aborted run that
  // can differ from the coordinator's flags, which is why the stack itself
  // decides.
  for (auto& tenant : tenants_) {
    if (tenant->vm != nullptr) {
      PerfCounters::Scope scope(&CellOfHost(tenant->host_id)->counters);
      FoldHarvest(TakeHarvest(*tenant));
      StopApps(tenant.get());
      tenant->vsched->Stop();
      tenant->vsched.reset();
      tenant->vm.reset();
    }
    if (tenant->placed && !tenant->departed) {
      ReleaseHostCommits(MutableHost(tenant->host_id), tenant->tids, now_);
    }
  }
  totals_.vms_rejected = static_cast<int>(pending_.size());

  totals_.fleet_p50_ns = fleet_latency_.P50();
  totals_.fleet_p95_ns = fleet_latency_.P95();
  totals_.fleet_p99_ns = fleet_latency_.P99();
  totals_.fleet_mean_ns = fleet_latency_.Mean();
  totals_.tenant_p99_p50_ns = tenant_p99s_.P50();
  totals_.tenant_p99_p95_ns = tenant_p99s_.P95();
  totals_.tenant_p99_max_ns = tenant_p99s_.Max();
  totals_.hosts_on_at_end = hosts_on();
  totals_.host_util_mean = on_time_integral_ > 0 ? util_integral_ / on_time_integral_ : 0;
  double energy = 0;
  for (const auto& cell : cells_) {
    for (const auto& host : cell->hosts) {
      energy += host->energy_j;
    }
  }
  totals_.energy_j = energy;

  // Fold per-cell hot-path tallies into the run's ambient sink (cell order)
  // so `vsched_run --timings` aggregates a fleet like any other run.
  for (const auto& cell : cells_) {
    PerfCounters::Current()->MergeFrom(cell->counters);
  }
}

}  // namespace vsched
