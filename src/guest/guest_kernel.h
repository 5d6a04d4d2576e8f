// The guest OS scheduler: a CFS-compatible kernel for one VM.
//
// Implements the Linux mechanisms vSched builds on (§2.2): per-vCPU
// runqueues with vruntime fairness and SCHED_IDLE subordination, PELT,
// wake-up CPU selection over schedule domains, periodic/idle load balancing,
// misfit active balance, steal-aware CFS capacity estimation, cgroup-cpuset
// banning, and scheduler-tick hooks. vSched (src/core) attaches to the hook
// points exactly where the paper inserts BPF hooks and its kernel module.
#ifndef SRC_GUEST_GUEST_KERNEL_H_
#define SRC_GUEST_GUEST_KERNEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/audit.h"
#include "src/base/time.h"
#include "src/guest/cpumask.h"
#include "src/guest/guest_topology.h"
#include "src/guest/guest_vcpu.h"
#include "src/guest/task.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/stats/stats.h"

namespace vsched {

class FaultInjector;
class HostMachine;
class Simulation;
class VcpuThread;

// Hears every change of whether a task runs on a vCPU: the vCPU was
// scheduled in or out at the host, or its current task changed. The vtop
// pair probe accounts prober co-activity between these changes instead of
// polling it.
class RunChangeWatcher {
 public:
  virtual ~RunChangeWatcher() = default;
  virtual void OnRunChange(int cpu) = 0;
};

struct GuestParams {
  // Pick policy: CFS (default) or EEVDF — demonstrates vSched's claim of
  // portability across fair schedulers (§4).
  bool use_eevdf = false;
  TimeNs tick_period = MsToNs(1);
  // NOHZ-style tick elision: an inactive (descheduled) vCPU stops its
  // periodic tick and re-arms on the grid when it is next scheduled in.
  // Elided firings are provable no-ops, so observable state — vruntime,
  // PELT, bvs/ivh classifications, stats, JSONL — is byte-identical to a
  // vCPU that ticks through. `false` is only the ticking reference of the
  // TicklessTwin tests (tests/runner/tickless_twin_test.cc); no other code
  // sets it to false.
  bool tickless = true;
  // Guest CFS granularities (guest-side, distinct from the host's).
  TimeNs min_granularity = UsToNs(1500);
  TimeNs wakeup_granularity = UsToNs(1000);
  // Periodic load balance interval per vCPU.
  TimeNs balance_interval = MsToNs(4);
  // Busiest/local load ratio that triggers a pull.
  double imbalance_pct = 1.25;
  // Misfit active balance: task util above this fraction of the vCPU's
  // capacity marks it misfit; a target needs this much more capacity.
  double misfit_util_fraction = 0.8;
  double misfit_capacity_margin = 1.2;
  // Minimum gap between capacity-driven active-balance pushes per vCPU
  // (stands in for CFS's nr_balance_failed escalation).
  TimeNs active_balance_interval = MsToNs(32);
  // Balancer will not re-migrate a task this soon after its last migration
  // (CFS cache-hot / migration-cost analogue).
  TimeNs migration_cooldown = MsToNs(5);
  // Reschedule-IPI delivery delay to an active remote vCPU.
  TimeNs ipi_delay = UsToNs(5);
  // Capacity asymmetry ratio beyond which wake placement turns greedy on
  // capacity (mirrors CFS asym-capacity wake paths).
  double asym_capacity_ratio = 1.15;
  // Steal-based CFS capacity estimate smoothing half-life.
  TimeNs cfs_cap_half_life = MsToNs(100);
  // Idle vCPUs' estimates drift back to full capacity with this half-life
  // (steal is only observable while busy — the §5.3 mismatch).
  TimeNs cfs_cap_idle_drift_half_life = MsToNs(250);
};

// Aggregate scheduler counters for experiments.
struct KernelCounters {
  Counter migrations;          // queued-task pulls + wake rebalances
  Counter active_migrations;   // running-task (misfit/ivh) migrations
  Counter context_switches;
  Counter wakeup_ipis;             // reschedule IPIs to other vCPUs
  Counter wakeup_ipis_cross_socket;  // ... crossing physical sockets
};

class GuestKernel {
 public:
  // Primary constructor: params are a shared immutable snapshot, so a fleet
  // of thousands of VMs built from one spec holds one copy total. A null
  // snapshot means defaults.
  GuestKernel(Simulation* sim, HostMachine* machine, std::vector<VcpuThread*> threads,
              std::shared_ptr<const GuestParams> params);
  // Convenience for single-VM call sites.
  GuestKernel(Simulation* sim, HostMachine* machine, std::vector<VcpuThread*> threads,
              GuestParams params = GuestParams{});
  ~GuestKernel();

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  Simulation* sim() const { return sim_; }
  HostMachine* machine() const { return machine_; }
  // Live VM migration: repoints the kernel at the destination host. The
  // caller (Vm::MigrateToMachine) must have re-attached every vCPU thread to
  // `machine` first; topology-derived caches are not kept across the switch.
  void SetMachine(HostMachine* machine) { machine_ = machine; }
  const GuestParams& params() const { return *params_; }
  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  GuestVcpu& vcpu(int i) { return *vcpus_[i]; }
  const GuestVcpu& vcpu(int i) const { return *vcpus_[i]; }
  KernelCounters& counters() { return counters_; }

  // ---- Task lifecycle (workload-facing) ----

  // Creates a task; the behavior must outlive it. `allowed` defaults to all.
  Task* CreateTask(std::string name, TaskPolicy policy, TaskBehavior* behavior,
                   CpuMask allowed = CpuMask(~0ULL));
  // Keeps `behavior` alive as long as the kernel: for tasks that outlive
  // the component that owned their behavior (a vtop pair probe destroyed
  // mid-flight).
  void AdoptBehavior(std::unique_ptr<TaskBehavior> behavior) {
    adopted_behaviors_.push_back(std::move(behavior));
  }

  // Starts a new task: asks the behavior for its first action and places it.
  void StartTask(Task* task);

  // Wakes a task waiting on an event (no-op unless it is kSleeping on an
  // event wait). `waker_cpu` biases placement, -1 for external events.
  void WakeTask(Task* task, int waker_cpu = -1);

  // ---- Scheduler state (prober/vSched-facing) ----

  // The CFS capacity estimate used by all capacity-aware paths. Overridden
  // per-vCPU via SetCapacityOverride (the vSched kernel module).
  double CfsCapacityOf(int cpu) const;
  void SetCapacityOverride(int cpu, double capacity);
  void ClearCapacityOverrides();

  // Linux only enables misfit/asymmetric-capacity paths when the topology
  // declares distinct CPU capacities (SD_ASYM_CPUCAPACITY). In a VM that
  // happens only when vcap publishes real capacities via overrides. Cached
  // when the overrides change; `--audit` recomputes it on every read.
  bool AsymCapacityKnown() const;

  // Schedule-domain rebuild (vtop → kernel module, §4).
  const GuestTopology& topology() const { return topology_; }
  void RebuildSchedDomains(const GuestTopology& topo);

  // cgroup-cpuset bans (rwc, §3.4). Straggler-banned vCPUs may still run
  // SCHED_IDLE and straggler-exempt tasks; stack-banned vCPUs only run
  // all-ban-exempt tasks (vtop probers). Applying bans evacuates newly
  // ineligible tasks.
  void SetBans(CpuMask straggler_banned, CpuMask stack_banned);
  CpuMask straggler_banned() const { return straggler_banned_; }
  CpuMask stack_banned() const { return stack_banned_; }

  // Affinity actually usable by `task` right now.
  CpuMask EffectiveAllowed(const Task* task) const;

  // vCPUs with no normal task queued or running. Like Linux's
  // sched_idle_cpu(), SCHED_IDLE work alone does not keep a waking fair task
  // waiting, so wake placement (CFS's, bvs's) and ivh's harvest targets
  // treat these vCPUs as free.
  CpuMask NoNormalWorkMask() const {
    return CpuMask::FirstN(num_vcpus()) & ~(queued_normal_ | running_normal_);
  }

  // Recomputes the candidate masks from every vCPU and reports any
  // disagreement through src/base/audit.h. Runs after every mask update
  // while auditing is enabled; safe to call directly at any time.
  void AuditVerify() const;

  // Preemption rule shared by wakeups, burst boundaries, and ticks: a higher
  // class always preempts; within a class, `next` must lead by more than the
  // wakeup granularity in vruntime.
  bool ShouldPreempt(const Task* curr, const Task* next) const;

  // ---- Hooks (where the paper's BPF programs attach, §4) ----

  // Wake/fork placement override; return -1 to fall back to CFS. Receives
  // (task, prev_cpu, waker_cpu).
  using SelectHook = std::function<int(Task*, int, int)>;
  void set_select_hook(SelectHook hook) { select_hook_ = std::move(hook); }

  // Invoked on each scheduler tick of an *active* vCPU, after CFS tick work.
  using TickHook = std::function<void(GuestVcpu*, TimeNs)>;
  void AddTickHook(TickHook hook) { tick_hooks_.push_back(std::move(hook)); }

  // ---- Primitives vSched components build on ----

  // Runs `fn` in the context of vCPU `cpu`: after ipi_delay if it is active,
  // otherwise deferred until it next becomes active. If `kick` is set and
  // the vCPU is halted, it is woken (pre-wake, §3.3).
  void RunOnVcpu(int cpu, std::function<void()> fn, bool kick = false);

  // Migrates a queued (not running) task. Returns false if no longer queued.
  bool MigrateQueuedTask(Task* task, int to_cpu);

  // Migrates the running task of `from_cpu` onto `to_cpu` (stopper-style).
  // Returns false if `task` is no longer running there.
  bool MigrateRunningTask(Task* task, int from_cpu, int to_cpu);

  // Work-unit penalty for transferring `cache_lines` between the hardware
  // threads currently hosting two vCPUs (communication cost model, Fig 13).
  Work CommWorkPenalty(int from_cpu, int to_cpu, int cache_lines) const;

  // True if the two vCPUs' hardware threads are in different sockets now.
  bool CrossSocketPhysical(int cpu_a, int cpu_b) const;

  // ---- Run-change notification ----
  // A watcher must remove itself before it is destroyed. While no watcher
  // is registered the notification sites cost one empty-vector check.
  void AddRunWatcher(RunChangeWatcher* watcher);
  void RemoveRunWatcher(RunChangeWatcher* watcher);

  // ---- Fault injection (src/fault/) ----
  // The probes consult this at their registered injection points; null (the
  // default) means no chaos and leaves every probe path untouched.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // ---- Test/bench utilities ----
  Rng& rng() { return rng_; }
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

 private:
  friend class GuestVcpu;
  // Deliberate-corruption backdoor for the audit tests (tests/audit/).
  friend struct AuditTestAccess;

  // Re-derives `v`'s bits in the candidate masks. Called after every change
  // of a runqueue or a current task (GuestKernel::EnqueueTask and
  // MigrateQueuedTask, GuestVcpu::Dispatch, PutCurrent and Reschedule).
  void UpdateCandidateMasks(const GuestVcpu& v) {
    const int cpu = v.index();
    queued_normal_.Assign(cpu, v.rq_.normal_count() > 0);
    queued_idle_.Assign(cpu, v.rq_.idle_count() > 0);
    idle_.Assign(cpu, v.IsIdle());
    running_normal_.Assign(cpu,
                           v.current_ != nullptr && v.current_->policy() == TaskPolicy::kNormal);
    if (audit::Enabled()) {
      AuditVerify();
    }
  }

  // CFS wake placement (select_task_rq_fair analogue).
  int SelectTaskRqCfs(Task* task, int prev_cpu, int waker_cpu);
  int ScanForIdle(CpuMask domain, bool want_idle_core, int scan_from);

  // Places and enqueues a runnable task, kicking the target vCPU.
  void EnqueueTask(Task* task, int cpu, bool wakeup, int waker_cpu);
  void SendReschedIpi(int from_cpu, int to_cpu);

  // Called by GuestVcpu after every write of its current task and on every
  // host schedule in/out (the only places a vCPU's running task changes).
  void NotifyRunChange(int cpu) {
    for (RunChangeWatcher* watcher : run_watchers_) {
      watcher->OnRunChange(cpu);
    }
  }

  // Tick machinery.
  void OnTick(int cpu);
  void CfsTick(GuestVcpu* v, TimeNs now);
  void MisfitCheck(GuestVcpu* v, TimeNs now);
  // Re-arms a NOHZ-stopped tick on its grid; called when the vCPU is
  // scheduled back in. No-op unless the tick is stopped.
  void ResumeTick(int cpu);

  // Load balancing.
  void PeriodicBalance(GuestVcpu* v, TimeNs now);
  void NewIdleBalance(GuestVcpu* v, TimeNs now);
  bool TryPullInto(GuestVcpu* v, CpuMask domain, bool idle_pull, TimeNs now);

  // Rescans the overrides for AsymCapacityKnown's cached answer.
  bool ComputeAsymCapacityKnown() const;

  // Behavior-action plumbing.
  void ApplyAction(Task* task, TaskAction action, bool on_cpu, TimeNs now, int waker_cpu = -1);
  void TimedWake(Task* task, uint64_t token);
  void CountIpi(int from_cpu, int to_cpu);
  void FinishTask(Task* task, TimeNs now);
  void EvacuateIneligible(TimeNs now);

  Simulation* sim_;
  HostMachine* machine_;
  std::shared_ptr<const GuestParams> params_;
  Rng rng_;

  std::vector<std::unique_ptr<GuestVcpu>> vcpus_;
  // Declared before tasks_: tasks hold raw pointers into the adopted
  // behaviors, which must be destroyed after them.
  std::vector<std::unique_ptr<TaskBehavior>> adopted_behaviors_;
  std::vector<std::unique_ptr<Task>> tasks_;
  uint64_t next_task_id_ = 1;
  uint64_t next_sleep_token_ = 1;

  GuestTopology topology_;
  std::vector<double> capacity_override_;  // <0 → none
  // ComputeAsymCapacityKnown() as of the last override change. params_ is
  // an immutable snapshot, so asym_capacity_ratio cannot move under it.
  bool asym_capacity_known_ = false;
  CpuMask straggler_banned_;
  CpuMask stack_banned_;

  SelectHook select_hook_;
  std::vector<TickHook> tick_hooks_;
  std::vector<RunChangeWatcher*> run_watchers_;
  FaultInjector* fault_injector_ = nullptr;

  KernelCounters counters_;
  int scan_rotor_ = 0;

  // Candidate masks (Linux keeps root_domain->overload and
  // nohz.idle_cpus_mask for the same purpose): the balance and placement
  // scans iterate `domain & mask` instead of testing every vCPU, in the same
  // order, so every tie-break is unchanged. Kept current by
  // UpdateCandidateMasks; no other code writes them.
  CpuMask queued_normal_;   // runqueue holds a normal task
  CpuMask queued_idle_;     // runqueue holds a SCHED_IDLE task
  CpuMask idle_;            // GuestVcpu::IsIdle()
  CpuMask running_normal_;  // current task is normal

  // One registered timer per vCPU, re-armed in place every period.
  // (This replaces a vector of per-firing one-shot EventIds, which kept stale
  // cancelled handles alive for the VM lifetime; a TimerId is a stable slot
  // that re-arming reclaims.) tick_origins_ pins each vCPU's tick grid so a
  // NOHZ-stopped tick resumes on exactly the phase it would have kept.
  std::vector<TimerId> tick_timers_;
  std::vector<TimeNs> tick_origins_;
  bool shutting_down_ = false;
  // IPI deliveries (RunOnVcpu, SendReschedIpi) are in-flight simulation
  // events holding raw GuestVcpu/kernel pointers. A VM destroyed
  // mid-simulation (fleet tenant departure) would leave them dangling, so
  // each delivery closure checks this token and no-ops once it expires.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_GUEST_GUEST_KERNEL_H_
