#include "src/guest/guest_kernel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/decay.h"
#include "src/base/log.h"
#include "src/base/perf_counters.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"

namespace vsched {
namespace {

// Class rank for preemption: normal tasks strictly dominate SCHED_IDLE.
int ClassRank(const Task* t) { return t->policy() == TaskPolicy::kNormal ? 1 : 0; }

}  // namespace

GuestKernel::GuestKernel(Simulation* sim, HostMachine* machine, std::vector<VcpuThread*> threads,
                         GuestParams params)
    : GuestKernel(sim, machine, std::move(threads),
                  std::make_shared<const GuestParams>(params)) {}

GuestKernel::GuestKernel(Simulation* sim, HostMachine* machine, std::vector<VcpuThread*> threads,
                         std::shared_ptr<const GuestParams> params)
    : sim_(sim),
      machine_(machine),
      params_(params != nullptr ? std::move(params) : std::make_shared<const GuestParams>()),
      rng_(sim->ForkRng()) {
  VSCHED_CHECK(!threads.empty());
  VSCHED_CHECK(threads.size() <= 64);
  int n = static_cast<int>(threads.size());
  for (int i = 0; i < n; ++i) {
    vcpus_.push_back(std::make_unique<GuestVcpu>(this, i, threads[i]));
  }
  topology_ = GuestTopology::FlatUma(n);
  capacity_override_.assign(n, -1.0);
  idle_ = CpuMask::FirstN(n);
  tick_timers_.reserve(static_cast<size_t>(n));
  tick_origins_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Stagger ticks so all vCPUs do not interrupt at the same instant. The
    // first firing defines the vCPU's tick grid for the whole run.
    TimeNs offset = params_->tick_period + static_cast<TimeNs>(i) * 1777;
    tick_timers_.push_back(
        sim_->CreateTimer([this, i, alive = std::weak_ptr<const bool>(alive_)] {
          if (alive.expired()) {
            return;
          }
          OnTick(i);
        }));
    tick_origins_.push_back(sim_->now() + offset);
    sim_->ArmTimerAt(tick_timers_.back(), tick_origins_.back());
  }
}

GuestKernel::~GuestKernel() {
  shutting_down_ = true;
  for (TimerId id : tick_timers_) {
    sim_->DestroyTimer(id);
  }
}

void GuestKernel::AddRunWatcher(RunChangeWatcher* watcher) { run_watchers_.push_back(watcher); }

void GuestKernel::RemoveRunWatcher(RunChangeWatcher* watcher) {
  auto it = std::find(run_watchers_.begin(), run_watchers_.end(), watcher);
  VSCHED_CHECK_MSG(it != run_watchers_.end(), "removing an unregistered run watcher");
  run_watchers_.erase(it);
}

void GuestKernel::AuditVerify() const {
  CpuMask queued_normal;
  CpuMask queued_idle;
  CpuMask idle;
  CpuMask running_normal;
  for (const auto& v : vcpus_) {
    const int cpu = v->index();
    queued_normal.Assign(cpu, v->rq_.normal_count() > 0);
    queued_idle.Assign(cpu, v->rq_.idle_count() > 0);
    idle.Assign(cpu, v->IsIdle());
    running_normal.Assign(cpu, v->current_ != nullptr &&
                                   v->current_->policy() == TaskPolicy::kNormal);
  }
  VSCHED_AUDIT_CHECK(queued_normal == queued_normal_,
                     "queued_normal mask disagrees with the runqueues");
  VSCHED_AUDIT_CHECK(queued_idle == queued_idle_,
                     "queued_idle mask disagrees with the runqueues");
  VSCHED_AUDIT_CHECK(idle == idle_, "idle mask disagrees with the vCPUs");
  VSCHED_AUDIT_CHECK(running_normal == running_normal_,
                     "running_normal mask disagrees with the current tasks");
}

// ---------------------------------------------------------------------------
// Task lifecycle
// ---------------------------------------------------------------------------

Task* GuestKernel::CreateTask(std::string name, TaskPolicy policy, TaskBehavior* behavior,
                              CpuMask allowed) {
  CpuMask clipped = allowed & CpuMask::FirstN(num_vcpus());
  VSCHED_CHECK_MSG(!clipped.Empty(), "task affinity excludes every vCPU");
  auto task =
      std::make_unique<Task>(next_task_id_++, std::move(name), policy, behavior, clipped);
  Task* raw = task.get();
  // Rebind the signal into the kernel's arena: creation order == scan order
  // for the classifier passes, so consecutive tasks' signals share lines.
  raw->pelt_ = pelt_arena_.Allocate();
  raw->pelt_->Seed(sim_->now(), kCapacityScale / 2);
  tasks_.push_back(std::move(task));
  return raw;
}

void GuestKernel::StartTask(Task* task) {
  VSCHED_CHECK(task->state_ == TaskState::kNew);
  TaskContext ctx{sim_, this, task};
  TaskAction action = task->behavior()->Next(ctx, RunReason::kStarted);
  task->state_ = TaskState::kSleeping;  // Neutral pre-state for ApplyAction.
  ApplyAction(task, action, /*on_cpu=*/false, sim_->now());
}

void GuestKernel::WakeTask(Task* task, int waker_cpu) {
  if (task->state_ != TaskState::kSleeping) {
    return;  // Wakeup on a runnable/running task is a no-op (like Linux).
  }
  // Cancel any pending timed wake.
  task->sleep_token_ = 0;
  TaskContext ctx{sim_, this, task};
  TaskAction action = task->behavior()->Next(ctx, RunReason::kEventWake);
  ApplyAction(task, action, /*on_cpu=*/false, sim_->now(), waker_cpu);
}

void GuestKernel::TimedWake(Task* task, uint64_t token) {
  if (task->state_ != TaskState::kSleeping || task->sleep_token_ != token) {
    return;  // Stale timer.
  }
  task->sleep_token_ = 0;
  TaskContext ctx{sim_, this, task};
  TaskAction action = task->behavior()->Next(ctx, RunReason::kSleepExpired);
  ApplyAction(task, action, /*on_cpu=*/false, sim_->now());
}

void GuestKernel::ApplyAction(Task* task, TaskAction action, bool on_cpu, TimeNs now,
                              int waker_cpu) {
  GuestVcpu* v = on_cpu ? vcpus_[task->cpu_].get() : nullptr;
  if (on_cpu) {
    VSCHED_CHECK(v->current_ == task);
  }
  switch (action.kind) {
    case TaskAction::Kind::kRun: {
      VSCHED_CHECK(action.work > 0);
      task->burst_remaining_ = action.work;
      if (on_cpu) {
        if (!EffectiveAllowed(task).Test(task->cpu_)) {
          // The behavior changed its own affinity (sched_setaffinity): move
          // the task off this vCPU before continuing.
          v->PutCurrent(now, /*requeue=*/false);
          task->state_ = TaskState::kRunnable;
          int dest = SelectTaskRqCfs(task, /*prev_cpu=*/-1, /*waker_cpu=*/-1);
          EnqueueTask(task, dest, /*wakeup=*/false, /*waker_cpu=*/v->index());
          v->Reschedule(now);
          return;
        }
        v->Reschedule(now);
      } else {
        task->state_ = TaskState::kRunnable;
        int cpu = -1;
        if (select_hook_) {
          cpu = select_hook_(task, task->prev_cpu_, waker_cpu);
        }
        if (cpu < 0) {
          cpu = SelectTaskRqCfs(task, task->prev_cpu_, waker_cpu);
        }
        EnqueueTask(task, cpu, /*wakeup=*/true, waker_cpu);
      }
      return;
    }
    case TaskAction::Kind::kSleep: {
      VSCHED_CHECK(action.sleep_dur >= 0);
      task->state_ = TaskState::kSleeping;
      uint64_t token = next_sleep_token_++;
      task->sleep_token_ = token;
      sim_->After(action.sleep_dur,
                  [this, task, token, alive = std::weak_ptr<const bool>(alive_)] {
                    if (alive.expired()) {
                      return;
                    }
                    TimedWake(task, token);
                  });
      if (on_cpu) {
        task->prev_cpu_ = task->cpu_;
        v->PutCurrent(now, /*requeue=*/false);
        v->Reschedule(now);
      }
      return;
    }
    case TaskAction::Kind::kWaitEvent: {
      task->state_ = TaskState::kSleeping;
      task->sleep_token_ = 0;
      if (on_cpu) {
        task->prev_cpu_ = task->cpu_;
        v->PutCurrent(now, /*requeue=*/false);
        v->Reschedule(now);
      }
      return;
    }
    case TaskAction::Kind::kExit: {
      if (on_cpu) {
        v->PutCurrent(now, /*requeue=*/false);
        FinishTask(task, now);
        v->Reschedule(now);
      } else {
        FinishTask(task, now);
      }
      return;
    }
  }
}

void GuestKernel::FinishTask(Task* task, TimeNs now) {
  (void)now;
  task->state_ = TaskState::kFinished;
  task->sleep_token_ = 0;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

bool GuestKernel::ShouldPreempt(const Task* curr, const Task* next) const {
  if (ClassRank(next) != ClassRank(curr)) {
    return ClassRank(next) > ClassRank(curr);
  }
  double gran = static_cast<double>(params_->wakeup_granularity);
  return next->vruntime_ + gran < curr->vruntime_;
}

CpuMask GuestKernel::EffectiveAllowed(const Task* task) const {
  CpuMask m = task->allowed_ & CpuMask::FirstN(num_vcpus());
  if (!task->exempt_all_bans_) {
    m = m & ~stack_banned_;
    if (task->policy() == TaskPolicy::kNormal && !task->exempt_straggler_ban_) {
      m = m & ~straggler_banned_;
    }
  }
  if (m.Empty()) {
    // Never strand a task: fall back to its raw affinity.
    m = task->allowed_ & CpuMask::FirstN(num_vcpus());
  }
  return m;
}

int GuestKernel::ScanForIdle(CpuMask domain, bool want_idle_core, int scan_from) {
  for (int cpu : (domain & idle_).RotatedFrom(scan_from)) {
    if (!want_idle_core || (topology_.smt_mask[cpu] & ~idle_).Empty()) {
      return cpu;
    }
  }
  return -1;
}

int GuestKernel::SelectTaskRqCfs(Task* task, int prev_cpu, int waker_cpu) {
  CpuMask allowed = EffectiveAllowed(task);
  VSCHED_CHECK(!allowed.Empty());

  int target = prev_cpu;
  if (target < 0) {
    target = waker_cpu;
  }
  // Wake-affine: if prev is outside the waker's LLC, pull toward the waker.
  if (waker_cpu >= 0 && prev_cpu >= 0 && !topology_.llc_mask[waker_cpu].Test(prev_cpu)) {
    target = waker_cpu;
  }
  if (target < 0 || !allowed.Test(target)) {
    target = allowed.First();
  }
  CpuMask domain = topology_.llc_mask[target] & allowed;
  if (domain.Empty()) {
    domain = allowed;
  }

  int scan_from = scan_rotor_;
  scan_rotor_ = (scan_rotor_ + 7) % std::max(1, num_vcpus());

  // A vCPU running only SCHED_IDLE work counts as idle for wake placement:
  // a waking fair task preempts best-effort work immediately.
  const CpuMask placement_idle = NoNormalWorkMask();

  // Asymmetric-capacity path (select_idle_capacity): scan for the first
  // idle vCPU whose capacity fits the task's utilization; remember the
  // strongest seen as a fallback. Enabled only when the topology declares
  // asymmetric capacities — i.e. when vcap published them.
  if (AsymCapacityKnown()) {
    double need = task->UtilAt(sim_->now()) * 1.2;
    int best = -1;
    double best_cap = 0;
    for (int cpu : (allowed & placement_idle).RotatedFrom(scan_from)) {
      double c = CfsCapacityOf(cpu);
      if (c >= need) {
        return cpu;
      }
      if (c > best_cap) {
        best_cap = c;
        best = cpu;
      }
    }
    if (best >= 0) {
      return best;
    }
  }

  // Pass 1: a fully idle core in the domain (SMT-aware, needs vtop's masks).
  int cpu = ScanForIdle(domain, /*want_idle_core=*/true, scan_from);
  if (cpu >= 0) {
    return cpu;
  }
  // Pass 2: any idle vCPU in the domain.
  cpu = ScanForIdle(domain, /*want_idle_core=*/false, scan_from);
  if (cpu >= 0) {
    return cpu;
  }
  // Pass 2b: SCHED_IDLE-only queues count as idle for placement.
  CpuMask idle_for_placement = domain & placement_idle;
  if (!idle_for_placement.Empty()) {
    return *idle_for_placement.RotatedFrom(scan_from).begin();
  }
  // Pass 3: least-loaded (normalized by capacity) in the domain.
  int best = target;
  double best_score = 1e300;
  for (int c : domain) {
    const GuestVcpu& v = *vcpus_[c];
    double load = v.rq().load() +
                  (v.current() != nullptr && v.current()->policy() == TaskPolicy::kNormal
                       ? v.current()->weight()
                       : 0.0);
    double score = load / std::max(1.0, CfsCapacityOf(c));
    if (score < best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

void GuestKernel::EnqueueTask(Task* task, int cpu, bool wakeup, int waker_cpu) {
  VSCHED_CHECK(cpu >= 0 && cpu < num_vcpus());
  VSCHED_CHECK(task->state_ == TaskState::kRunnable);
  TimeNs now = sim_->now();
  GuestVcpu& v = *vcpus_[cpu];

  if (task->cpu_ >= 0 && task->cpu_ != cpu) {
    ++task->migrations_;
    task->last_migration_time_ = now;
    counters_.migrations.Inc();
  }
  task->cpu_ = cpu;
  task->prev_cpu_ = cpu;
  task->enqueue_time_ = now;
  // Designated PELT entry point: closes the task's waiting/sleeping span.
  // vsched-lint: allow(pelt-eager-update)
  task->pelt_->Update(now, /*active=*/false);

  double credit = wakeup ? static_cast<double>(params_->min_granularity) : 0.0;
  task->vruntime_ = std::max(task->vruntime_, v.rq_.min_vruntime() - credit);
  task->vdeadline_ = task->vruntime_ + static_cast<double>(params_->min_granularity) *
                                           (kCapacityScale / task->weight());
  v.rq_.Enqueue(task);
  UpdateCandidateMasks(v);

  bool was_halted = !v.thread()->wants_to_run();
  if (was_halted && waker_cpu >= 0 && waker_cpu != cpu) {
    // Kicking a halted remote vCPU is an IPI (a hypercall wake on KVM),
    // regardless of how quickly the host then schedules it.
    CountIpi(waker_cpu, cpu);
  }
  v.resched_pending_ = true;
  v.UpdateHostDemand();  // May synchronously activate and dispatch.

  if (task->state_ != TaskState::kRunnable || task->cpu_ != cpu ||
      v.current_ == task) {
    return;  // Already dispatched during the synchronous activation.
  }
  if (v.active()) {
    if (waker_cpu == cpu) {
      // Same-CPU wakeup: the waking context may still be mid-decision in a
      // behavior ("preemption disabled"); reschedule once the current call
      // stack unwinds.
      GuestVcpu* vp = &v;
      sim_->After(0, [this, vp, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) {
          return;
        }
        if (vp->resched_pending_ && vp->active()) {
          vp->Reschedule(sim_->now());
        }
      });
    } else {
      SendReschedIpi(waker_cpu, cpu);
    }
  }
  // If attached-but-preempted, resched_pending_ already covers it.
}

void GuestKernel::CountIpi(int from_cpu, int to_cpu) {
  counters_.wakeup_ipis.Inc();
  if (from_cpu >= 0 && CrossSocketPhysical(from_cpu, to_cpu)) {
    counters_.wakeup_ipis_cross_socket.Inc();
  }
}

void GuestKernel::SendReschedIpi(int from_cpu, int to_cpu) {
  CountIpi(from_cpu, to_cpu);
  GuestVcpu* v = vcpus_[to_cpu].get();
  v->resched_pending_ = true;
  sim_->After(params_->ipi_delay,
              [this, v, alive = std::weak_ptr<const bool>(alive_)] {
                if (alive.expired()) {
                  return;  // VM destroyed while the IPI was in flight.
                }
                if (v->active() && v->resched_pending_) {
                  v->Reschedule(sim_->now());
                }
              });
}

void GuestKernel::RunOnVcpu(int cpu, std::function<void()> fn, bool kick) {
  GuestVcpu* v = vcpus_[cpu].get();
  if (v->active()) {
    sim_->After(params_->ipi_delay,
                [v, fn = std::move(fn),
                 alive = std::weak_ptr<const bool>(alive_)]() mutable {
                  if (alive.expired()) {
                    return;  // VM destroyed while the IPI was in flight.
                  }
                  if (v->active()) {
                    fn();
                  } else {
                    v->pending_ipis_.push_back(std::move(fn));
                    v->UpdateHostDemand();
                  }
                });
    return;
  }
  v->pending_ipis_.push_back(std::move(fn));
  if (kick) {
    v->thread()->GuestWake();  // Pre-wake: demand host time to deliver.
  }
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

bool GuestKernel::MigrateQueuedTask(Task* task, int to_cpu) {
  if (task->state_ != TaskState::kRunnable) {
    return false;
  }
  GuestVcpu& from = *vcpus_[task->cpu_];
  if (!from.rq_.Contains(task)) {
    return false;
  }
  if (task->cpu_ == to_cpu) {
    return true;
  }
  from.rq_.Dequeue(task);
  UpdateCandidateMasks(from);
  from.UpdateHostDemand();
  EnqueueTask(task, to_cpu, /*wakeup=*/false, /*waker_cpu=*/-1);
  return true;
}

bool GuestKernel::MigrateRunningTask(Task* task, int from_cpu, int to_cpu) {
  GuestVcpu& from = *vcpus_[from_cpu];
  if (from.current_ != task || task->state_ != TaskState::kRunning) {
    return false;
  }
  if (!from.active()) {
    return false;  // Source preempted: the stopper cannot run; abandon.
  }
  TimeNs now = sim_->now();
  from.PutCurrent(now, /*requeue=*/false);
  task->state_ = TaskState::kRunnable;
  counters_.active_migrations.Inc();
  EnqueueTask(task, to_cpu, /*wakeup=*/false, /*waker_cpu=*/from_cpu);
  from.Reschedule(now);
  return true;
}

// ---------------------------------------------------------------------------
// Capacity
// ---------------------------------------------------------------------------

double GuestKernel::CfsCapacityOf(int cpu) const {
  if (capacity_override_[cpu] >= 0) {
    return capacity_override_[cpu];
  }
  const GuestVcpu& v = *vcpus_[cpu];
  double raw = v.cfs_cap_raw_;
  if (v.IsIdle()) {
    // Steal is invisible while idle: the estimate drifts back toward full
    // capacity — the very mismatch §5.3 demonstrates.
    TimeNs idle_for = sim_->now() - v.cfs_cap_last_update_;
    double decay = HalfLifeDecay(idle_for, params_->cfs_cap_idle_drift_half_life);
    return kCapacityScale + (raw - kCapacityScale) * decay;
  }
  return raw;
}

void GuestKernel::SetCapacityOverride(int cpu, double capacity) {
  VSCHED_CHECK(cpu >= 0 && cpu < num_vcpus());
  capacity_override_[cpu] = capacity;
  asym_capacity_known_ = ComputeAsymCapacityKnown();
}

void GuestKernel::ClearCapacityOverrides() {
  std::fill(capacity_override_.begin(), capacity_override_.end(), -1.0);
  asym_capacity_known_ = false;
}

bool GuestKernel::AsymCapacityKnown() const {
  VSCHED_AUDIT_CHECK(asym_capacity_known_ == ComputeAsymCapacityKnown(),
                     "asymmetric-capacity flag is stale");
  return asym_capacity_known_;
}

bool GuestKernel::ComputeAsymCapacityKnown() const {
  double min_cap = -1;
  double max_cap = -1;
  for (double c : capacity_override_) {
    if (c < 0) {
      continue;
    }
    if (min_cap < 0 || c < min_cap) {
      min_cap = c;
    }
    if (c > max_cap) {
      max_cap = c;
    }
  }
  if (min_cap < 0) {
    return false;
  }
  return max_cap > std::max(1.0, min_cap) * params_->asym_capacity_ratio;
}

void GuestKernel::RebuildSchedDomains(const GuestTopology& topo) {
  VSCHED_CHECK(topo.num_vcpus() == num_vcpus());
  topology_ = topo;
}

void GuestKernel::SetBans(CpuMask straggler_banned, CpuMask stack_banned) {
  straggler_banned_ = straggler_banned & CpuMask::FirstN(num_vcpus());
  stack_banned_ = stack_banned & CpuMask::FirstN(num_vcpus());
  EvacuateIneligible(sim_->now());
}

void GuestKernel::EvacuateIneligible(TimeNs now) {
  for (auto& vp : vcpus_) {
    GuestVcpu* v = vp.get();
    int cpu = v->index();
    // Collect queued tasks that may no longer live here.
    std::vector<Task*> to_move;
    v->rq_.ForEach([&](Task* t) {
      if (!EffectiveAllowed(t).Test(cpu)) {
        to_move.push_back(t);
      }
    });
    for (Task* t : to_move) {
      int dest = SelectTaskRqCfs(t, /*prev_cpu=*/-1, /*waker_cpu=*/-1);
      if (dest != cpu) {
        MigrateQueuedTask(t, dest);
      }
    }
    Task* curr = v->current_;
    if (curr != nullptr && !EffectiveAllowed(curr).Test(cpu)) {
      int dest = SelectTaskRqCfs(curr, /*prev_cpu=*/-1, /*waker_cpu=*/-1);
      if (dest != cpu) {
        if (v->active()) {
          MigrateRunningTask(curr, cpu, dest);
        } else {
          // Do it when the vCPU next runs (stopper needs the CPU).
          Task* task = curr;
          RunOnVcpu(cpu, [this, task, cpu, alive = std::weak_ptr<const bool>(alive_)] {
            if (alive.expired()) {
              return;
            }
            if (vcpus_[cpu]->current_ == task && !EffectiveAllowed(task).Test(cpu)) {
              int d = SelectTaskRqCfs(task, -1, -1);
              if (d != cpu) {
                MigrateRunningTask(task, cpu, d);
              }
            }
          });
        }
      }
    }
  }
  (void)now;
}

// ---------------------------------------------------------------------------
// Ticks
// ---------------------------------------------------------------------------

void GuestKernel::OnTick(int cpu) {
  if (shutting_down_) {
    return;
  }
  GuestVcpu* v = vcpus_[cpu].get();
  const TimerId timer = tick_timers_[static_cast<size_t>(cpu)];
  if (!v->active()) {
    // Tick interrupts are not delivered to a descheduled vCPU — this firing
    // mutates nothing. Stop the tick entirely (NOHZ); ResumeTick re-arms it
    // on the same grid when the vCPU runs again. The ticking reference
    // (GuestParams::tickless = false) keeps firing instead.
    if (params_->tickless) {
      v->tick_stopped_ = true;
      v->tick_stop_time_ = sim_->now();
    } else {
      sim_->ArmTimerAfter(timer, params_->tick_period);
    }
    return;
  }
  sim_->ArmTimerAfter(timer, params_->tick_period);
  TimeNs now = sim_->now();
  CfsTick(v, now);
  for (auto& hook : tick_hooks_) {
    hook(v, now);
  }
  v->last_tick_ = now;
}

void GuestKernel::ResumeTick(int cpu) {
  GuestVcpu* v = vcpus_[static_cast<size_t>(cpu)].get();
  if (!v->tick_stopped_) {
    return;
  }
  v->tick_stopped_ = false;
  const TimerId timer = tick_timers_[static_cast<size_t>(cpu)];
  const TimeNs when = sim_->NextGridPoint(tick_origins_[static_cast<size_t>(cpu)],
                                          params_->tick_period, timer);
  // Every grid point between the stop and the resume would have been a
  // no-op firing on an inactive vCPU — those are the elided ticks.
  PerfCounters::Current()->ticks_elided +=
      static_cast<uint64_t>((when - v->tick_stop_time_) / params_->tick_period - 1);
  sim_->ArmTimerAt(timer, when);
}

void GuestKernel::CfsTick(GuestVcpu* v, TimeNs now) {
  v->SyncSegment(now);

  // Steal-based CFS capacity estimation (only observable while busy).
  TimeNs wall = now - v->cfs_cap_last_update_;
  if (wall > 0) {
    TimeNs steal_now = v->StealClock(now);
    TimeNs steal_delta = steal_now - v->cfs_cap_last_steal_;
    v->cfs_cap_last_steal_ = steal_now;
    v->cfs_cap_last_update_ = now;
    if (v->current_ != nullptr) {
      double frac = 1.0 - std::clamp(static_cast<double>(steal_delta) /
                                         static_cast<double>(wall),
                                     0.0, 1.0);
      double sample = kCapacityScale * frac;
      double alpha = 1.0 - HalfLifeDecay(wall, params_->cfs_cap_half_life);
      v->cfs_cap_raw_ += alpha * (sample - v->cfs_cap_raw_);
    }
  }

  // Preemption: immediate for class inversion, slice-based within a class.
  if (v->current_ != nullptr) {
    Task* next = v->rq_.Pick();
    if (next != nullptr) {
      bool class_inversion = ClassRank(next) > ClassRank(v->current_);
      TimeNs stint = now - v->current_->stint_start_;
      if (class_inversion || stint >= params_->min_granularity) {
        // At slice end the comparison is plain vruntime order.
        if (class_inversion || next->vruntime_ < v->current_->vruntime_) {
          v->PutCurrent(now, /*requeue=*/true);
          v->Reschedule(now);
        }
      }
    }
  }

  MisfitCheck(v, now);
  PeriodicBalance(v, now);
}

void GuestKernel::MisfitCheck(GuestVcpu* v, TimeNs now) {
  if (!AsymCapacityKnown()) {
    return;  // No declared capacity asymmetry → no misfit path (Linux).
  }
  Task* curr = v->current_;
  if (curr == nullptr || curr->policy() == TaskPolicy::kIdle) {
    return;
  }
  double cap = CfsCapacityOf(v->index());
  // Lazy PELT: evaluate at `now` without writing the signal back — the tick
  // path must not be a mutation point (see the pelt-eager-update lint rule).
  if (curr->pelt_->UtilAt(now, /*active=*/v->segment_open_) <
      params_->misfit_util_fraction * cap) {
    return;
  }
  CpuMask allowed = EffectiveAllowed(curr);
  int best = -1;
  double best_cap = cap * params_->misfit_capacity_margin;
  for (int c : allowed & idle_) {  // never v itself: it runs curr
    double cc = CfsCapacityOf(c);
    if (cc > best_cap) {
      best_cap = cc;
      best = c;
    }
  }
  if (best >= 0) {
    MigrateRunningTask(curr, v->index(), best);
  }
}

// ---------------------------------------------------------------------------
// Load balancing
// ---------------------------------------------------------------------------

void GuestKernel::NewIdleBalance(GuestVcpu* v, TimeNs now) {
  if (shutting_down_) {
    return;
  }
  // Both passes pull only queued work from other vCPUs.
  if (((queued_normal_ | queued_idle_) & ~CpuMask::Single(v->index())).Empty()) {
    return;
  }
  CpuMask allowed_all = CpuMask::FirstN(num_vcpus());
  if (TryPullInto(v, topology_.llc_mask[v->index()], /*idle_pull=*/true, now)) {
    return;
  }
  TryPullInto(v, allowed_all, /*idle_pull=*/true, now);
}

void GuestKernel::PeriodicBalance(GuestVcpu* v, TimeNs now) {
  if (now < v->next_balance_) {
    return;
  }
  v->next_balance_ = now + params_->balance_interval;

  // Pull phase: SMT domain, then LLC, then everything. A non-idle pull
  // takes only a queued normal task, so with none queued on another vCPU
  // no pass can pull.
  if (!(queued_normal_ & ~CpuMask::Single(v->index())).Empty()) {
    if (TryPullInto(v, topology_.smt_mask[v->index()], /*idle_pull=*/false, now)) {
      return;
    }
    if (TryPullInto(v, topology_.llc_mask[v->index()], /*idle_pull=*/false, now)) {
      return;
    }
    if (TryPullInto(v, CpuMask::FirstN(num_vcpus()), /*idle_pull=*/false, now)) {
      return;
    }
  }

  // Push phase (stands in for nohz idle balancing): if tasks wait here while
  // another vCPU idles, hand one over.
  if (v->rq_.normal_count() >= 1) {
    std::vector<Task*> queued;
    v->rq_.ForEach([&](Task* t) {
      if (t->policy() == TaskPolicy::kNormal) {
        queued.push_back(t);
      }
    });
    for (Task* t : queued) {
      if (t->last_migration_time_ >= 0 &&
          now - t->last_migration_time_ < params_->migration_cooldown) {
        continue;
      }
      // The lowest idle vCPU; never v itself, whose queue holds t.
      int dest = (EffectiveAllowed(t) & idle_).First();
      if (dest >= 0) {
        MigrateQueuedTask(t, dest);
        return;
      }
    }
  }

  // Capacity-driven active balance: if an idle vCPU looks substantially
  // stronger than this one (by the CFS capacity estimate — possibly a
  // steal-blind phantom, §5.3), push the running task there. Linux reaches
  // this through nr_balance_failed escalation; we rate-limit directly.
  Task* curr = v->current_;
  if (curr == nullptr || curr->policy() != TaskPolicy::kNormal) {
    return;
  }
  if (now < v->next_active_balance_) {
    return;
  }
  if (curr->last_migration_time_ >= 0 &&
      now - curr->last_migration_time_ < params_->migration_cooldown) {
    return;
  }
  double my_cap = CfsCapacityOf(v->index());
  CpuMask allowed = EffectiveAllowed(curr);
  for (int c : allowed & idle_) {  // never v itself: it runs curr
    if (CfsCapacityOf(c) > my_cap * params_->imbalance_pct) {
      v->next_active_balance_ = now + params_->active_balance_interval;
      MigrateRunningTask(curr, v->index(), c);
      return;
    }
  }
}

bool GuestKernel::TryPullInto(GuestVcpu* v, CpuMask domain, bool idle_pull, TimeNs now) {
  (void)now;
  int me = v->index();
  CpuMask others = domain & ~CpuMask::Single(me);

  // Only a queued normal task is stealable (the running task is not pulled
  // here), so the search visits just the vCPUs that hold one.
  GuestVcpu* busiest = nullptr;
  double busiest_ratio = 0;
  for (int c : others & queued_normal_) {
    GuestVcpu* src = vcpus_[c].get();
    double load = src->rq_.load();
    if (src->current_ != nullptr && src->current_->policy() == TaskPolicy::kNormal) {
      load += src->current_->weight();
    }
    double ratio = load / std::max(1.0, CfsCapacityOf(c));
    if (ratio > busiest_ratio) {
      busiest_ratio = ratio;
      busiest = src;
    }
  }

  if (busiest != nullptr) {
    double my_load = v->rq_.load();
    if (v->current_ != nullptr && v->current_->policy() == TaskPolicy::kNormal) {
      my_load += v->current_->weight();
    }
    double my_ratio = my_load / std::max(1.0, CfsCapacityOf(me));
    bool imbalanced = idle_pull || busiest_ratio > my_ratio * params_->imbalance_pct + 1e-9;
    if (imbalanced) {
      // Steal the task with the largest vruntime (coldest cache, CFS-style
      // detach from the tail) that is allowed here.
      TimeNs now_ts = sim_->now();
      Task* pick = nullptr;
      busiest->rq_.ForEach([&](Task* t) {
        if (t->policy() != TaskPolicy::kNormal) {
          return;
        }
        if (!EffectiveAllowed(t).Test(me)) {
          return;
        }
        if (t->last_migration_time_ >= 0 &&
            now_ts - t->last_migration_time_ < params_->migration_cooldown) {
          return;  // Cache-hot / recently migrated: leave it.
        }
        if (pick == nullptr || t->vruntime_ > pick->vruntime_) {
          pick = t;
        }
      });
      if (pick != nullptr) {
        MigrateQueuedTask(pick, me);
        return true;
      }
    }
  }

  // Idle pull of best-effort tasks: a completely idle vCPU may harvest a
  // queued SCHED_IDLE task so best-effort work spreads.
  if (idle_pull && v->IsIdle()) {
    for (int c : others & queued_idle_) {
      GuestVcpu* src = vcpus_[c].get();
      Task* pick = nullptr;
      src->rq_.ForEach([&](Task* t) {
        if (t->policy() == TaskPolicy::kIdle && EffectiveAllowed(t).Test(me)) {
          if (pick == nullptr) {
            pick = t;
          }
        }
      });
      if (pick != nullptr) {
        MigrateQueuedTask(pick, me);
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Communication model
// ---------------------------------------------------------------------------

Work GuestKernel::CommWorkPenalty(int from_cpu, int to_cpu, int cache_lines) const {
  HwThreadId a = vcpus_[from_cpu]->thread()->tid();
  HwThreadId b = vcpus_[to_cpu]->thread()->tid();
  double lat = machine_->topology().CacheLatencyNs(a, b);
  return static_cast<Work>(cache_lines) * lat * kCapacityScale;
}

bool GuestKernel::CrossSocketPhysical(int cpu_a, int cpu_b) const {
  HwThreadId a = vcpus_[cpu_a]->thread()->tid();
  HwThreadId b = vcpus_[cpu_b]->thread()->tid();
  return machine_->topology().SocketOf(a) != machine_->topology().SocketOf(b);
}

}  // namespace vsched
