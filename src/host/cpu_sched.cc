#include "src/host/cpu_sched.h"

#include <algorithm>
#include <cmath>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/perf_counters.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"

namespace vsched {
namespace {

// Chooses the entity to run next: RT tier first, then minimum vruntime.
// Stable on ties (first in queue order) for determinism.
HostEntity* BestOf(const std::vector<HostEntity*>& queue) {
  HostEntity* best = nullptr;
  for (HostEntity* e : queue) {
    if (best == nullptr) {
      best = e;
      continue;
    }
    if (e->rt() != best->rt()) {
      if (e->rt()) {
        best = e;
      }
      continue;
    }
    if (e->vruntime() < best->vruntime()) {
      best = e;
    }
  }
  return best;
}

}  // namespace

CpuSched::CpuSched(Simulation* sim, HostMachine* machine, HwThreadId tid,
                   std::shared_ptr<const HostSchedParams> params)
    : sim_(sim), machine_(machine), tid_(tid), params_(std::move(params)), rng_(sim->ForkRng()) {
  slice_timer_ = sim_->CreateTimer([this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    OnSliceEnd();
  });
  throttle_timer_ = sim_->CreateTimer([this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    ThrottleCurrent(sim_->now());
  });
}

CpuSched::~CpuSched() {
  sim_->DestroyTimer(throttle_timer_);
  sim_->DestroyTimer(slice_timer_);
}

size_t CpuSched::runnable_count() const { return queue_.size() + (current_ != nullptr ? 1 : 0); }

TimeNs CpuSched::now() const { return sim_->now(); }

void CpuSched::RefreshMinVruntime() {
  // CFS keeps min_vruntime as a monotonic floor tracking the minimum of the
  // running entity and the queue, so new arrivals are placed near the pack.
  double floor_v = static_cast<double>(kTimeInfinity);
  if (current_ != nullptr) {
    floor_v = current_->vruntime_;
  }
  for (const HostEntity* e : queue_) {
    floor_v = std::min(floor_v, e->vruntime_);
  }
  if (floor_v < static_cast<double>(kTimeInfinity)) {
    min_vruntime_ = std::max(min_vruntime_, floor_v);
  }
}

void CpuSched::Attach(HostEntity* e) {
  VSCHED_CHECK_MSG(e->sched_ == nullptr, "entity already attached");
  TimeNs now = sim_->now();
  e->SyncAccounting(now);
  e->sched_ = this;
  UpdateCurrentRuntime(now);
  RefreshMinVruntime();
  e->vruntime_ = min_vruntime_;
  e->queued_ = false;
  entities_.push_back(e);
  if (e->has_bandwidth()) {
    e->bw_used_ = 0;
    e->throttled_ = false;
    // Stagger the refill grid per hardware thread so co-scheduled vCPUs do
    // not throttle in lock-step (real hosts interleave slices).
    TimeNs offset = (static_cast<TimeNs>(tid_) * 2654435761LL) % e->bw_period_;
    e->bw_refill_origin_ = now + (e->bw_period_ - offset);
    e->bw_refill_timer_ =
        sim_->CreateTimer([this, e, alive = std::weak_ptr<const bool>(alive_)] {
          if (alive.expired()) {
            return;
          }
          RefillBandwidth(e);
        });
    sim_->ArmTimerAt(e->bw_refill_timer_, e->bw_refill_origin_);
    e->bw_refill_armed_ = true;
  }
  if (e->wants_to_run_) {
    EntityWoke(e);
  }
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::Detach(HostEntity* e) {
  VSCHED_CHECK(e->sched_ == this);
  // Leave the attached set first: the PickNext below schedules another
  // entity in, whose guest can wake a third one here, and that wake audits
  // the attached set before this call returns.
  entities_.erase(std::find(entities_.begin(), entities_.end(), e));
  TimeNs now = sim_->now();
  if (e->bw_refill_timer_ != kInvalidTimerId) {
    sim_->DestroyTimer(e->bw_refill_timer_);
    e->bw_refill_timer_ = kInvalidTimerId;
    e->bw_refill_armed_ = false;
  }
  if (current_ == e) {
    // PutCurrent cancels the slice and throttle timers (a throttle deadline
    // only ever exists for the running entity).
    PutCurrent(now, /*requeue=*/false);
    e->SyncAccounting(now);
    e->sched_ = nullptr;
    PickNext(now);
  } else {
    auto it = std::find(queue_.begin(), queue_.end(), e);
    if (it != queue_.end()) {
      queue_.erase(it);
    }
    e->queued_ = false;
    e->SyncAccounting(now);
    e->sched_ = nullptr;
  }
  e->throttled_ = false;
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::EntityWoke(HostEntity* e) {
  VSCHED_CHECK(e->sched_ == this);
  TimeNs now = sim_->now();
  e->SyncAccounting(now);
  if (e->throttled_ || e->paused_ || e->queued_ || current_ == e) {
    return;  // Throttled entities enqueue at the next refill; paused ones
             // re-enter via SetPaused(false) at migration-downtime end.
  }
  UpdateCurrentRuntime(now);
  RefreshMinVruntime();
  // Wakeup credit: do not let a long sleeper starve the queue, but grant it a
  // small scheduling advantage (CFS's sched-latency placement rule).
  double credit = static_cast<double>(params_->min_granularity);
  e->vruntime_ = std::max(e->vruntime_, min_vruntime_ - credit);
  e->queued_ = true;
  queue_.push_back(e);

  if (current_ == nullptr) {
    PickNext(now);
    return;
  }
  bool preempt = false;
  if (e->rt() && !current_->rt()) {
    preempt = true;
  } else if (e->rt() == current_->rt()) {
    // CFS wakeup preemption: the waker must lead by more than the wakeup
    // granularity in vruntime. Raising the granularity makes woken vCPUs
    // wait for the current slice — higher vCPU latency at equal capacity.
    if (e->vruntime_ + static_cast<double>(params_->wakeup_granularity) < current_->vruntime_) {
      preempt = true;
    }
  }
  if (preempt) {
    PutCurrent(now, /*requeue=*/true);
    PickNext(now);
  }
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::EntitySlept(HostEntity* e) {
  VSCHED_CHECK(e->sched_ == this);
  TimeNs now = sim_->now();
  if (current_ == e) {
    PutCurrent(now, /*requeue=*/false);
    PickNext(now);
    return;
  }
  e->SyncAccounting(now);
  auto it = std::find(queue_.begin(), queue_.end(), e);
  if (it != queue_.end()) {
    queue_.erase(it);
    e->queued_ = false;
  }
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::SetBandwidthLive(HostEntity* e, TimeNs quota, TimeNs period) {
  VSCHED_CHECK(e->sched_ == this);
  VSCHED_CHECK((quota > 0 && period > 0) || (quota == 0 && period == 0));
  TimeNs now = sim_->now();
  // Fold in-flight runtime first so the old cap's usage is fully accounted
  // before the machinery is torn down.
  UpdateCurrentRuntime(now);
  if (e->bw_refill_timer_ != kInvalidTimerId) {
    sim_->DestroyTimer(e->bw_refill_timer_);
    e->bw_refill_timer_ = kInvalidTimerId;
    e->bw_refill_armed_ = false;
  }
  if (e == current_) {
    sim_->CancelTimer(throttle_timer_);
  }
  const bool was_throttled = e->throttled_;
  e->throttled_ = false;
  e->bw_quota_ = quota;
  e->bw_period_ = period;
  e->bw_used_ = 0;
  if (e->has_bandwidth()) {
    // Same staggered refill grid as Attach, restarted at the change point.
    TimeNs offset = (static_cast<TimeNs>(tid_) * 2654435761LL) % e->bw_period_;
    e->bw_refill_origin_ = now + (e->bw_period_ - offset);
    e->bw_refill_timer_ =
        sim_->CreateTimer([this, e, alive = std::weak_ptr<const bool>(alive_)] {
          if (alive.expired()) {
            return;
          }
          RefillBandwidth(e);
        });
    sim_->ArmTimerAt(e->bw_refill_timer_, e->bw_refill_origin_);
    e->bw_refill_armed_ = true;
    if (e == current_) {
      sim_->ArmTimerAfter(throttle_timer_, e->bw_quota_);
    }
  }
  if (was_throttled && e->wants_to_run_) {
    EntityWoke(e);
  }
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::UpdateCurrentRuntime(TimeNs now) {
  if (current_ == nullptr) {
    return;
  }
  TimeNs delta = now - last_runtime_sync_;
  if (delta <= 0) {
    return;
  }
  last_runtime_sync_ = now;
  // vsched-lint: allow(raw-double-accum) — increments are exact small-int multiples; audited against drift
  current_->vruntime_ += static_cast<double>(delta) * (kCapacityScale / current_->weight());
  if (current_->has_bandwidth()) {
    current_->bw_used_ += delta;
  }
}

void CpuSched::PutCurrent(TimeNs now, bool requeue) {
  VSCHED_CHECK(current_ != nullptr);
  HostEntity* e = current_;
  UpdateCurrentRuntime(now);
  sim_->CancelTimer(slice_timer_);
  sim_->CancelTimer(throttle_timer_);
  e->SyncAccounting(now);
  e->running_ = false;
  current_ = nullptr;
  e->ScheduledOut(now);
  if (requeue && e->wants_to_run_ && !e->throttled_ && !e->paused_) {
    e->queued_ = true;
    queue_.push_back(e);
  }
}

void CpuSched::PickNext(TimeNs now) {
  VSCHED_CHECK(current_ == nullptr);
  HostEntity* next = BestOf(queue_);
  if (next == nullptr) {
    machine_->OnBusyChanged(tid_);
    return;
  }
  queue_.erase(std::find(queue_.begin(), queue_.end(), next));
  next->queued_ = false;
  next->SyncAccounting(now);
  next->running_ = true;
  current_ = next;
  current_since_ = now;
  last_runtime_sync_ = now;
  min_vruntime_ = std::max(min_vruntime_, next->vruntime_);
  ArmSliceTimer(now);
  if (next->has_bandwidth()) {
    if (!next->bw_refill_armed_) {
      // The refill went dormant while this entity was off-CPU (every skipped
      // firing was a no-op: quota full, not throttled). Re-arm on the
      // original grid before any quota can be consumed — an unarmed refill
      // with a running entity would throttle forever.
      TimeNs when = sim_->NextGridPoint(next->bw_refill_origin_, next->bw_period_,
                                        next->bw_refill_timer_);
      PerfCounters::Current()->ticks_elided +=
          static_cast<uint64_t>((when - next->bw_refill_origin_) / next->bw_period_ - 1);
      next->bw_refill_origin_ = when;
      sim_->ArmTimerAt(next->bw_refill_timer_, when);
      next->bw_refill_armed_ = true;
    }
    TimeNs remaining = next->bw_quota_ - next->bw_used_;
    if (remaining <= 0) {
      // Quota already exhausted (can happen if refill raced); throttle now.
      ThrottleCurrent(now);
      return;
    }
    sim_->ArmTimerAfter(throttle_timer_, remaining);
  }
  machine_->OnBusyChanged(tid_);
  next->ScheduledIn(now);
}

void CpuSched::ArmSliceTimer(TimeNs now) {
  (void)now;
  // Real slice lengths vary slightly (timer coalescing, softirqs); the
  // ±5% jitter also prevents deterministic phase-locking between threads.
  TimeNs slice = static_cast<TimeNs>(static_cast<double>(params_->min_granularity) *
                                     rng_.Uniform(0.95, 1.05));
  sim_->ArmTimerAfter(slice_timer_, slice);  // re-arm in place, no closure churn
}

void CpuSched::OnSliceEnd() {
  TimeNs now = sim_->now();
  if (current_ == nullptr) {
    return;
  }
  UpdateCurrentRuntime(now);
  HostEntity* best = BestOf(queue_);
  bool switch_away = false;
  if (best != nullptr) {
    if (best->rt() && !current_->rt()) {
      switch_away = true;
    } else if (best->rt() == current_->rt() && best->vruntime_ < current_->vruntime_) {
      switch_away = true;
    }
  }
  if (!switch_away) {
    ArmSliceTimer(now);
    return;
  }
  PutCurrent(now, /*requeue=*/true);
  PickNext(now);
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::ThrottleCurrent(TimeNs now) {
  VSCHED_CHECK(current_ != nullptr);
  HostEntity* e = current_;
  UpdateCurrentRuntime(now);
  e->throttled_ = true;
  PutCurrent(now, /*requeue=*/false);
  PickNext(now);
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::RefillBandwidth(HostEntity* e) {
  VSCHED_CHECK(e->sched_ == this);
  TimeNs now = sim_->now();
  e->bw_refill_origin_ = now;  // Last firing pins the grid for resume/elision.
  if (e == current_) {
    // Re-arm first so the period grid stays fixed.
    sim_->ArmTimerAfter(e->bw_refill_timer_, e->bw_period_);
    UpdateCurrentRuntime(now);
    e->bw_used_ = 0;
    sim_->ArmTimerAfter(throttle_timer_, e->bw_quota_);
    return;
  }
  e->bw_used_ = 0;
  if (e->throttled_) {
    // Unthrottle may make the entity current again; re-arm before it can run.
    sim_->ArmTimerAfter(e->bw_refill_timer_, e->bw_period_);
    e->throttled_ = false;
    if (e->wants_to_run_) {
      EntityWoke(e);
    }
  } else if (params_->tickless) {
    // Off-CPU, unthrottled, quota now full: every further firing before the
    // entity next runs is a no-op. Stop the timer; PickNext resumes it on
    // this grid (NOHZ for the host bandwidth machinery).
    e->bw_refill_armed_ = false;
  } else {
    sim_->ArmTimerAfter(e->bw_refill_timer_, e->bw_period_);
  }
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void CpuSched::NotifyRateChanged(TimeNs now) {
  if (current_ != nullptr) {
    current_->RateChanged(now);
  }
}

void CpuSched::AuditVerify() const {
  // Current entity: running, dequeued, attached here.
  if (current_ != nullptr) {
    VSCHED_AUDIT_CHECK(current_->sched_ == this, "cpu_sched: current entity attached elsewhere");
    VSCHED_AUDIT_CHECK(current_->running_, "cpu_sched: current entity not marked running");
    VSCHED_AUDIT_CHECK(!current_->queued_, "cpu_sched: current entity still marked queued");
    VSCHED_AUDIT_CHECK(!current_->paused_, "cpu_sched: paused entity is running");
  }
  // Runnable queue: flags consistent, no duplicates, current never queued.
  for (size_t i = 0; i < queue_.size(); ++i) {
    const HostEntity* e = queue_[i];
    VSCHED_AUDIT_CHECK(e != current_, "cpu_sched: current entity also sits in the queue");
    VSCHED_AUDIT_CHECK(e->sched_ == this, "cpu_sched: queued entity attached elsewhere");
    VSCHED_AUDIT_CHECK(e->queued_, "cpu_sched: queued entity not marked queued");
    VSCHED_AUDIT_CHECK(!e->running_, "cpu_sched: queued entity marked running");
    VSCHED_AUDIT_CHECK(!e->throttled_, "cpu_sched: throttled entity left in the queue");
    VSCHED_AUDIT_CHECK(!e->paused_, "cpu_sched: paused entity left in the queue");
    for (size_t j = i + 1; j < queue_.size(); ++j) {
      VSCHED_AUDIT_CHECK(queue_[j] != e, "cpu_sched: entity queued twice");
    }
  }
  // Attached set: back-pointers, finite vruntime, bandwidth accounting never
  // negative (the invariant throttling correctness rests on).
  for (const HostEntity* e : entities_) {
    VSCHED_AUDIT_CHECK(e->sched_ == this, "cpu_sched: attached entity points elsewhere");
    VSCHED_AUDIT_CHECK(std::isfinite(e->vruntime_), "cpu_sched: entity vruntime not finite");
    if (e->has_bandwidth()) {
      VSCHED_AUDIT_CHECK(e->bw_used_ >= 0, "cpu_sched: bandwidth usage went negative");
      VSCHED_AUDIT_CHECK(e->bw_quota_ > 0, "cpu_sched: bandwidth quota not positive");
      VSCHED_AUDIT_CHECK(e->bw_refill_timer_ != kInvalidTimerId,
                         "cpu_sched: bandwidth entity has no refill timer");
      VSCHED_AUDIT_CHECK(e->bw_refill_armed_ == sim_->TimerArmed(e->bw_refill_timer_),
                         "cpu_sched: refill dormancy flag out of sync with its timer");
      VSCHED_AUDIT_CHECK(!e->throttled_ || e->bw_refill_armed_,
                         "cpu_sched: throttled entity with a dormant refill timer");
    } else {
      VSCHED_AUDIT_CHECK(!e->throttled_, "cpu_sched: throttled entity has no bandwidth cap");
    }
  }
  VSCHED_AUDIT_CHECK(std::isfinite(min_vruntime_), "cpu_sched: min_vruntime not finite");
}

}  // namespace vsched
