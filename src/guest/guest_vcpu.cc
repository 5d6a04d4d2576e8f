#include "src/guest/guest_vcpu.h"

#include <utility>

#include "src/base/check.h"
#include "src/guest/guest_kernel.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"

namespace vsched {

GuestVcpu::GuestVcpu(GuestKernel* kernel, int index, VcpuThread* thread)
    : kernel_(kernel), sim_(kernel->sim()), index_(index), thread_(thread) {
  thread_->BindClient(this);
  rq_.SetEevdf(kernel->params().use_eevdf);
  completion_timer_ = sim_->CreateTimer([this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    OnBurstComplete();
  });
}

GuestVcpu::~GuestVcpu() {
  sim_->DestroyTimer(completion_timer_);
  thread_->BindClient(nullptr);
}

void GuestVcpu::OnVcpuScheduledIn(TimeNs now) {
  kernel_->NotifyRunChange(index_);
  kernel_->ResumeTick(index_);  // NOHZ: restart a stopped tick on its grid.
  if (current_ != nullptr) {
    OpenSegment(now);
  }
  if (!pending_ipis_.empty()) {
    std::vector<std::function<void()>> ipis;
    ipis.swap(pending_ipis_);
    for (auto& fn : ipis) {
      fn();
    }
  }
  if (resched_pending_ || (current_ == nullptr && !rq_.empty())) {
    Reschedule(now);
  } else if (current_ == nullptr) {
    // Pre-woken with nothing to do (e.g. an abandoned ivh handshake).
    UpdateHostDemand();
  }
}

void GuestVcpu::OnVcpuScheduledOut(TimeNs now) {
  CloseSegment(now);
  kernel_->NotifyRunChange(index_);
}

void GuestVcpu::OnVcpuRateChanged(TimeNs now) {
  if (segment_open_) {
    CloseSegment(now);
    OpenSegment(now);
  }
}

void GuestVcpu::OpenSegment(TimeNs now) {
  VSCHED_CHECK(!segment_open_);
  VSCHED_CHECK(current_ != nullptr);
  if (!active()) {
    return;  // Will open on the next OnVcpuScheduledIn.
  }
  // Guest PELT cannot observe steal: any host-inactive gap while this task
  // was current counts as running time (as it would on real Linux in a VM).
  // Designated PELT entry point: opening a running span.
  // vsched-lint: allow(pelt-eager-update)
  current_->pelt_.Update(now, /*active=*/true);
  segment_open_ = true;
  segment_start_ = now;
  segment_speed_ = kernel_->machine()->SpeedOf(thread_->tid());
  VSCHED_CHECK(segment_speed_ > 0);
  sim_->ArmTimerAfter(completion_timer_,
                      TimeToComplete(current_->burst_remaining_, segment_speed_));
}

void GuestVcpu::SyncSegment(TimeNs now) {
  if (!segment_open_) {
    return;
  }
  VSCHED_CHECK(current_ != nullptr);
  TimeNs delta = now - segment_start_;
  if (delta <= 0) {
    return;
  }
  segment_start_ = now;
  Work executed = segment_speed_ * static_cast<double>(delta);
  Task* t = current_;
  t->burst_remaining_ = std::max(0.0, t->burst_remaining_ - executed);
  t->total_exec_ns_ += delta;
  if (static_cast<int>(t->exec_per_cpu_.size()) <= index_) {
    t->exec_per_cpu_.resize(index_ + 1, 0);
  }
  t->exec_per_cpu_[index_] += delta;
  // vsched-lint: allow(raw-double-accum) — increments are exact small-int multiples; audited against drift
  t->vruntime_ += static_cast<double>(delta) * (kCapacityScale / t->weight());
  // Lazy PELT: the per-tick sync no longer writes the signal; the running
  // span folds in once, when the segment closes (CloseSegment below).
  rq_.RaiseMinVruntime(t->vruntime_);
  work_done_ += executed;
  busy_ns_ += delta;
  // The completion event stays valid: remaining work and remaining time
  // shrink together at the unchanged speed.
}

void GuestVcpu::CloseSegment(TimeNs now) {
  if (!segment_open_) {
    return;
  }
  SyncSegment(now);
  // Designated PELT entry point: fold the whole running span in one update
  // (the per-tick Update this replaces advanced the same exponential in
  // smaller steps — identical in the closed form).
  // vsched-lint: allow(pelt-eager-update)
  current_->pelt_.Update(now, /*active=*/true);
  segment_open_ = false;
  sim_->CancelTimer(completion_timer_);
}

void GuestVcpu::OnBurstComplete() {
  TimeNs now = sim_->now();
  VSCHED_CHECK(current_ != nullptr);
  CloseSegment(now);
  current_->burst_remaining_ = 0;
  Task* t = current_;
  TaskContext ctx{sim_, kernel_, t};
  TaskAction action = t->behavior()->Next(ctx, RunReason::kBurstComplete);
  kernel_->ApplyAction(t, action, /*on_cpu=*/true, now);
}

void GuestVcpu::Dispatch(Task* next, TimeNs now) {
  VSCHED_CHECK(current_ == nullptr);
  VSCHED_CHECK(next->state_ == TaskState::kRunnable);
  // Designated PELT entry point: close out the waiting interval.
  // vsched-lint: allow(pelt-eager-update)
  next->pelt_.Update(now, /*active=*/false);
  TimeNs delay = now - next->enqueue_time_;
  next->last_queue_delay_ = delay;
  next->queue_wait_total_ns_ += delay;
  next->state_ = TaskState::kRunning;
  next->cpu_ = index_;
  next->stint_start_ = now;
  // EEVDF: grant one slice worth of virtual time per dispatch.
  next->vdeadline_ = next->vruntime_ +
                     static_cast<double>(kernel_->params().min_granularity) *
                         (kCapacityScale / next->weight());
  current_ = next;
  kernel_->UpdateCandidateMasks(*this);
  kernel_->NotifyRunChange(index_);
  kernel_->counters().context_switches.Inc();
  UpdateHostDemand();
  if (active()) {
    OpenSegment(now);
  }
}

void GuestVcpu::PutCurrent(TimeNs now, bool requeue) {
  VSCHED_CHECK(current_ != nullptr);
  CloseSegment(now);
  Task* prev = current_;
  current_ = nullptr;
  kernel_->UpdateCandidateMasks(*this);
  kernel_->NotifyRunChange(index_);
  if (requeue) {
    prev->state_ = TaskState::kRunnable;
    prev->enqueue_time_ = now;
    // Designated PELT entry point: the preempted task starts waiting here.
    // vsched-lint: allow(pelt-eager-update)
    prev->pelt_.Update(now, /*active=*/false);
    rq_.Enqueue(prev);
    kernel_->UpdateCandidateMasks(*this);
  }
}

void GuestVcpu::Reschedule(TimeNs now) {
  resched_pending_ = false;
  if (current_ != nullptr) {
    SyncSegment(now);
  }
  Task* next = rq_.Pick();
  if (current_ == nullptr) {
    if (next != nullptr) {
      rq_.Dequeue(next);
      kernel_->UpdateCandidateMasks(*this);
      Dispatch(next, now);
    } else {
      idle_since_ = now;
      UpdateHostDemand();
      kernel_->NewIdleBalance(this, now);
    }
    return;
  }
  if (next != nullptr && kernel_->ShouldPreempt(current_, next)) {
    PutCurrent(now, /*requeue=*/true);
    rq_.Dequeue(next);
    kernel_->UpdateCandidateMasks(*this);
    Dispatch(next, now);
    return;
  }
  // Keep running; make sure the segment is open (burst boundaries close it).
  if (!segment_open_ && active() && current_->burst_remaining_ > 0) {
    OpenSegment(now);
  }
}

void GuestVcpu::UpdateHostDemand() {
  bool wants = current_ != nullptr || !rq_.empty() || !pending_ipis_.empty() || spin_holds_ > 0;
  if (wants) {
    thread_->GuestWake();
  } else {
    thread_->GuestHalt();
  }
}

}  // namespace vsched
