#include "src/core/bvs.h"

#include "src/guest/guest_kernel.h"
#include "src/probe/vact.h"
#include "src/probe/vcap.h"
#include "src/sim/simulation.h"

namespace vsched {

Bvs::Bvs(GuestKernel* kernel, Vcap* vcap, Vact* vact, BvsConfig config)
    : kernel_(kernel), vcap_(vcap), vact_(vact), config_(config) {}

Bvs::~Bvs() {
  if (installed_) {
    kernel_->set_select_hook(nullptr);  // The hook captures this Bvs.
  }
}

void Bvs::Install() {
  installed_ = true;
  kernel_->set_select_hook(
      [this](Task* t, int prev, int waker) { return SelectVcpu(t, prev, waker); });
}

bool Bvs::AcceptableVcpu(const GuestVcpu& v, double median_cap, double median_lat) {
  int cpu = v.index();
  // High capacity first: prevent runqueue saturation on weak vCPUs.
  if (vcap_->CapacityOf(cpu) < median_cap * config_.capacity_margin) {
    return false;
  }
  double latency = vact_->LatencyOf(cpu);
  bool low_latency = latency <= median_lat * config_.latency_margin + 1.0;

  TimeNs now = kernel_->sim()->now();
  if (v.IsIdle()) {
    // Empty runqueue: low latency + prolonged idleness → wakes up quickly.
    return low_latency && (now - v.idle_since()) >= config_.min_idle_time;
  }
  // Only SCHED_IDLE work here (SelectVcpu offers no vCPU with normal work:
  // placing there would queue behind it).
  if (!config_.check_state) {
    // Ablation (Table 3): ignore the vCPU state, accept on latency alone.
    return low_latency;
  }
  VcpuStateView state = vact_->QueryState(cpu);
  if (state.inactive) {
    // Long-inactive with low latency: likely to become active soon.
    double inactive_for = static_cast<double>(now - state.since);
    return low_latency && inactive_for >= latency;
  }
  // Recently active sched_idle vCPU: the task starts immediately and can
  // finish within the remaining active period (the "blue path").
  double active_for = static_cast<double>(now - state.since);
  double avg_active = vact_->ActivePeriodOf(cpu);
  return active_for <= avg_active * config_.recent_active_fraction;
}

int Bvs::SelectVcpu(Task* task, int prev_cpu, int waker_cpu) {
  (void)prev_cpu;
  (void)waker_cpu;
  if (degraded_) {
    ++fallbacks_;
    return -1;  // Untrusted probe data: take the CFS path unconditionally.
  }
  TimeNs now_check = kernel_->sim()->now();
  if (task->policy() == TaskPolicy::kIdle || task->UtilAt(now_check) > config_.small_task_util) {
    return -1;  // Not a small latency-sensitive task: CFS path.
  }
  if (!vcap_->has_results()) {
    ++fallbacks_;
    return -1;
  }
  double median_cap = vcap_->MedianCapacity();
  double median_lat = vact_->MedianLatency();
  CpuMask candidates = kernel_->EffectiveAllowed(task) & kernel_->NoNormalWorkMask();
  int start = rotor_;
  rotor_ = (rotor_ + 1) % kernel_->num_vcpus();
  // First-fit over an aggressive, domain-unconstrained scan (§3.2: bvs is
  // not limited to the preferred LLC domain).
  for (int cpu : candidates.RotatedFrom(start)) {
    if (AcceptableVcpu(kernel_->vcpu(cpu), median_cap, median_lat)) {
      ++placements_;
      return cpu;
    }
  }
  ++fallbacks_;
  return -1;
}

}  // namespace vsched
