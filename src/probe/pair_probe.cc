#include "src/probe/pair_probe.h"

#include <algorithm>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/fault/fault_injector.h"
#include "src/guest/guest_kernel.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"
#include "src/stats/stats.h"

namespace vsched {

namespace {
// Cap on stored observations for the robust median: the first samples are an
// unbiased draw (corruption is i.i.d.), so a bounded prefix suffices.
constexpr size_t kMaxObservations = 128;
}  // namespace

// Spins in short bursts until the probe finishes (or is destroyed).
class PairProbe::SpinBehavior : public TaskBehavior {
 public:
  TaskAction Next(TaskContext&, RunReason reason) override {
    if (reason == RunReason::kStarted) {
      return TaskAction::WaitEvent();
    }
    if (stopped_) {
      return TaskAction::Exit();
    }
    return TaskAction::Run(WorkAtCapacity(kCapacityScale, UsToNs(20)));
  }

  void Stop() { stopped_ = true; }

 private:
  bool stopped_ = false;
};

PairProbe::PairProbe(GuestKernel* kernel, int cpu_a, int cpu_b, PairProbeConfig config,
                     DoneCallback done)
    : kernel_(kernel),
      sim_(kernel->sim()),
      cpu_a_(cpu_a),
      cpu_b_(cpu_b),
      config_(config),
      done_(std::move(done)) {
  VSCHED_CHECK(cpu_a != cpu_b);
  VSCHED_CHECK(config_.attempt_period > 0 && config_.sample_quantum > 0 &&
               config_.sample_quantum % config_.attempt_period == 0);
  attempts_per_sample_ = config_.sample_quantum / config_.attempt_period;
  current_timeout_ = config_.timeout_attempts;
  sample_timer_ = sim_->CreateTimer([this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    Sample();
  });
}

PairProbe::~PairProbe() {
  if (prober_a_ != nullptr && !done_reported_) {
    kernel_->RemoveRunWatcher(this);
  }
  if (prober_a_ != nullptr && !CanDestroy()) {
    // Destroyed mid-flight: the spin tasks exit at their next burst, and
    // until then they still call their behaviors.
    spin_a_->Stop();
    spin_b_->Stop();
    kernel_->AdoptBehavior(std::move(spin_a_));
    kernel_->AdoptBehavior(std::move(spin_b_));
  }
  sim_->DestroyTimer(sample_timer_);
}

bool PairProbe::CanDestroy() const {
  if (!done_reported_) {
    return false;
  }
  bool a_done = prober_a_ == nullptr || prober_a_->state() == TaskState::kFinished;
  bool b_done = prober_b_ == nullptr || prober_b_->state() == TaskState::kFinished;
  return a_done && b_done;
}

void PairProbe::Start() {
  started_at_ = sim_->now();
  spin_a_ = std::make_unique<SpinBehavior>();
  spin_b_ = std::make_unique<SpinBehavior>();
  prober_a_ = kernel_->CreateTask("vtop-" + std::to_string(cpu_a_) + "-" + std::to_string(cpu_b_),
                                  TaskPolicy::kNormal, spin_a_.get(), CpuMask::Single(cpu_a_));
  prober_b_ = kernel_->CreateTask("vtop-" + std::to_string(cpu_b_) + "-" + std::to_string(cpu_a_),
                                  TaskPolicy::kNormal, spin_b_.get(), CpuMask::Single(cpu_b_));
  prober_a_->set_exempt_all_bans(true);
  prober_b_->set_exempt_all_bans(true);
  kernel_->StartTask(prober_a_);
  kernel_->StartTask(prober_b_);
  kernel_->WakeTask(prober_a_);
  kernel_->WakeTask(prober_b_);
  next_sample_ = started_at_ + config_.sample_quantum;
  a_running_ = Running(cpu_a_, prober_a_);
  b_running_ = Running(cpu_b_, prober_b_);
  kernel_->AddRunWatcher(this);
  Plan();
}

bool PairProbe::Running(int cpu, const Task* prober) const {
  const GuestVcpu& v = kernel_->vcpu(cpu);
  return v.active() && v.current() == prober;
}

void PairProbe::OnRunChange(int cpu) {
  if (cpu != cpu_a_ && cpu != cpu_b_) {
    return;
  }
  const bool a_running = Running(cpu_a_, prober_a_);
  const bool b_running = Running(cpu_b_, prober_b_);
  if (a_running == a_running_ && b_running == b_running_) {
    return;
  }
  // A change that lands on a sample instant comes after that sample iff
  // the sample timer's position at that instant has already passed.
  const TimeNs now = sim_->now();
  Replay(sim_->TimerStillFiresAt(sample_timer_, now) ? now : now + 1);
  a_running_ = a_running;
  b_running_ = b_running;
  Plan();
}

void PairProbe::Replay(TimeNs end) {
  if (next_sample_ >= end) {
    return;
  }
  const TimeNs quantum = config_.sample_quantum;
  const int64_t samples = (end - next_sample_ + quantum - 1) / quantum;
  next_sample_ += samples * quantum;
  VSCHED_CHECK_MSG(!(a_running_ && b_running_), "co-active samples must not be replayed");
  if (a_running_ || b_running_) {
    attempts_ += samples * attempts_per_sample_;
    VSCHED_CHECK_MSG(attempts_ < current_timeout_, "replayed spin samples crossed the timeout");
  }
}

void PairProbe::Plan() {
  if (a_running_ && b_running_) {
    sim_->ArmTimerAt(sample_timer_, next_sample_);
    return;
  }
  const int64_t step = a_running_ || b_running_ ? attempts_per_sample_ : 0;
  const int64_t deficit = current_timeout_ - attempts_;
  if (step == 0 && deficit > 0) {
    sim_->CancelTimer(sample_timer_);
    return;
  }
  // The first sample whose attempts reach the timeout.
  const int64_t samples = deficit <= step ? 1 : (deficit + step - 1) / step;
  sim_->ArmTimerAt(sample_timer_, next_sample_ + (samples - 1) * config_.sample_quantum);
}

void PairProbe::Sample() {
  const TimeNs now = sim_->now();
  Replay(now);
  VSCHED_CHECK(next_sample_ == now);
  next_sample_ = now + config_.sample_quantum;
  // A notification site that stopped reporting would leave the cached run
  // state stale and change results without any other symptom.
  VSCHED_AUDIT_CHECK(a_running_ == Running(cpu_a_, prober_a_) &&
                         b_running_ == Running(cpu_b_, prober_b_),
                     "pair probe: cached prober run state differs from the vCPUs");

  if (a_running_ && b_running_) {
    // Both probers execute: the line ping-pongs at the hardware latency of
    // the two vCPUs' current hardware threads.
    const GuestVcpu& va = kernel_->vcpu(cpu_a_);
    const GuestVcpu& vb = kernel_->vcpu(cpu_b_);
    double lat = kernel_->machine()->topology().CacheLatencyNs(va.thread()->tid(),
                                                               vb.thread()->tid());
    double jitter = 1.0 + config_.noise * (kernel_->rng().NextDouble() * 2.0 - 1.0);
    double observed = lat * jitter;
    FaultInjector* injector = kernel_->fault_injector();
    bool dropped = false;
    if (injector != nullptr) {
      // vsched-lint: allow(fault-injection-point) — registered kPairLatency site
      if (injector->DropSample(ProbePoint::kPairLatency)) {
        dropped = true;  // the transfers of this quantum are lost
        ++samples_dropped_;
      } else {
        // vsched-lint: allow(fault-injection-point) — registered kPairLatency site
        observed = injector->CorruptSample(ProbePoint::kPairLatency, observed);
      }
    }
    if (!dropped) {
      ++samples_kept_;
      min_latency_seen_ = std::min(min_latency_seen_, observed);
      if (config_.robust.enabled && observations_.size() < kMaxObservations) {
        observations_.push_back(observed);
      }
      transfers_ += static_cast<double>(config_.sample_quantum) / lat;
    }
    attempts_ += attempts_per_sample_;
  } else if (a_running_ || b_running_) {
    // One prober spins while the other is inactive or preempted.
    attempts_ += attempts_per_sample_;
  }

  if (transfers_ >= config_.target_transfers) {
    Finish(min_latency_seen_);
    return;
  }
  if (attempts_ >= current_timeout_) {
    if (transfers_ >= config_.min_transfers_for_latency) {
      // Few-but-enough transfers: the lowest observed latency is reliable.
      Finish(min_latency_seen_);
      return;
    }
    if (extensions_ < config_.max_extensions) {
      ++extensions_;
      current_timeout_ *= 2;  // Extend: maybe the vCPUs simply never overlapped yet.
    } else if (transfers_ >= 1.0) {
      // Stacked vCPUs can NEVER run simultaneously: any successful transfer
      // disproves stacking, however rarely the pair overlaps.
      Finish(min_latency_seen_);
      return;
    } else {
      Finish(kInfiniteLatency);  // Stacked: they can never run simultaneously.
      return;
    }
  }
  Plan();
}

void PairProbe::Finish(double latency) {
  VSCHED_CHECK(!done_reported_);
  done_reported_ = true;
  sim_->CancelTimer(sample_timer_);
  kernel_->RemoveRunWatcher(this);
  // Let the spin tasks exit at their next burst boundary; stop demanding CPU.
  spin_a_->Stop();
  spin_b_->Stop();
  if (config_.robust.enabled && latency != kInfiniteLatency && !observations_.empty()) {
    // Median instead of minimum: a handful of corrupted-low observations
    // would otherwise make any pair look like SMT siblings.
    latency = LowerMedian(observations_);
  }
  PairProbeResult result;
  result.cpu_a = cpu_a_;
  result.cpu_b = cpu_b_;
  result.latency_ns = latency;
  if (samples_dropped_ > 0) {
    result.confidence = static_cast<double>(samples_kept_) /
                        static_cast<double>(samples_kept_ + samples_dropped_);
  }
  result.transfers = transfers_;
  result.duration = sim_->now() - started_at_;
  result.extensions = extensions_;
  if (done_) {
    done_(result);
  }
}

}  // namespace vsched
