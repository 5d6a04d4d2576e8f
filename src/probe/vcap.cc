#include "src/probe/vcap.h"

#include <algorithm>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/fault/fault_injector.h"
#include "src/guest/guest_kernel.h"
#include "src/sim/simulation.h"

namespace vsched {

// Keeps the vCPU busy during an armed window, counting completed work. The
// kernel owns it and it holds no pointer back to its Vcap, so a prober task
// that is mid-chunk when its Vcap is destroyed finishes the chunk and waits.
class Vcap::ProberBehavior : public TaskBehavior {
 public:
  explicit ProberBehavior(TimeNs chunk_ns)
      : chunk_work_(WorkAtCapacity(kCapacityScale, chunk_ns)) {}

  TaskAction Next(TaskContext& ctx, RunReason reason) override {
    if (reason == RunReason::kBurstComplete) {
      work_completed_ += chunk_work_;
    }
    if (!armed_ || ctx.sim->now() >= window_end_) {
      return TaskAction::WaitEvent();
    }
    return TaskAction::Run(chunk_work_);
  }

  void Arm(TimeNs window_end) {
    armed_ = true;
    window_end_ = window_end;
  }
  void Disarm() { armed_ = false; }
  Work work_completed() const { return work_completed_; }

 private:
  Work chunk_work_;
  bool armed_ = false;
  TimeNs window_end_ = 0;
  Work work_completed_ = 0;
};

Vcap::Vcap(GuestKernel* kernel, VcapConfig config)
    : kernel_(kernel), sim_(kernel->sim()), config_(config), rng_(kernel->sim()->ForkRng()) {
  int n = kernel_->num_vcpus();
  steal_at_start_.resize(n, 0);
  exec_at_start_.resize(n, 0);
  prober_work_at_start_.resize(n, 0);
  steal_at_prev_end_.resize(n, 0);
  offwindow_steal_frac_.resize(n, 0.0);
  suspect_streak_.resize(n, 0);
  clear_streak_.resize(n, 0);
  core_capacity_.assign(n, kCapacityScale);
  last_samples_.resize(n);
  for (int i = 0; i < n; ++i) {
    capacity_ema_.push_back(Ema::WithHalfLife(config_.ema_half_life_periods));
    confidence_.emplace_back(config_.robust.confidence_window);
  }
}

Vcap::~Vcap() { Stop(); }

void Vcap::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  if (light_probers_.empty()) {
    for (int i = 0; i < kernel_->num_vcpus(); ++i) {
      auto light_behavior = std::make_unique<ProberBehavior>(config_.chunk_ns);
      light_behaviors_.push_back(light_behavior.get());
      kernel_->AdoptBehavior(std::move(light_behavior));
      Task* light = kernel_->CreateTask("vcap-light-" + std::to_string(i), TaskPolicy::kIdle,
                                        light_behaviors_.back(), CpuMask::Single(i));
      light->set_exempt_straggler_ban(true);
      kernel_->StartTask(light);
      light_probers_.push_back(light);

      auto heavy_behavior = std::make_unique<ProberBehavior>(config_.chunk_ns);
      heavy_behaviors_.push_back(heavy_behavior.get());
      kernel_->AdoptBehavior(std::move(heavy_behavior));
      Task* heavy = kernel_->CreateTask("vcap-heavy-" + std::to_string(i), TaskPolicy::kNormal,
                                        heavy_behaviors_.back(), CpuMask::Single(i));
      heavy->set_exempt_straggler_ban(true);
      kernel_->StartTask(heavy);
      heavy_probers_.push_back(heavy);
    }
  }
  next_event_ =
      sim_->After(0, [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) {
          return;
        }
        BeginWindow();
      });
}

void Vcap::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  sim_->Cancel(next_event_);
  for (ProberBehavior* b : light_behaviors_) {
    b->Disarm();
  }
  for (ProberBehavior* b : heavy_behaviors_) {
    b->Disarm();
  }
  window_active_ = false;
}

void Vcap::BeginWindow() {
  VSCHED_CHECK(running_ && !window_active_);
  window_active_ = true;
  ++windows_started_;
  // The first window is heavy so core capacity is known from the start.
  current_heavy_ = (windows_started_ % config_.heavy_every == 1) || config_.heavy_every == 1;
  TimeNs now = sim_->now();
  window_start_ = now;
  TimeNs window_end = now + config_.sampling_period;

  for (int i = 0; i < kernel_->num_vcpus(); ++i) {
    if (skip_mask_.Test(i)) {
      continue;
    }
    steal_at_start_[i] = kernel_->vcpu(i).StealClock(now);
    if (config_.robust.enabled && prev_window_end_ >= 0 && now > prev_window_end_) {
      // Corroboration signal for the plausibility check: how much steal the
      // vCPU saw while no window was open. A probe-evader concentrates its
      // activity exactly there.
      offwindow_steal_frac_[i] =
          std::clamp(static_cast<double>(steal_at_start_[i] - steal_at_prev_end_[i]) /
                         static_cast<double>(now - prev_window_end_),
                     0.0, 1.0);
    }
    light_behaviors_[i]->Arm(window_end);
    kernel_->WakeTask(light_probers_[i]);
    if (current_heavy_) {
      exec_at_start_[i] = heavy_probers_[i]->total_exec_ns();
      prober_work_at_start_[i] = heavy_behaviors_[i]->work_completed();
      heavy_behaviors_[i]->Arm(window_end);
      kernel_->WakeTask(heavy_probers_[i]);
    }
  }
  next_event_ = sim_->After(
      config_.sampling_period, [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) {
          return;
        }
        EndWindow();
      });
}

void Vcap::EndWindow() {
  VSCHED_CHECK(window_active_);
  window_active_ = false;
  TimeNs now = sim_->now();
  double window = static_cast<double>(now - window_start_);

  for (int i = 0; i < kernel_->num_vcpus(); ++i) {
    if (skip_mask_.Test(i)) {
      continue;
    }
    light_behaviors_[i]->Disarm();
    TimeNs steal_delta = kernel_->vcpu(i).StealClock(now) - steal_at_start_[i];
    double steal_frac =
        std::clamp(static_cast<double>(steal_delta) / window, 0.0, 1.0);

    VcapSample sample;
    sample.heavy = current_heavy_;
    sample.steal_fraction = steal_frac;
    if (current_heavy_) {
      heavy_behaviors_[i]->Disarm();
      TimeNs exec_delta = heavy_probers_[i]->total_exec_ns() - exec_at_start_[i];
      Work work_delta = heavy_behaviors_[i]->work_completed() - prober_work_at_start_[i];
      if (exec_delta > UsToNs(200) && work_delta > 0) {
        core_capacity_[i] = work_delta / static_cast<double>(exec_delta);
      }
    }
    sample.core_capacity = core_capacity_[i];
    double noise = 1.0 + config_.measurement_noise * (rng_.NextDouble() * 2.0 - 1.0);
    sample.vcpu_capacity = core_capacity_[i] * (1.0 - steal_frac) * noise;
    FaultInjector* injector = kernel_->fault_injector();
    if (injector != nullptr) {
      // vsched-lint: allow(fault-injection-point) — registered kVcapWindow site
      if (injector->DropSample(ProbePoint::kVcapWindow)) {
        // Sample lost: keep the previous estimate and score the gap.
        if (config_.robust.enabled) {
          confidence_[i].RecordDropped();
        }
        continue;
      }
      // vsched-lint: allow(fault-injection-point) — registered kVcapWindow site
      sample.vcpu_capacity = injector->CorruptSample(ProbePoint::kVcapWindow, sample.vcpu_capacity);
    }
    if (config_.robust.enabled) {
      // Duty-cycle plausibility: the in-window steal fraction must not
      // undercut what the steal clock showed between windows. A clean noisy
      // neighbor perturbs both readings alike; only activity *timed against
      // the window grid* produces a large one-sided gap.
      const double off_frac = offwindow_steal_frac_[i];
      if (off_frac - steal_frac > config_.robust.plausibility_gap) {
        ++implausible_windows_;
        clear_streak_[i] = 0;
        if (++suspect_streak_[i] >= config_.robust.quarantine_streak && !quarantined_.Test(i)) {
          quarantined_.Set(i);
          ++quarantine_events_;
        }
        // Publish the corroborated pessimistic view instead of the
        // evader-fed one, and score the window as untrustworthy.
        sample.steal_fraction = off_frac;
        sample.vcpu_capacity =
            std::min(sample.vcpu_capacity, core_capacity_[i] * (1.0 - off_frac));
        confidence_[i].RecordRejected();
        last_samples_[i] = sample;
        capacity_ema_[i].Add(sample.vcpu_capacity);
        continue;
      }
      suspect_streak_[i] = 0;
      if (quarantined_.Test(i) && ++clear_streak_[i] >= config_.robust.quarantine_release) {
        quarantined_.Clear(i);
      }
      const double estimate = capacity_ema_[i].has_value() ? capacity_ema_[i].value() : -1.0;
      const bool outlier =
          !WithinOutlierBand(sample.vcpu_capacity, estimate, config_.robust.outlier_ratio);
      // A bounded run of rejections protects the EMA from corrupted samples;
      // past the bound the sample is accepted anyway so a genuine regime
      // change (a real capacity collapse) still gets through.
      if (outlier && confidence_[i].consecutive_rejects() < config_.robust.max_consecutive_rejects) {
        confidence_[i].RecordRejected();
        continue;
      }
      confidence_[i].RecordAccepted();
    }
    last_samples_[i] = sample;
    capacity_ema_[i].Add(sample.vcpu_capacity);
  }
  median_capacity_valid_ = false;
  if (config_.robust.enabled) {
    prev_window_end_ = now;
    for (int i = 0; i < kernel_->num_vcpus(); ++i) {
      steal_at_prev_end_[i] = kernel_->vcpu(i).StealClock(now);
    }
  }
  ++windows_completed_;
  for (auto& cb : window_callbacks_) {
    cb(window_start_, now, current_heavy_);
  }
  if (!running_) {
    return;
  }
  TimeNs next_start = window_start_ + config_.light_interval;
  TimeNs delay = std::max<TimeNs>(0, next_start - now);
  if (config_.robust.enabled && config_.robust.window_jitter > 0) {
    // Anti-evasion jitter: desync the window grid from anything a co-tenant
    // could phase-lock to. Drawn from vcap's own forked stream, so clean
    // runs (robust off) never see the draw.
    delay += rng_.UniformInt(0, config_.robust.window_jitter);
  }
  next_event_ =
      sim_->After(delay, [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) {
          return;
        }
        BeginWindow();
      });
}

double Vcap::CapacityOf(int cpu) const {
  VSCHED_CHECK(cpu >= 0 && cpu < static_cast<int>(capacity_ema_.size()));
  if (!capacity_ema_[cpu].has_value()) {
    return kCapacityScale;
  }
  return capacity_ema_[cpu].value();
}

double Vcap::ConfidenceOf(int cpu) const {
  VSCHED_CHECK(cpu >= 0 && cpu < static_cast<int>(confidence_.size()));
  if (!config_.robust.enabled) {
    return 1.0;
  }
  return confidence_[cpu].confidence();
}

double Vcap::MedianConfidence() const {
  if (!config_.robust.enabled) {
    return 1.0;
  }
  std::vector<double> scores;
  for (int i = 0; i < static_cast<int>(confidence_.size()); ++i) {
    if (!skip_mask_.Test(i)) {
      scores.push_back(confidence_[i].confidence());
    }
  }
  return scores.empty() ? 1.0 : LowerMedian(std::move(scores));
}

double Vcap::MedianCapacity() const {
  if (!median_capacity_valid_) {
    median_capacity_ = ComputeMedianCapacity();
    median_capacity_valid_ = true;
  } else {
    VSCHED_AUDIT_CHECK(median_capacity_ == ComputeMedianCapacity(),
                       "vcap median capacity memo is stale");
  }
  return median_capacity_;
}

double Vcap::ComputeMedianCapacity() const {
  std::vector<double> caps;
  for (int i = 0; i < static_cast<int>(capacity_ema_.size()); ++i) {
    if (!skip_mask_.Test(i) && capacity_ema_[i].has_value()) {
      caps.push_back(capacity_ema_[i].value());
    }
  }
  return caps.empty() ? kCapacityScale : LowerMedian(std::move(caps));
}

}  // namespace vsched
