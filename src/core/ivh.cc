#include "src/core/ivh.h"

#include "src/base/check.h"
#include "src/guest/guest_kernel.h"
#include "src/probe/vact.h"
#include "src/probe/vcap.h"
#include "src/sim/simulation.h"

namespace vsched {

Ivh::Ivh(GuestKernel* kernel, Vcap* vcap, Vact* vact, IvhConfig config)
    : kernel_(kernel), vcap_(vcap), vact_(vact), config_(config) {
  handshakes_.resize(kernel_->num_vcpus());
}

void Ivh::Install() {
  kernel_->AddTickHook(
      [this, alive = std::weak_ptr<const bool>(alive_)](GuestVcpu* v, TimeNs now) {
        if (alive.expired()) {
          return;
        }
        OnTick(v, now);
      });
}

void Ivh::OnTick(GuestVcpu* v, TimeNs now) {
  int src = v->index();
  Handshake& hs = handshakes_[src];
  if (hs.inflight) {
    if (now - hs.started > config_.handshake_timeout) {
      ++abandoned_;
      FinishHandshake(src, /*success=*/false);
    }
    return;
  }
  if (degraded_) {
    return;  // Untrusted activity estimates: start no new harvests.
  }
  Task* curr = v->current();
  if (curr == nullptr || curr->policy() == TaskPolicy::kIdle) {
    return;
  }
  if (curr->UtilAt(now) < config_.cpu_intensive_util) {
    return;
  }
  if (now - curr->stint_start() < config_.migration_threshold) {
    return;
  }
  if (vact_->LatencyOf(src) < config_.min_source_latency_ns) {
    return;  // The source shows no inactivity: nothing to harvest around.
  }
  int dst = FindTarget(curr, src, now);
  if (dst < 0) {
    return;
  }
  ++attempts_;
  if (!config_.activity_aware) {
    // Ablation (Table 4): migrate blindly; the task may sit on an inactive
    // target's runqueue for a long migration delay.
    if (kernel_->MigrateRunningTask(curr, src, dst)) {
      ++completed_;
    } else {
      ++abandoned_;
    }
    return;
  }
  BeginHandshake(curr, src, dst, now);
}

int Ivh::FindTarget(Task* task, int src, TimeNs now) {
  // Target must be unused by normal work (so never `src`, which runs `task`).
  CpuMask candidates = kernel_->EffectiveAllowed(task) & kernel_->NoNormalWorkMask();
  double src_cap = vcap_->CapacityOf(src);
  int best = -1;
  int best_score = 1 << 30;
  for (int cpu : candidates) {
    if (vcap_->CapacityOf(cpu) < 0.5 * src_cap) {
      continue;  // Too weak to be worth harvesting onto.
    }
    int score;
    if (!config_.activity_aware) {
      score = 0;
    } else {
      VcpuStateView state = vact_->QueryState(cpu);
      if (!state.inactive) {
        // Active with (at most) sched_idle work: migration can complete with
        // minimal delay.
        score = 0;
      } else {
        double inactive_for = static_cast<double>(now - state.since);
        double latency = vact_->LatencyOf(cpu);
        // Long-inactive targets are about to be rescheduled; short-inactive
        // ones may keep us waiting.
        score = inactive_for >= latency ? 1 : 2;
      }
    }
    if (score < best_score) {
      best_score = score;
      best = cpu;
      if (score == 0) {
        break;
      }
    }
  }
  return best;
}

void Ivh::BeginHandshake(Task* task, int src, int dst, TimeNs now) {
  Handshake& hs = handshakes_[src];
  hs.inflight = true;
  hs.id = next_id_++;
  hs.task = task;
  hs.src = src;
  hs.dst = dst;
  hs.started = now;
  hs.src_steal_at_start = kernel_->vcpu(src).StealClock(now);
  hs.target_holding = false;
  uint64_t id = hs.id;
  // Step 1: interrupt the target; pre-wake it if halted.
  kernel_->RunOnVcpu(
      dst,
      [this, src, id, alive = std::weak_ptr<const bool>(alive_)] {
        if (!alive.expired()) TargetActivated(src, id);
      },
      /*kick=*/true);
}

void Ivh::TargetActivated(int src, uint64_t id) {
  Handshake& hs = handshakes_[src];
  if (!hs.inflight || hs.id != id) {
    return;  // Stale: the handshake timed out or was replaced.
  }
  // Step 2: the target issues the pull request and spins until migration
  // completes (or the source abandons).
  hs.target_holding = true;
  kernel_->vcpu(hs.dst).HoldSpin();
  kernel_->RunOnVcpu(
      src,
      [this, src, id, alive = std::weak_ptr<const bool>(alive_)] {
        if (!alive.expired()) StopperRun(src, id);
      },
      /*kick=*/false);
}

void Ivh::StopperRun(int src, uint64_t id) {
  Handshake& hs = handshakes_[src];
  if (!hs.inflight || hs.id != id) {
    return;
  }
  TimeNs now = kernel_->sim()->now();
  GuestVcpu& v = kernel_->vcpu(src);
  // Abandon if the task already stalled (the pull request arrived late): a
  // steal-time increase on the source since the handshake began means the
  // task was preempted in the meantime, so there is no benefit left.
  TimeNs steal_now = v.StealClock(now);
  bool stalled = steal_now - hs.src_steal_at_start > UsToNs(50);
  bool still_running = v.current() == hs.task;
  if (!still_running || stalled) {
    ++abandoned_;
    FinishHandshake(src, /*success=*/false);
    return;
  }
  // Step 3: detach the running task and attach it to the target.
  if (kernel_->MigrateRunningTask(hs.task, src, hs.dst)) {
    ++completed_;
    FinishHandshake(src, /*success=*/true);
  } else {
    ++abandoned_;
    FinishHandshake(src, /*success=*/false);
  }
}

void Ivh::FinishHandshake(int src, bool success) {
  (void)success;
  Handshake& hs = handshakes_[src];
  VSCHED_CHECK(hs.inflight);
  if (hs.target_holding) {
    kernel_->vcpu(hs.dst).ReleaseSpin();
    hs.target_holding = false;
  }
  hs.inflight = false;
  hs.task = nullptr;
}

}  // namespace vsched
