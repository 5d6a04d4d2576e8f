// vact: the vCPU activity prober (§3.1).
//
// Kernel-side instrumentation on the scheduler tick provides two signals
// without any hypervisor support:
//  * a heartbeat timestamp per vCPU — a stale heartbeat means the vCPU is
//    not executing (preempted or halted);
//  * steal-time jumps — a tick that observes a large increase in steal time
//    since the previous tick means the vCPU was preempted and has just been
//    rescheduled; counting qualified jumps per window yields the average
//    inactive period, exposed as the new abstraction "vCPU latency".
#ifndef SRC_PROBE_VACT_H_
#define SRC_PROBE_VACT_H_

#include <memory>
#include <vector>

#include "src/base/time.h"
#include "src/probe/robust.h"
#include "src/sim/event_queue.h"
#include "src/stats/stats.h"

namespace vsched {

class GuestKernel;
class GuestVcpu;
class Simulation;

struct VactConfig {
  // Steal increase below this per tick is filtered as noise (instantaneous
  // host-system tasks).
  TimeNs steal_jump_threshold = UsToNs(200);
  // Heartbeat older than this many ticks → vCPU considered inactive.
  int inactive_after_ticks = 3;
  // Interval between latency-estimate updates.
  TimeNs update_interval = SecToNs(1);
  // Smoothing across windows.
  double ema_half_life_windows = 2.0;
  // Confidence scoring under fault injection (tick-sample dropout, stale
  // windows). Disabled by default.
  ProbeRobustConfig robust;
};

// Near-real-time activity of one vCPU as seen by an examiner.
struct VcpuStateView {
  bool inactive = false;
  TimeNs since = 0;  // when the current state (approximately) began
};

class Vact {
 public:
  Vact(GuestKernel* kernel, VactConfig config = VactConfig{});

  Vact(const Vact&) = delete;
  Vact& operator=(const Vact&) = delete;

  // Installs the tick instrumentation and the periodic latency updates.
  void Start();
  // Cancels the pending window event: the prober may be destroyed right
  // after (VM teardown mid-simulation) without leaving a dangling callback.
  void Stop();

  // Average vCPU inactive period — the "vCPU latency" abstraction (ns).
  double LatencyOf(int cpu) const;
  // Median of the latency estimates. Memoized: the estimates change only in
  // OnWindowEnd, which drops the memo.
  double MedianLatency() const;

  // Average vCPU active period between preemptions (ns).
  double ActivePeriodOf(int cpu) const;

  // Heartbeat-based state query (the new kernel function of §4).
  VcpuStateView QueryState(int cpu) const;

  // Confidence in the latency estimate, in [0, 1]; 1.0 while the robust
  // layer is disabled. Reflects recent windows: updated estimates score
  // high, windows with dropped tick samples or stale estimates score low.
  double ConfidenceOf(int cpu) const;
  double MedianConfidence() const;

  // Preemptions detected in the last completed window (for tests).
  int LastWindowPreemptions(int cpu) const { return last_window_preempts_[cpu]; }
  bool has_results() const { return windows_completed_ > 0; }

  // Anti-evasion detection: windows attributed to sub-threshold theft
  // (substantial steal, zero qualified jumps). Nonzero only with the robust
  // layer enabled — the cycle-stealer detection signal.
  int subthreshold_windows() const { return subthreshold_windows_; }

 private:
  // Deliberate-corruption backdoor for the audit tests (tests/audit/).
  friend struct AuditTestAccess;

  void OnTick(GuestVcpu* v, TimeNs now);
  void OnWindowEnd();
  double ComputeMedianLatency() const;

  GuestKernel* kernel_;
  Simulation* sim_;
  VactConfig config_;
  bool running_ = false;
  bool hook_installed_ = false;
  int windows_completed_ = 0;
  EventId window_event_;

  std::vector<TimeNs> heartbeat_;
  std::vector<TimeNs> last_tick_steal_;
  std::vector<TimeNs> became_active_at_;
  std::vector<int> window_preempts_;
  std::vector<int> last_window_preempts_;
  std::vector<TimeNs> window_start_steal_;
  TimeNs window_start_ = 0;
  std::vector<Ema> latency_ema_;
  mutable double median_latency_ = 0;
  mutable bool median_latency_valid_ = false;
  std::vector<Ema> active_period_ema_;
  std::vector<ConfidenceTracker> confidence_;
  std::vector<int> window_drops_;  // tick samples dropped this window
  std::vector<int> window_ticks_;  // ticks that fired this window (incl. drops)
  int subthreshold_windows_ = 0;   // windows attributed to sub-threshold theft

  // Liveness token for posted event closures (the PR-6 pattern, enforced by
  // vsched-lint's event-lifetime rule). Must be the last member so it
  // expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_PROBE_VACT_H_
