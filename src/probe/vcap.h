// vcap: the vCPU capacity prober (§3.1).
//
// Cooperative, multi-phase sampling. One prober task per vCPU keeps its vCPU
// busy during a sampling window. In light windows (SCHED_IDLE probers,
// default every second) only steal time is collected — the fraction of the
// window the vCPU wanted to run but was not executing. In heavy windows
// (normal-priority probers, every Nth light window) the prober additionally
// measures its own work rate while actually executing, which is the hosting
// core's capacity (including SMT contention and DVFS). Then:
//
//   vcpu_capacity = core_capacity × (1 − steal_fraction)
//
// smoothed with an EMA ("50% decay per 2 periods", Table 1).
#ifndef SRC_PROBE_VCAP_H_
#define SRC_PROBE_VCAP_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/time.h"
#include "src/guest/cpumask.h"
#include "src/probe/robust.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/guest/task.h"
#include "src/stats/stats.h"

namespace vsched {

class GuestKernel;
class Simulation;

struct VcapConfig {
  TimeNs sampling_period = MsToNs(100);  // window length
  TimeNs light_interval = SecToNs(1);    // window cadence
  int heavy_every = 5;                   // every Nth window is heavy
  double ema_half_life_periods = 2.0;    // "50% per 2 periods"
  // Work chunk per prober burst; small so windows end promptly.
  TimeNs chunk_ns = UsToNs(50);
  // Multiplicative measurement noise on each capacity sample (rdtsc and
  // steal-clock readings jitter on real VMs); the EMA smooths it out.
  double measurement_noise = 0.03;
  // Outlier rejection + confidence scoring under fault injection. Disabled
  // by default: clean runs take the original path bit-for-bit.
  ProbeRobustConfig robust;
};

// One sampling window's outcome for a vCPU (exposed for tests/benches).
struct VcapSample {
  double steal_fraction = 0;
  double core_capacity = kCapacityScale;
  double vcpu_capacity = kCapacityScale;
  bool heavy = false;
};

class Vcap {
 public:
  Vcap(GuestKernel* kernel, VcapConfig config = VcapConfig{});
  ~Vcap();

  Vcap(const Vcap&) = delete;
  Vcap& operator=(const Vcap&) = delete;

  // Begins periodic sampling.
  void Start();
  void Stop();
  bool running() const { return running_; }

  // Smoothed capacity estimate for a vCPU (kCapacityScale units).
  double CapacityOf(int cpu) const;
  // Median of the probed vCPUs' estimates. Memoized: the estimates and the
  // skip mask change only in EndWindow and SetSkipMask, which drop the memo.
  double MedianCapacity() const;
  bool has_results() const { return windows_completed_ > 0; }
  int windows_completed() const { return windows_completed_; }
  const VcapSample& last_sample(int cpu) const { return last_samples_[cpu]; }

  // Confidence in the capacity estimate for a vCPU, in [0, 1]. Always 1.0
  // while the robust layer is disabled; under fault injection it reflects
  // the recent accept/reject/drop history of that vCPU's samples.
  double ConfidenceOf(int cpu) const;
  double MedianConfidence() const;

  // Skips probing on these vCPUs (rwc bans stack-banned vCPUs from vcap).
  void SetSkipMask(CpuMask mask) {
    skip_mask_ = mask;
    median_capacity_valid_ = false;
  }

  // ---- Anti-evasion hardening (robust.enabled only) ----
  // vCPUs whose recent windows were persistently implausible; their
  // published estimates are replaced by the corroborated off-window view.
  CpuMask QuarantinedMask() const { return quarantined_; }
  bool Quarantined(int cpu) const { return quarantined_.Test(cpu); }
  int implausible_windows() const { return implausible_windows_; }
  int quarantine_events() const { return quarantine_events_; }

  // Fired at the end of each sampling window with [start, end). vact hooks
  // in here; the vSched bridge pushes capacities to the kernel.
  using WindowCallback = std::function<void(TimeNs start, TimeNs end, bool heavy)>;
  void AddWindowCallback(WindowCallback cb) { window_callbacks_.push_back(std::move(cb)); }

 private:
  // Deliberate-corruption backdoor for the audit tests (tests/audit/).
  friend struct AuditTestAccess;
  class ProberBehavior;

  void BeginWindow();
  void EndWindow();
  double ComputeMedianCapacity() const;

  GuestKernel* kernel_;
  Simulation* sim_;
  VcapConfig config_;
  Rng rng_;
  bool running_ = false;
  bool window_active_ = false;
  bool current_heavy_ = false;
  int windows_started_ = 0;
  int windows_completed_ = 0;
  TimeNs window_start_ = 0;
  EventId next_event_;

  CpuMask skip_mask_;
  // The prober behaviors belong to the kernel (GuestKernel::AdoptBehavior):
  // prober tasks outlive this Vcap when the VM keeps running after it. The
  // kernel must outlive this Vcap, whose destructor disarms them.
  std::vector<ProberBehavior*> light_behaviors_;
  std::vector<ProberBehavior*> heavy_behaviors_;
  std::vector<Task*> light_probers_;
  std::vector<Task*> heavy_probers_;

  // Window-start snapshots.
  std::vector<TimeNs> steal_at_start_;
  std::vector<TimeNs> exec_at_start_;
  std::vector<Work> prober_work_at_start_;

  // Anti-evasion state (all inert unless robust.enabled): steal clocks at
  // the end of the previous window, the off-window steal fraction derived
  // from them at the next window start, and the per-vCPU plausibility
  // streaks driving quarantine entry/release.
  TimeNs prev_window_end_ = -1;
  std::vector<TimeNs> steal_at_prev_end_;
  std::vector<double> offwindow_steal_frac_;
  std::vector<int> suspect_streak_;
  std::vector<int> clear_streak_;
  CpuMask quarantined_;
  int implausible_windows_ = 0;
  int quarantine_events_ = 0;

  std::vector<Ema> capacity_ema_;
  mutable double median_capacity_ = 0;
  mutable bool median_capacity_valid_ = false;
  std::vector<ConfidenceTracker> confidence_;
  std::vector<double> core_capacity_;  // last heavy-phase core capacity
  std::vector<VcapSample> last_samples_;
  std::vector<WindowCallback> window_callbacks_;

  // Liveness token for posted event closures (the PR-6 pattern, enforced by
  // vsched-lint's event-lifetime rule). Must be the last member so it
  // expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_PROBE_VCAP_H_
