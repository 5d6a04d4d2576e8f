// A single vtop measurement: cache-line transfer probing between two vCPUs
// (§3.1, Figure 7).
//
// Two high-priority prober tasks pinned to the target vCPUs ping-pong a
// cache line. Transfers only complete while both probers are executing
// simultaneously; otherwise the running prober spins, accruing attempts.
// Stacked vCPUs never run simultaneously, so the probe times out with ~zero
// transfers and reports infinite latency. The timeout is extended when few
// transfers were observed, to avoid misidentifying busy-but-unstacked pairs.
//
// The probe observes the pair on a grid of sample instants, one per
// sample_quantum after Start. It does not poll that grid. Between two run
// changes of its vCPUs (GuestKernel's RunChangeWatcher) every sample is
// either a no-op (neither prober runs) or one fixed spin step (exactly one
// runs), so those samples are accounted in bulk at the next change, and the
// sample timer is armed only where a sample can decide something: each
// co-active sample (it draws measurement jitter) and the spin sample that
// reaches the timeout.
#ifndef SRC_PROBE_PAIR_PROBE_H_
#define SRC_PROBE_PAIR_PROBE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/base/time.h"
#include "src/guest/guest_kernel.h"
#include "src/guest/task.h"
#include "src/probe/robust.h"
#include "src/sim/event_queue.h"

namespace vsched {

class Simulation;

struct PairProbeConfig {
  int target_transfers = 500;      // Table 1
  int timeout_attempts = 15000;    // Table 1
  int max_extensions = 3;          // timeout doublings before giving up
  int min_transfers_for_latency = 10;
  TimeNs attempt_period = UsToNs(1);  // one spin attempt per µs
  TimeNs sample_quantum = UsToNs(10);  // a whole number of attempt periods
  double noise = 0.08;  // multiplicative measurement jitter
  // Robust latency estimation under fault injection: the reported latency
  // becomes the median of the first observations instead of the minimum
  // (a single corrupted-low sample would otherwise fake an SMT sibling).
  ProbeRobustConfig robust;
};

inline constexpr double kInfiniteLatency = std::numeric_limits<double>::infinity();

struct PairProbeResult {
  int cpu_a = -1;
  int cpu_b = -1;
  double latency_ns = kInfiniteLatency;  // infinite → stacked
  double transfers = 0;
  TimeNs duration = 0;
  int extensions = 0;
  // Fraction of this probe's transfer observations that survived fault
  // injection; 1.0 on clean runs (and for stacking verdicts, which rest on
  // the absence of transfers rather than on latency samples).
  double confidence = 1.0;
};

class PairProbe : public RunChangeWatcher {
 public:
  using DoneCallback = std::function<void(const PairProbeResult&)>;

  PairProbe(GuestKernel* kernel, int cpu_a, int cpu_b, PairProbeConfig config, DoneCallback done);
  ~PairProbe() override;

  PairProbe(const PairProbe&) = delete;
  PairProbe& operator=(const PairProbe&) = delete;

  void Start();
  bool done() const { return done_reported_; }

  // True once the probe finished AND both spin tasks exited. Destroying a
  // probe earlier is safe (the kernel adopts the spin behaviors until their
  // tasks exit), but Vtop sweeps probes only at this point: destruction
  // frees the sample timer's id for reuse, and reuse order is part of the
  // timers' dispatch order.
  bool CanDestroy() const;

  // RunChangeWatcher:
  void OnRunChange(int cpu) override;

 private:
  friend struct AuditTestAccess;
  class SpinBehavior;

  // A prober runs while its vCPU is active at the host and it is the
  // vCPU's current task.
  bool Running(int cpu, const Task* prober) const;
  // Accounts the grid samples before `end` to the cached run state. Plan()
  // armed the timer at the first sample that could end the probe, so none
  // of these can.
  void Replay(TimeNs end);
  // Arms the sample timer at the next sample that needs Sample() under the
  // cached run state, or cancels it if none does.
  void Plan();
  void Sample();
  void Finish(double latency);

  GuestKernel* kernel_;
  Simulation* sim_;
  int cpu_a_;
  int cpu_b_;
  PairProbeConfig config_;
  DoneCallback done_;

  std::unique_ptr<SpinBehavior> spin_a_;
  std::unique_ptr<SpinBehavior> spin_b_;
  Task* prober_a_ = nullptr;
  Task* prober_b_ = nullptr;

  TimeNs started_at_ = 0;
  double transfers_ = 0;
  // Whole attempts (the constructor checks that a quantum holds a whole
  // number of attempt periods), so n spin samples add exactly
  // n * attempts_per_sample_ and Replay/Plan need no per-sample loop.
  int64_t attempts_ = 0;
  int64_t attempts_per_sample_ = 0;
  int64_t current_timeout_ = 0;
  int extensions_ = 0;
  double min_latency_seen_ = kInfiniteLatency;
  // First observations (bounded), for the robust median estimate.
  std::vector<double> observations_;
  uint64_t samples_kept_ = 0;
  uint64_t samples_dropped_ = 0;
  bool done_reported_ = false;
  // First grid instant (started_at_ + k * sample_quantum) not yet accounted.
  TimeNs next_sample_ = 0;
  // Run state of the probers as of the last run change.
  bool a_running_ = false;
  bool b_running_ = false;
  // Registered once and re-armed in place (Plan). Registering it in the
  // constructor keeps every other timer's id, and so the dispatch order,
  // independent of how often it fires.
  TimerId sample_timer_ = kInvalidTimerId;

  // Liveness token for posted event closures (the PR-6 pattern, enforced by
  // vsched-lint's event-lifetime rule). Must be the last member so it
  // expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_PROBE_PAIR_PROBE_H_
