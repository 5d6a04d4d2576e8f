// A host-schedulable context: a vCPU thread or a host-level task.
//
// Host entities are time-shared on one hardware thread by CpuSched. The
// entity exposes "wants to run" (a vCPU wants to run when its guest has
// runnable work; a stressor toggles it on a duty cycle) and receives
// scheduled-in/out and rate-change callbacks. Accounting distinguishes
// running, stolen (runnable or throttled but not running — what the guest
// observes as steal time), and halted time.
#ifndef SRC_HOST_HOST_ENTITY_H_
#define SRC_HOST_HOST_ENTITY_H_

#include <string>

#include "src/base/time.h"
#include "src/sim/timer_wheel.h"

namespace vsched {

class CpuSched;
class Simulation;

class HostEntity {
 public:
  // `rt` entities strictly preempt fair-class ones (models the host-side
  // high-priority stressor used in the straggler experiments).
  HostEntity(std::string name, double weight = 1024.0, bool rt = false);
  virtual ~HostEntity();

  HostEntity(const HostEntity&) = delete;
  HostEntity& operator=(const HostEntity&) = delete;

  const std::string& name() const { return name_; }
  double weight() const { return weight_; }
  bool rt() const { return rt_; }

  // CFS-bandwidth-style cap: at most `quota` of runtime per `period`.
  // Must be set before the entity is attached, or while detached.
  void SetBandwidth(TimeNs quota, TimeNs period);
  void ClearBandwidth();
  bool has_bandwidth() const { return bw_period_ > 0; }
  TimeNs bw_quota() const { return bw_quota_; }
  TimeNs bw_period() const { return bw_period_; }

  // Owner-driven demand. A transition to true makes the entity eligible; to
  // false it is dequeued (vCPU halt). Safe to call when unattached.
  void SetWantsToRun(bool wants);
  bool wants_to_run() const { return wants_to_run_; }

  // Migration blackout: a paused entity stays attached (tid() remains valid,
  // so topology queries keep working) but never enters the runqueue. Paused
  // time with pending demand accounts as steal — exactly what a guest
  // observes during a live-migration downtime window. Safe when unattached.
  void SetPaused(bool paused);
  bool paused() const { return paused_; }

  bool running() const { return running_; }
  double vruntime() const { return vruntime_; }
  bool throttled() const { return throttled_; }
  bool attached() const { return sched_ != nullptr; }

  // Hardware thread this entity is attached to (-1 when detached).
  int tid() const;

  // Accumulated accounting (updated lazily; call Sync* first for precision).
  TimeNs ran_ns(TimeNs now) const;
  TimeNs steal_ns(TimeNs now) const;
  TimeNs halted_ns(TimeNs now) const;

 protected:
  // Invoked by CpuSched. `now` is the simulation time of the transition.
  virtual void ScheduledIn(TimeNs now) { (void)now; }
  virtual void ScheduledOut(TimeNs now) { (void)now; }
  // The effective speed of the underlying hardware thread changed (SMT
  // sibling busy-state or frequency change) while this entity is running.
  virtual void RateChanged(TimeNs now) { (void)now; }

 private:
  friend class CpuSched;

  // Folds elapsed time since the last transition into the accumulators.
  void SyncAccounting(TimeNs now) const;

  std::string name_;
  double weight_;
  bool rt_;

  // Scheduler state, owned by CpuSched.
  CpuSched* sched_ = nullptr;
  double vruntime_ = 0;
  bool wants_to_run_ = false;
  bool running_ = false;
  bool throttled_ = false;
  bool queued_ = false;
  bool paused_ = false;

  // Bandwidth control. The refill is a periodic wheel timer (timer band);
  // bw_refill_origin_ pins its grid so a dormant refill (the host parks the
  // timer while the entity is off-CPU, unthrottled, and fully refilled)
  // resumes on exactly the phase it would have kept. bw_refill_armed_ is the
  // dormancy flag; CpuSched::PickNext re-arms before the entity runs again.
  TimeNs bw_quota_ = 0;
  TimeNs bw_period_ = 0;
  TimeNs bw_used_ = 0;
  TimerId bw_refill_timer_ = kInvalidTimerId;
  TimeNs bw_refill_origin_ = 0;
  bool bw_refill_armed_ = false;

  // Accounting.
  mutable TimeNs acct_last_ = 0;
  mutable TimeNs acct_ran_ = 0;
  mutable TimeNs acct_steal_ = 0;
  mutable TimeNs acct_halted_ = 0;
};

}  // namespace vsched

#endif  // SRC_HOST_HOST_ENTITY_H_
