// Per-hardware-thread host scheduler (the hypervisor's CPU scheduler).
//
// A simplified-but-faithful CFS: entities are picked by minimum vruntime
// (with an RT tier above the fair tier), run for min-granularity slices,
// receive wakeup credit bounded by the queue's min_vruntime, and honour
// CFS-bandwidth throttling. The knobs — min granularity, wakeup granularity,
// bandwidth quota/period, entity weights, RT stressors — are exactly the ones
// the paper uses on the host to shape vCPU capacity, latency, and activity
// (§5.1).
#ifndef SRC_HOST_CPU_SCHED_H_
#define SRC_HOST_CPU_SCHED_H_

#include <memory>
#include <vector>

#include "src/base/time.h"
#include "src/host/host_entity.h"
#include "src/host/topology.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace vsched {

class HostMachine;
class Simulation;

struct HostSchedParams {
  // Slice length for the fair tier (sched_min_granularity_ns analogue).
  TimeNs min_granularity = MsToNs(3);
  // A waking entity preempts the current one only if the current has already
  // run at least this long (sched_wakeup_granularity_ns analogue).
  TimeNs wakeup_granularity = MsToNs(1);
  // Dormant refills: a bandwidth-refill timer whose firing would be a no-op
  // (entity off-CPU, unthrottled, quota already full) goes dormant instead of
  // re-arming; PickNext re-arms it on the refill grid before the entity runs
  // again, so observable state matches a refill that never stopped. `false`
  // is only the ticking reference of the TicklessTwin tests
  // (tests/runner/tickless_twin_test.cc); no other code sets it to false.
  bool tickless = true;
};

class CpuSched {
 public:
  // Params are a shared immutable snapshot so a fleet of thousands of
  // hardware threads references one copy instead of holding one each.
  CpuSched(Simulation* sim, HostMachine* machine, HwThreadId tid,
           std::shared_ptr<const HostSchedParams> params);
  ~CpuSched();

  CpuSched(const CpuSched&) = delete;
  CpuSched& operator=(const CpuSched&) = delete;

  HwThreadId tid() const { return tid_; }
  TimeNs now() const;
  const HostSchedParams& params() const { return *params_; }
  // Replaces this thread's snapshot (other threads keep the old one).
  void set_params(HostSchedParams params) {
    params_ = std::make_shared<const HostSchedParams>(params);
  }

  // Entity lifecycle. An attached entity competes for this hardware thread
  // whenever it wants to run.
  void Attach(HostEntity* e);
  void Detach(HostEntity* e);

  // Demand transitions (invoked from HostEntity::SetWantsToRun).
  void EntityWoke(HostEntity* e);
  void EntitySlept(HostEntity* e);

  // Re-shapes an attached entity's CFS-bandwidth cap in place (bandwidth
  // jitter injection, runtime reconfiguration): unlike detach/re-attach, the
  // entity keeps its vruntime and queue position. quota == period == 0
  // removes the cap. The new period starts a fresh refill grid (same
  // per-thread stagger rule as Attach) with a full quota; an entity
  // throttled under the old cap becomes runnable immediately.
  void SetBandwidthLive(HostEntity* e, TimeNs quota, TimeNs period);

  HostEntity* current() const { return current_; }
  bool busy() const { return current_ != nullptr; }
  size_t attached_count() const { return entities_.size(); }
  size_t runnable_count() const;

  // Called by the machine when this thread's effective speed changed while
  // an entity is running (SMT sibling toggled or frequency changed).
  void NotifyRateChanged(TimeNs now);

  // Full structural self-check, reported through src/base/audit.h: queue and
  // current-entity bookkeeping flags agree, every attached entity points back
  // here, and bandwidth accounting never goes negative. Runs automatically
  // after every scheduling transition while auditing is enabled.
  void AuditVerify() const;

 private:
  friend class HostEntity;

  void PickNext(TimeNs now);
  void PutCurrent(TimeNs now, bool requeue);
  void OnSliceEnd();
  void UpdateCurrentRuntime(TimeNs now);
  void RefreshMinVruntime();
  void ArmSliceTimer(TimeNs now);
  void ThrottleCurrent(TimeNs now);
  void RefillBandwidth(HostEntity* e);

  Simulation* sim_;
  HostMachine* machine_;
  HwThreadId tid_;
  std::shared_ptr<const HostSchedParams> params_;

  std::vector<HostEntity*> entities_;  // all attached
  std::vector<HostEntity*> queue_;     // runnable, excluding current
  HostEntity* current_ = nullptr;
  Rng rng_;
  TimeNs current_since_ = 0;   // when current_ started this stint
  TimeNs last_runtime_sync_ = 0;
  // Slice-end and bandwidth-throttle deadlines are timers registered once
  // and re-armed in place: both are cancelled/re-armed on every dispatch,
  // which as one-shot events made them the queue's dominant churn
  // (fresh closure + O(log n) sift per context switch). The throttle timer
  // is shared: a throttle deadline only ever exists for current_.
  TimerId slice_timer_ = kInvalidTimerId;
  TimerId throttle_timer_ = kInvalidTimerId;
  double min_vruntime_ = 0;

  // Liveness token for event closures (slice/throttle/refill timers) posted
  // to the simulation: the closure no-ops once this scheduler is gone (the
  // PR-6 pattern, enforced by vsched-lint's event-lifetime rule). Must be
  // the last member so it expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_HOST_CPU_SCHED_H_
