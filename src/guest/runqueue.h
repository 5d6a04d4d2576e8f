// Per-vCPU CFS runqueue: runnable tasks ordered by vruntime.
//
// The currently running task is held by the vCPU, not the queue (enqueued
// only when preempted), mirroring CFS structure closely enough for the
// heuristics that matter here: min-vruntime pick, SCHED_IDLE subordination,
// and load sums for balancing.
//
// Storage is a pair of flat entry vectors kept sorted ascending by
// (vruntime, id) — binary-search insert, memmove erase. Each entry carries
// the ordering keys *inline* (vruntime, vdeadline, id) next to the Task
// pointer, snapshotted at Enqueue: the kernel only writes those fields while
// a task is running or immediately before Enqueue, never while queued (the
// invariant the ordered set this replaced always required, now re-checked by
// AuditVerify). Inline keys make the hot operations — binary-search
// comparisons on enqueue/dequeue and the EEVDF eligibility scan — straight
// contiguous reads with no Task dereference per element. Observed queue
// depths in the paper deployments are small (tens of tasks), where this
// layout beats pointer-chasing by a wide margin: the leftmost (minimum)
// entry is always front(), picks are O(1) cache-hot reads, and
// enqueue/dequeue touch one cache line per shifted element.
#ifndef SRC_GUEST_RUNQUEUE_H_
#define SRC_GUEST_RUNQUEUE_H_

#include <cstdint>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/guest/task.h"

namespace vsched {

class Runqueue {
 public:
  // Selects the pick policy: CFS (leftmost vruntime) or EEVDF (earliest
  // eligible virtual deadline first). vSched is scheduler-agnostic (§4);
  // both policies share the same enqueue/placement machinery.
  void SetEevdf(bool enabled) { eevdf_ = enabled; }
  bool eevdf() const { return eevdf_; }

  void Enqueue(Task* task);
  void Dequeue(Task* task);
  bool Contains(const Task* task) const;

  // Next task to run: normal-policy tasks strictly before SCHED_IDLE ones,
  // minimum vruntime within a class. nullptr when empty.
  Task* Pick() const;

  size_t size() const { return normal_.size() + idle_.size(); }
  size_t normal_count() const { return normal_.size(); }
  size_t idle_count() const { return idle_.size(); }
  bool empty() const { return normal_.empty() && idle_.empty(); }

  // True when the queue holds only best-effort (SCHED_IDLE) tasks.
  bool OnlyIdleTasks() const { return normal_.empty() && !idle_.empty(); }

  // Sum of queued normal-task weights (for load balancing). Maintained as a
  // Neumaier-compensated sum so weight add/remove churn over long sweeps
  // cannot drift the total negative.
  double load() const { return load_ + load_comp_; }

  // Largest vruntime floor seen, used to place migrated-in tasks fairly.
  double min_vruntime() const { return min_vruntime_; }
  void RaiseMinVruntime(double v);

  // Full structural self-check, reported through src/base/audit.h: both
  // vectors sorted by (vruntime, id), every task filed under its policy
  // class, inline key snapshots still equal to each task's live fields (no
  // mutation-while-queued), and the Neumaier-compensated load within float
  // tolerance of an exact recompute. Runs automatically after every mutation
  // while auditing is enabled; safe to call directly at any time.
  void AuditVerify() const;

  // Steals the best migratable normal task matching `allowed_filter`
  // semantics; iteration helpers for the balancer. Visits normal tasks then
  // idle tasks, each in ascending (vruntime, id) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : normal_) {
      fn(e.task);
    }
    for (const Entry& e : idle_) {
      fn(e.task);
    }
  }

 private:
  // Deliberate-corruption backdoor for the audit tests (tests/audit/); never
  // referenced by the library itself.
  friend struct AuditTestAccess;

  // One queued task with its ordering keys snapshotted inline. Keys are
  // immutable while the task is queued, so the snapshot never goes stale.
  struct Entry {
    double vruntime;
    double vdeadline;
    uint64_t id;
    Task* task;
  };

  // Strict weak order on (vruntime, id); ids are unique, so keys are too.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.vruntime != b.vruntime) {
      return a.vruntime < b.vruntime;
    }
    return a.id < b.id;
  }

  // Binary search for the exact position of `task` in a (vruntime, id)-sorted
  // entry vector; end() when absent.
  static std::vector<Entry>::const_iterator Find(const std::vector<Entry>& v, const Task* task);

  Task* PickEevdf() const;
  void AddLoad(double w);

  bool eevdf_ = false;
  std::vector<Entry> normal_;
  std::vector<Entry> idle_;
  double load_ = 0;
  double load_comp_ = 0;  // Neumaier compensation term
  double min_vruntime_ = 0;
  PerfCounters* counters_ = PerfCounters::Current();
};

}  // namespace vsched

#endif  // SRC_GUEST_RUNQUEUE_H_
