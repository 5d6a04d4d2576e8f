// Hierarchical timing wheel for periodic and near-future timers.
//
// Linux's kernel/time/timer.c popularised this layout: levels of 64 buckets
// each, where level k buckets span 2^(10+6k) ns. Arming hashes a deadline to
// a bucket in O(1); as the dispatch cursor reaches a bucket at level k its
// timers cascade down to level k-1 (or into a small ready heap once they are
// inside level 0's horizon). Periodic re-arms — the simulator's dominant
// timer pattern after the tickless work — therefore never touch the main
// 4-ary event heap at all.
//
// Determinism contract. The wheel forms a "timer band" that the Simulation
// run loop drains *before* heap events at the same timestamp. Within the
// band, timers fire in (deadline, TimerId) order; TimerIds are assigned at
// Register() time and are stable across re-arms, so a construction-order
// registration sequence yields the same dispatch order whether or not any
// individual firing was elided in between (an elided firing schedules
// nothing and mutates nothing, so it cannot shift its neighbours). FIFO
// among same-deadline timers falls out of registration order the same way
// the heap's sequence numbers provided it.
//
// Cascades are deterministic: expanding a bucket re-inserts its timers in
// slot order, and slots only permute through explicit Cancel calls which are
// themselves deterministic. Cancel in a bucket is O(1) swap-remove via
// per-timer (level, bucket, slot) back-pointers; cancel in the ready heap is
// lazy (an epoch bump invalidates the entry in place).
#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/sim/event_callback.h"

namespace vsched {

// Stable handle for a registered timer. 0 is never a valid id.
using TimerId = uint32_t;
inline constexpr TimerId kInvalidTimerId = 0;

class TimerWheel {
 public:
  static constexpr int kLevels = 8;
  static constexpr int kLevelBits = 6;           // 64 buckets per level
  static constexpr int kBuckets = 1 << kLevelBits;
  static constexpr int kShift0 = 10;             // level-0 granularity: 1024 ns

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Registers a timer slot with its callback. The callback is stored once
  // and reused across every re-arm, so steady-state arming allocates
  // nothing. Ids are recycled LIFO by Unregister, which keeps id sequences
  // identical between runs that register/unregister in the same order.
  TimerId Register(EventCallback fn);

  // Cancels (if armed) and retires the id for reuse.
  void Unregister(TimerId id);

  // Arms (or re-arms) the timer to fire at `when`. `when` must not precede
  // the most recently dispatched deadline — the wheel never re-opens the
  // past. Arming at the currently dispatching timestamp is allowed; the
  // timer fires this instant iff its id is still ahead of the dispatch
  // position (see StillFiresAt).
  void Arm(TimerId id, TimeNs when);

  // Arms each (id, when) pair in index order — observably equivalent to N
  // Arm() calls (the band fires in (deadline, TimerId) order, which no
  // insertion order can change), but pays the lower-bound update and the
  // perf-counter traffic once per batch instead of per timer.
  void ArmBatch(const std::vector<std::pair<TimerId, TimeNs>>& items);

  // Disarms the timer. Returns true if it was armed.
  bool Cancel(TimerId id);

  bool IsArmed(TimerId id) const;

  // Deadline of an armed timer; kTimeInfinity if unarmed.
  TimeNs ArmedAt(TimerId id) const;

  // Returns the exact earliest pending deadline if it is <= `limit`, else
  // kTimeInfinity. Cascades buckets as needed, but never advances the
  // cursor past `limit` (or past the earliest ready deadline), so probing
  // with a near horizon stays cheap even when far-future timers exist.
  TimeNs NextDeadlineAtMost(TimeNs limit);

  // Pops and runs the earliest timer, which must have deadline `when` as
  // just returned by NextDeadlineAtMost. The callback may re-arm its own or
  // other timers.
  void RunOne(TimeNs when);

  // True if a timer re-armed *now* for deadline `when` (== the timestamp
  // currently being dispatched) would still fire this instant: the wheel
  // has not yet dispatched any timer at `when` with an id >= `id`. Used by
  // tickless re-arm logic to decide between "fire in natural band position
  // now" and "next grid point".
  bool StillFiresAt(TimerId id, TimeNs when) const {
    return !(fired_any_ && last_fire_when_ == when && band_high_id_ >= id);
  }

  size_t ArmedCount() const { return armed_count_; }
  uint64_t fired_count() const { return fired_; }

  // Read-only invariant sweep (see src/base/audit.h): bucket membership
  // matches each deadline's level/bucket hash, occupancy bitmaps agree with
  // bucket contents, back-pointers are self-consistent, no armed timer is
  // lost or duplicated across cascades, and every live deadline is at or
  // after the last dispatched one (monotone dispatch).
  void AuditVerify() const;

 private:
  friend struct AuditTestAccess;

  enum class State : uint8_t { kIdle, kBucket, kReady };

  struct Timer {
    EventCallback fn;
    TimeNs deadline = kTimeInfinity;
    uint32_t epoch = 0;  // bumped on every arm/cancel/fire: invalidates ready entries
    State state = State::kIdle;
    bool registered = false;
    int8_t level = -1;
    uint8_t bucket = 0;
    uint32_t slot = 0;
  };

  // Ready heap entry. Ordered by (deadline, id) only: epochs differ between
  // elided and non-elided runs, but at most one entry per (deadline, id) is
  // live at a time, so their relative order among stale twins is never
  // observable.
  struct ReadyEntry {
    TimeNs deadline;
    TimerId id;
    uint32_t epoch;
  };

  static constexpr int Shift(int level) { return kShift0 + level * kLevelBits; }
  // Width of one bucket at `level`, in ns.
  static constexpr TimeNs BucketWidth(int level) { return TimeNs{1} << Shift(level); }

  Timer& At(TimerId id) { return timers_[id - 1]; }
  const Timer& At(TimerId id) const { return timers_[id - 1]; }

  std::vector<uint32_t>& Bucket(int level, int bucket) {
    return buckets_[static_cast<size_t>(level) * kBuckets + static_cast<size_t>(bucket)];
  }
  const std::vector<uint32_t>& Bucket(int level, int bucket) const {
    return buckets_[static_cast<size_t>(level) * kBuckets + static_cast<size_t>(bucket)];
  }

  // Places an armed timer into the right bucket (or the ready heap) given
  // the current cursor.
  void Insert(TimerId id, TimeNs when);
  void PushReady(TimerId id, TimeNs when);
  // Removes the timer from its bucket (state kBucket only).
  void RemoveFromBucket(TimerId id);
  // Drops stale ready entries; returns the earliest live ready deadline or
  // kTimeInfinity.
  TimeNs PruneReadyMin();
  // Moves every timer of bucket (level, b) — whose start is `start` ==
  // cursor_ after the caller advanced it — down a level or into ready.
  void ExpandBucket(int level, int bucket);
  // Absolute start time of the lap of bucket `b` at `level` that is at or
  // after the cursor (a bucket whose current-lap start has been passed
  // belongs to the next lap; an exactly-cursor-aligned start counts as the
  // current lap).
  TimeNs BucketStart(int level, int bucket) const;

  // deque: callbacks run in place out of a Timer slot, and a callback may
  // Register() new timers — slot addresses must survive growth.
  std::deque<Timer> timers_;
  std::vector<TimerId> free_ids_;  // LIFO recycling
  std::vector<uint32_t> buckets_[static_cast<size_t>(kLevels) * kBuckets];
  uint64_t occupancy_[kLevels] = {};
  std::vector<ReadyEntry> ready_;     // binary min-heap by (deadline, id)
  std::vector<uint32_t> expand_scratch_;
  TimeNs cursor_ = 0;                 // wheel horizon: all buckets start >= here
  // No armed deadline is below this. Arm lowers it (min-update); Cancel and
  // RunOne can only raise the true minimum, so it stays valid; a full probe
  // tightens it. Lets the run loop's per-heap-event probe exit in O(1)
  // between timer firings. Pure caching: never changes a probe's result.
  TimeNs lower_bound_ = 0;
  // No *bucketed* deadline is below this (kTimeInfinity while no bucket is
  // occupied). Insert min-updates it; cancels and cascades only raise the
  // true bucket minimum, so it stays a valid (if loose) bound until the next
  // full probe scan tightens it. Lets NextDeadlineAtMost answer straight
  // from the ready heap — the common case, since every firing timer passes
  // through ready — without scanning bucket occupancy at all.
  TimeNs bucket_lower_bound_ = kTimeInfinity;
  size_t armed_count_ = 0;
  uint64_t fired_ = 0;
  bool fired_any_ = false;
  TimeNs last_fire_when_ = 0;
  TimerId band_high_id_ = kInvalidTimerId;  // highest id fired at last_fire_when_
  // Cached once, like EventQueue does: Current() is a TLS read behind an
  // init guard, too hot to re-resolve on every arm/fire.
  PerfCounters* counters_ = PerfCounters::Current();
};

}  // namespace vsched

#endif  // SRC_SIM_TIMER_WHEEL_H_
