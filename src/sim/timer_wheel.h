// The timer band: every armed timer on one position-indexed 4-ary min-heap.
//
// Guest ticks, host slices and refills, burst completions, probe chunks and
// request arrivals all reach the simulator as timers that fire at their
// exact deadline. A cell holds about a hundred armed timers at most (a `dc`
// fleet cell a few hundred), so an ordered structure beats Linux's
// hierarchical wheel here, whose levels pay only for coarse timeouts that are
// mostly cancelled; Linux keeps its exact-expiry timers on an ordered tree
// (hrtimers) for the same reason. The class keeps the name TimerWheel because
// perfbench drives it by that name.
//
// Heap nodes are (deadline, TimerId) pairs in one dense vector, and each
// timer's heap position lives in a dense array indexed by id. Arming pushes
// and sifts up, re-arming re-keys in place with one sift, Cancel removes the
// node at its position, and the earliest deadline is the root.
//
// Determinism contract. The timers form a "timer band" that the Simulation
// run loop drains *before* heap events at the same timestamp. Within the
// band, timers fire in (deadline, TimerId) order; TimerIds are assigned at
// Register() time and are stable across re-arms, so a construction-order
// registration sequence yields the same dispatch order whether or not any
// individual firing was elided in between (an elided firing schedules
// nothing and mutates nothing, so it cannot shift its neighbours). The key
// is a strict total order over armed timers, so the heap's shape, which
// depends on arm and cancel history, is never observable.
#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
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
  // the most recently dispatched deadline: the band never re-opens the past.
  // Arming at the currently dispatching timestamp is allowed; the timer
  // fires this instant, after the timers already fired here (see
  // StillFiresAt).
  void Arm(TimerId id, TimeNs when);

  // Disarms the timer. Returns true if it was armed.
  bool Cancel(TimerId id);

  bool IsArmed(TimerId id) const;

  // Deadline of an armed timer; kTimeInfinity if unarmed.
  TimeNs ArmedAt(TimerId id) const;

  // Returns the earliest pending deadline if it is <= `limit`, else
  // kTimeInfinity.
  TimeNs NextDeadlineAtMost(TimeNs limit) const {
    return !heap_.empty() && heap_.front().deadline <= limit ? heap_.front().deadline
                                                             : kTimeInfinity;
  }

  // Pops and runs the earliest timer, which must have deadline `when` as
  // just returned by NextDeadlineAtMost. The callback may re-arm its own or
  // other timers.
  void RunOne(TimeNs when);

  // True if a timer re-armed *now* for deadline `when` (== the timestamp
  // currently being dispatched) would still fire in its natural band
  // position: the band has not yet dispatched any timer at `when` with an
  // id >= `id`. Used by tickless re-arm logic to decide between "fire in
  // natural band position now" and "next grid point".
  bool StillFiresAt(TimerId id, TimeNs when) const {
    return !(fired_any_ && last_fire_when_ == when && band_high_id_ >= id);
  }

  size_t ArmedCount() const { return heap_.size(); }
  uint64_t fired_count() const { return fired_; }

  // Read-only invariant sweep (see src/base/audit.h): every node names a
  // registered timer whose position entry points back at it, every armed
  // position holds its node, the heap is ordered by (deadline, id), and no
  // armed deadline precedes the last dispatched one (monotone dispatch).
  void AuditVerify() const;

 private:
  friend struct AuditTestAccess;

  static constexpr size_t kArity = 4;
  static constexpr uint32_t kUnarmed = UINT32_MAX;  // pos_ entry of an unarmed timer

  struct Node {
    TimeNs deadline;
    TimerId id;
  };

  // The band's order: (deadline, id), a strict total order over armed timers.
  static bool Before(const Node& a, const Node& b) {
    return a.deadline < b.deadline || (a.deadline == b.deadline && a.id < b.id);
  }

  void CheckId(TimerId id) const;
  void Place(size_t pos, const Node& n) {
    heap_[pos] = n;
    pos_[n.id] = static_cast<uint32_t>(pos);
  }
  // Move `n` from the hole at `pos` toward the root or the leaves, placing
  // every node it passes.
  void SiftUp(size_t pos, Node n);
  void SiftDown(size_t pos, Node n);
  // Removes the node at `pos`, refilling the hole from the heap's tail.
  void RemoveAt(size_t pos);

  // deque: callbacks run in place, and a callback may Register() new timers,
  // so slot addresses must survive growth. Indexed by id - 1; an empty
  // callback marks an unregistered slot.
  std::deque<EventCallback> callbacks_;
  std::vector<uint32_t> pos_{kUnarmed};  // heap position by id; [0] unused
  std::vector<Node> heap_;
  std::vector<TimerId> free_ids_;  // LIFO recycling
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
