// The discrete-event core: every pending dispatch of a simulation — the
// registered timers (scheduler ticks, host slices and refills, burst
// completions, probe chunks, request arrivals) and the one-shot events
// (IPIs, timed wakes, probe windows, fault and adversary actions) — on one
// position-indexed 4-ary min-heap. A cell holds about a hundred entries at
// most (a `dc` fleet cell a few hundred), so an ordered structure beats
// Linux's hierarchical wheel, whose levels pay only for coarse, mostly
// cancelled timeouts; Linux keeps exact-expiry timers on an ordered tree
// (hrtimers) for the same reason. See docs/PERF.md, "The dispatch heap".
//
// Determinism contract. Entries fire in (when, kind, tie) order: at equal
// `when` timers fire before events, timers tie by TimerId and events by
// post order (FIFO). The key is a strict total order, so the heap's shape
// is never observable. TimerIds are assigned at Register() and survive
// re-arms, so the order does not depend on whether a firing was elided in
// between (an elided firing mutates nothing). Events keep their own
// generation-tagged slot ids and never take a TimerId, which would shift
// later timers' ids and so their tie order.
//
// A heap node is 16 bytes, (when, key), so four siblings fill one cache
// line: the key's top bit is the kind, a timer's key is its id and an
// event's is `seq << 24 | slot`. Heap positions live in one array, cell
// 2·id for a timer and 2·slot + 1 for an event.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/sim/event_callback.h"

namespace vsched {

// Stable handle for a registered timer. 0 is never a valid id.
using TimerId = uint32_t;
inline constexpr TimerId kInvalidTimerId = 0;

// Opaque handle for cancelling a one-shot event. Default-constructed ids are
// invalid. Encodes (slot + 1) in the high 32 bits and the slot's generation
// in the low 32, so a handle to an executed/cancelled event stays invalid
// even after the slot is recycled.
class EventId {
 public:
  EventId() = default;

  bool valid() const { return raw_ != 0; }
  void Invalidate() { raw_ = 0; }

  friend bool operator==(EventId a, EventId b) { return a.raw_ == b.raw_; }

 private:
  friend class EventQueue;
  explicit EventId(uint64_t raw) : raw_(raw) {}
  uint64_t raw_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time: moves as entries dispatch and as RunUntil returns.
  TimeNs now() const { return now_; }

  // --- one-shot events ------------------------------------------------------
  // Schedules `fn` at absolute time `when` (must be >= now()). Accepts any
  // void() callable; it is constructed directly inside the pool node, so the
  // common path does no intermediate moves and no allocation.
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& fn) {
    const uint32_t slot = BeginSchedule(when);
    Node& node = NodeAt(slot);
    if constexpr (std::is_same_v<std::decay_t<F>, EventCallback>) {
      node.fn = std::forward<F>(fn);
    } else {
      node.fn.Emplace(std::forward<F>(fn));
    }
    return FinishSchedule(when, slot);
  }
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  // Cancels a pending event. Returns true if the event was still pending.
  bool Cancel(EventId id);
  size_t PendingCount() const { return pending_events_; }

  // --- registered timers ----------------------------------------------------
  // Registers a timer slot with its callback, stored once and reused across
  // every re-arm, so steady-state arming allocates nothing. Ids are recycled
  // LIFO by Unregister, which keeps id sequences identical between runs that
  // register/unregister in the same order.
  TimerId Register(EventCallback fn);
  // Cancels (if armed) and retires the id for reuse.
  void Unregister(TimerId id);
  // Arms (or re-arms) the timer to fire at `when` >= now(). A timer armed
  // for now() from a callback fires this instant, after the timers already
  // fired here (see StillFiresAt).
  void Arm(TimerId id, TimeNs when);
  // Disarms the timer. Returns true if it was armed.
  bool Cancel(TimerId id);
  bool IsArmed(TimerId id) const;
  // Deadline of an armed timer; kTimeInfinity if unarmed.
  TimeNs ArmedAt(TimerId id) const;
  size_t ArmedCount() const { return heap_.size() - pending_events_; }

  // True if timer `id` armed right now for `when` (>= now()) would still
  // fire at `when`: `when` is a later instant, or this instant is still open
  // and has fired no timer with an id >= `id`. An instant closes once an
  // event has dispatched at it or RunUntil has returned at it, because both
  // come after its timers.
  bool StillFiresAt(TimerId id, TimeNs when) const { return when != now_ || id > high_id_; }

  // --- dispatch -------------------------------------------------------------
  bool Empty() const { return heap_.empty(); }
  // Time of the earliest pending entry of either kind, or kTimeInfinity.
  TimeNs NextEventTime() const { return heap_.empty() ? kTimeInfinity : heap_[0].when; }
  // Pops and runs the earliest entry, advancing now(); false when nothing is
  // pending. A callback may post, arm and cancel anything, itself included.
  bool RunOne();
  // Runs every entry due at or before `deadline`, then advances now() to
  // `deadline` and closes that instant.
  void RunUntil(TimeNs deadline);

  // perfbench's timer probe drives the queue through these two (see
  // src/sim/timer_wheel.h): the earliest time if it is <= `limit`, else
  // kTimeInfinity; and RunOne() for an entry known to be due at `when`.
  TimeNs NextDeadlineAtMost(TimeNs limit) const {
    return NextEventTime() <= limit ? NextEventTime() : kTimeInfinity;
  }
  void RunOne(TimeNs when);

  // Full structural self-check, reported through src/base/audit.h: heap
  // order, back-pointers of both kinds, no entry before now(), registered
  // timers, event sequence numbers, the pending counts and the slab free
  // list. Runs after every post and event cancel and before every dispatch
  // while auditing is enabled; O(capacity), callable at any time.
  void AuditVerify() const;

 private:
  // Deliberate-corruption backdoor for the audit tests (tests/audit/); never
  // referenced by the library itself.
  friend struct AuditTestAccess;

  static constexpr size_t kArity = 4;
  static constexpr uint32_t kSlabBits = 8;
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;  // nodes per slab
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kEventKind = uint64_t{1} << 63;
  static constexpr uint64_t kSeqLimit = uint64_t{1} << (63 - kSlotBits);
  static constexpr uint32_t kNoPos = UINT32_MAX;  // cell of an entry off the heap
  static constexpr TimerId kClosed = UINT32_MAX;  // high_id_ of a closed instant

  // One pooled event; `generation` advances on every release so stale
  // EventIds miss.
  struct Node {
    EventCallback fn;
    uint32_t generation = 1;
  };
  struct Slab {
    Node nodes[kSlabSize];
  };
  struct Entry {
    TimeNs when;
    uint64_t key;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.when < b.when || (a.when == b.when && a.key < b.key);
  }
  // The back-pointer cell of a key, computed without a branch.
  static size_t Cell(uint64_t key) {
    return static_cast<size_t>((key & kSlotMask) << 1 | key >> 63);
  }

  Node& NodeAt(uint32_t slot) { return slabs_[slot >> kSlabBits]->nodes[slot & (kSlabSize - 1)]; }
  uint32_t Capacity() const { return static_cast<uint32_t>(slabs_.size()) * kSlabSize; }
  // The non-template halves of ScheduleAt: past-check + slot allocation,
  // then heap insertion + id minting.
  uint32_t BeginSchedule(TimeNs when);
  EventId FinishSchedule(TimeNs when, uint32_t slot);
  void ReleaseNode(uint32_t slot);
  void CheckId(TimerId id) const;

  void Place(size_t pos, const Entry& e) {
    heap_[pos] = e;
    pos_[Cell(e.key)] = static_cast<uint32_t>(pos);
  }
  // Move `e` from the hole at `pos` toward the root or the leaves, placing
  // every entry it passes.
  void SiftUp(size_t pos, Entry e);
  void SiftDown(size_t pos, Entry e);
  // Removes the entry at `pos`, refilling the hole from the heap's tail.
  void RemoveAt(size_t pos);

  TimeNs now_ = 0;
  TimerId high_id_ = kInvalidTimerId;  // highest id fired at now(), or kClosed
  std::vector<Entry> heap_;
  std::vector<uint32_t> pos_;  // heap position by cell; kNoPos off the heap
  size_t pending_events_ = 0;
  // Events: slab storage is address-stable, so a callback runs in place
  // while it posts more.
  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<uint32_t> free_;
  uint64_t next_seq_ = 0;
  // Timers by id - 1; an empty callback marks an unregistered id. A deque,
  // because a callback runs in place and may Register() more.
  std::deque<EventCallback> timers_;
  std::vector<TimerId> free_ids_;  // LIFO recycling
  // Cached once: Current() is a TLS read behind an init guard, too hot to
  // re-resolve on every arm and fire.
  PerfCounters* counters_ = PerfCounters::Current();
};

}  // namespace vsched

#endif  // SRC_SIM_EVENT_QUEUE_H_
