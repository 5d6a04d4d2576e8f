#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"

namespace vsched {

namespace {

inline uint64_t PackId(uint32_t slot, uint32_t generation) {
  return (static_cast<uint64_t>(slot) + 1) << 32 | generation;
}
inline uint32_t IdSlot(uint64_t raw) { return static_cast<uint32_t>(raw >> 32) - 1; }
inline uint32_t IdGeneration(uint64_t raw) { return static_cast<uint32_t>(raw); }

}  // namespace

void EventQueue::AuditVerify() const {
  if (!audit::Enabled()) {
    return;
  }
  // Entries: heap order, in the future, naming a live timer or slot, and
  // found by their back-pointers.
  const uint32_t capacity = Capacity();
  for (size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    VSCHED_AUDIT_CHECK(i == 0 || !Before(e, heap_[(i - 1) / kArity]),
                       "dispatch heap: child orders before its parent");
    VSCHED_AUDIT_CHECK(e.when >= now_, "dispatch heap: pending entry precedes now()");
    const uint64_t slot_or_id = e.key & kSlotMask;
    if (e.key < kEventKind) {
      const bool registered =
          e.key != kInvalidTimerId && e.key <= timers_.size() && timers_[slot_or_id - 1];
      VSCHED_AUDIT_CHECK(registered, "dispatch heap: timer entry names an unregistered timer");
      if (!registered) {
        continue;
      }
    } else {
      VSCHED_AUDIT_CHECK(slot_or_id < capacity, "dispatch heap: event slot out of slab range");
      VSCHED_AUDIT_CHECK((e.key & ~kEventKind) >> kSlotBits < next_seq_,
                         "dispatch heap: event sequence number from the future");
      if (slot_or_id >= capacity) {
        continue;  // the back-pointer check would read out of bounds
      }
    }
    VSCHED_AUDIT_CHECK(pos_[Cell(e.key)] == i,
                       "dispatch heap: back-pointer disagrees with its entry");
  }
  // Cells: each that claims a position finds its entry there, and they add
  // up to the pending counts.
  size_t seen[2] = {0, 0};  // timers, events
  for (size_t cell = 0; cell < pos_.size(); ++cell) {
    const uint32_t pos = pos_[cell];
    if (pos == kNoPos) {
      continue;
    }
    ++seen[cell & 1];
    VSCHED_AUDIT_CHECK(pos < heap_.size() && Cell(heap_[pos].key) == cell,
                       "dispatch heap: back-pointer names no entry");
  }
  VSCHED_AUDIT_CHECK(seen[0] == ArmedCount(), "dispatch heap: armed count out of sync");
  VSCHED_AUDIT_CHECK(seen[1] == pending_events_, "dispatch heap: pending count out of sync");
  // Free list: in range, no duplicates, and off the heap.
  std::vector<char> on_free(capacity, 0);
  for (uint32_t slot : free_) {
    VSCHED_AUDIT_CHECK(slot < capacity, "event free list: slot out of slab range");
    if (slot >= capacity) {
      continue;
    }
    VSCHED_AUDIT_CHECK(!on_free[slot], "event free list: slot listed twice");
    on_free[slot] = 1;
    VSCHED_AUDIT_CHECK(pos_[2 * size_t{slot} + 1] == kNoPos,
                       "event free list: slot also live on the heap");
  }
}

void EventQueue::SiftUp(size_t pos, Entry e) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void EventQueue::SiftDown(size_t pos, Entry e) {
  const size_t size = heap_.size();
  for (;;) {
    const size_t first = pos * kArity + 1;
    if (first >= size) {
      break;
    }
    const size_t last = std::min(first + kArity, size);
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], e)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, e);
}

void EventQueue::RemoveAt(size_t pos) {
  pos_[Cell(heap_[pos].key)] = kNoPos;
  const Entry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // the tail itself was removed
  }
  if (pos > 0 && Before(tail, heap_[(pos - 1) / kArity])) {
    SiftUp(pos, tail);
  } else {
    SiftDown(pos, tail);
  }
}

uint32_t EventQueue::BeginSchedule(TimeNs when) {
  VSCHED_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  if (free_.empty()) {
    const uint32_t base = Capacity();
    VSCHED_CHECK_MSG(base + kSlabSize - 1 <= kSlotMask, "too many events for the slot key");
    slabs_.push_back(std::make_unique<Slab>());
    pos_.resize(std::max(pos_.size(), 2 * size_t{base + kSlabSize}), kNoPos);
    ++counters_->event_slab_allocs;
    // Push in reverse so the lowest new slot is handed out first.
    for (uint32_t i = kSlabSize; i-- > 0;) {
      free_.push_back(base + i);
    }
  }
  const uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

EventId EventQueue::FinishSchedule(TimeNs when, uint32_t slot) {
  VSCHED_CHECK_MSG(next_seq_ < kSeqLimit, "event sequence numbers exhausted");
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{when, kEventKind | next_seq_++ << kSlotBits | slot});
  ++pending_events_;
  ++counters_->events_scheduled;
  if (audit::Enabled()) {
    AuditVerify();
  }
  return EventId(PackId(slot, NodeAt(slot).generation));
}

void EventQueue::ReleaseNode(uint32_t slot) {
  Node& node = NodeAt(slot);
  node.fn = EventCallback();
  ++node.generation;  // stale EventIds now miss
  free_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const uint32_t slot = IdSlot(id.raw_);
  if (slot >= Capacity()) {
    return false;
  }
  const uint32_t pos = pos_[2 * size_t{slot} + 1];
  if (pos == kNoPos || NodeAt(slot).generation != IdGeneration(id.raw_)) {
    return false;
  }
  RemoveAt(pos);
  --pending_events_;
  ReleaseNode(slot);
  ++counters_->events_cancelled;
  if (audit::Enabled()) {
    AuditVerify();
  }
  return true;
}

void EventQueue::CheckId(TimerId id) const {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
}

TimerId EventQueue::Register(EventCallback fn) {
  VSCHED_CHECK(fn);
  TimerId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    timers_.emplace_back();
    id = static_cast<TimerId>(timers_.size());
    VSCHED_CHECK_MSG(id <= kSlotMask, "too many timers for the slot key");
    pos_.resize(std::max(pos_.size(), 2 * size_t{id} + 1), kNoPos);
  }
  timers_[id - 1] = std::move(fn);
  return id;
}

void EventQueue::Unregister(TimerId id) {
  CheckId(id);
  VSCHED_CHECK_MSG(timers_[id - 1], "unregistering a timer twice");
  Cancel(id);
  timers_[id - 1] = EventCallback();
  free_ids_.push_back(id);
}

void EventQueue::Arm(TimerId id, TimeNs when) {
  CheckId(id);
  VSCHED_CHECK_MSG(timers_[id - 1], "arming an unregistered timer");
  VSCHED_CHECK_MSG(when >= now_ && when < kTimeInfinity, "cannot arm a timer in the past");
  ++counters_->timer_arms;
  const Entry e{when, id};
  const uint32_t pos = pos_[2 * size_t{id}];
  if (pos == kNoPos) {
    heap_.emplace_back();
    SiftUp(heap_.size() - 1, e);
    return;
  }
  // A re-arm replaces the pending deadline: it counts as a cancel and an
  // arm (see PerfCounters), and the entry is re-keyed in place.
  ++counters_->timer_cancels;
  if (Before(e, heap_[pos])) {
    SiftUp(pos, e);
  } else {
    SiftDown(pos, e);
  }
}

bool EventQueue::Cancel(TimerId id) {
  CheckId(id);
  const uint32_t pos = pos_[2 * size_t{id}];
  if (pos == kNoPos) {
    return false;
  }
  RemoveAt(pos);
  ++counters_->timer_cancels;
  return true;
}

bool EventQueue::IsArmed(TimerId id) const {
  CheckId(id);
  return pos_[2 * size_t{id}] != kNoPos;
}

TimeNs EventQueue::ArmedAt(TimerId id) const {
  CheckId(id);
  const uint32_t pos = pos_[2 * size_t{id}];
  return pos == kNoPos ? kTimeInfinity : heap_[pos].when;
}

bool EventQueue::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  if (audit::Enabled()) {
    AuditVerify();
    VSCHED_AUDIT_CHECK(heap_[0].when >= now_, "dispatch would move the clock backwards");
  }
  const Entry top = heap_[0];
  RemoveAt(0);
  if (top.when != now_) {
    now_ = top.when;
    high_id_ = kInvalidTimerId;
  }
  if (top.key < kEventKind) {
    // A timer armed for now() after its id's turn fires late, out of id
    // order; keep the instant's high-water id so StillFiresAt stays exact.
    const TimerId id = static_cast<TimerId>(top.key);
    high_id_ = std::max(high_id_, id);
    ++counters_->timer_fires;
    // Runs in place from its address-stable slot; may re-arm any timer.
    timers_[id - 1]();
    return true;
  }
  // Events follow every timer of their instant, so the instant is closed.
  high_id_ = kClosed;
  --pending_events_;
  ++counters_->events_executed;
  // Run in place from pool storage: the node is off the heap and the free
  // list, so posts from the callback cannot clobber it, and a Cancel() of
  // the in-flight id (a self-cancel is common) is a clean miss.
  const uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  NodeAt(slot).fn();
  ReleaseNode(slot);
  return true;
}

void EventQueue::RunOne(TimeNs when) {
  VSCHED_CHECK_MSG(NextEventTime() == when, "EventQueue::RunOne deadline mismatch");
  RunOne();
}

void EventQueue::RunUntil(TimeNs deadline) {
  while (NextEventTime() <= deadline) {
    RunOne();
  }
  if (deadline >= now_) {
    now_ = deadline;
    high_id_ = kClosed;  // everything due at `deadline` has run
  }
}

}  // namespace vsched
