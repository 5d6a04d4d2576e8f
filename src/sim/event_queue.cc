#include "src/sim/event_queue.h"

#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"

namespace vsched {

namespace {

inline uint64_t PackId(uint32_t index, uint32_t generation) {
  return (static_cast<uint64_t>(index) + 1) << 32 | generation;
}

inline uint32_t IdIndex(uint64_t raw) { return static_cast<uint32_t>(raw >> 32) - 1; }
inline uint32_t IdGeneration(uint64_t raw) { return static_cast<uint32_t>(raw); }

}  // namespace

void EventQueue::AuditVerify() const {
  const uint32_t capacity = static_cast<uint32_t>(slabs_.size()) * kSlabSize;
  const size_t n = heap_.size();
  // Heap slots: 4-ary ordering, in-range node indices, back-pointer
  // agreement, and strictly increasing-unique sequence numbers.
  std::vector<char> on_heap(capacity, 0);
  for (size_t pos = 0; pos < n; ++pos) {
    const HeapSlot& slot = heap_[pos];
    if (pos > 0) {
      VSCHED_AUDIT_CHECK(!Before(slot, heap_[(pos - 1) / 4]),
                         "event heap: child orders before its parent");
    }
    VSCHED_AUDIT_CHECK(slot.node < capacity, "event heap: node index out of slab range");
    if (slot.node >= capacity) {
      continue;  // The remaining per-node checks would read out of bounds.
    }
    VSCHED_AUDIT_CHECK(!on_heap[slot.node], "event heap: node referenced twice");
    on_heap[slot.node] = 1;
    VSCHED_AUDIT_CHECK(NodeAt(slot.node).heap_pos == static_cast<int32_t>(pos),
                       "event heap: node heap_pos disagrees with its slot");
    VSCHED_AUDIT_CHECK(slot.seq < next_seq_, "event heap: seq from the future");
    VSCHED_AUDIT_CHECK(slot.when >= now_, "event heap: pending event in the past");
  }
  // Free list: disjoint from the heap, marked off-heap, no duplicates.
  std::vector<char> on_free(capacity, 0);
  for (uint32_t index : free_) {
    VSCHED_AUDIT_CHECK(index < capacity, "event free list: index out of slab range");
    if (index >= capacity) {
      continue;
    }
    VSCHED_AUDIT_CHECK(!on_free[index], "event free list: index listed twice");
    on_free[index] = 1;
    VSCHED_AUDIT_CHECK(!on_heap[index], "event free list: index also live on the heap");
    VSCHED_AUDIT_CHECK(NodeAt(index).heap_pos == -1,
                       "event free list: node still claims a heap position");
  }
}

uint32_t EventQueue::AllocNode() {
  if (free_.empty()) {
    uint32_t base = static_cast<uint32_t>(slabs_.size()) * kSlabSize;
    slabs_.push_back(std::make_unique<Slab>());
    ++counters_->event_slab_allocs;
    // Push in reverse so the lowest new index is handed out first.
    for (uint32_t i = kSlabSize; i-- > 0;) {
      free_.push_back(base + i);
    }
  }
  uint32_t index = free_.back();
  free_.pop_back();
  return index;
}

void EventQueue::ReleaseNode(uint32_t index) {
  Node& node = NodeAt(index);
  node.heap_pos = -1;
  ++node.generation;  // stale EventIds now miss
  free_.push_back(index);
}

void EventQueue::SiftUp(size_t pos) {
  HeapSlot slot = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 4;
    if (!Before(slot, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, slot);
}

void EventQueue::SiftDown(size_t pos) {
  HeapSlot slot = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t first_child = pos * 4 + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], slot)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, slot);
}

void EventQueue::RemoveAt(size_t pos) {
  size_t last = heap_.size() - 1;
  if (pos != last) {
    Place(pos, heap_[last]);
  }
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The relocated slot may belong either direction from `pos`.
    SiftDown(pos);
    SiftUp(pos);
  }
}

uint32_t EventQueue::BeginSchedule(TimeNs when) {
  VSCHED_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  return AllocNode();
}

EventId EventQueue::FinishSchedule(TimeNs when, uint32_t index) {
  Node& node = NodeAt(index);
  heap_.push_back(HeapSlot{when, next_seq_++, index});
  node.heap_pos = static_cast<int32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
  ++counters_->events_scheduled;
  if (audit::Enabled()) {
    AuditVerify();
  }
  return EventId(PackId(index, node.generation));
}

bool EventQueue::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  uint32_t index = IdIndex(id.raw_);
  if (index >= slabs_.size() * kSlabSize) {
    return false;
  }
  Node& node = NodeAt(index);
  if (node.heap_pos < 0 || node.generation != IdGeneration(id.raw_)) {
    return false;
  }
  RemoveAt(static_cast<size_t>(node.heap_pos));
  node.fn = EventCallback();
  ReleaseNode(index);
  ++counters_->events_cancelled;
  if (audit::Enabled()) {
    AuditVerify();
  }
  return true;
}

bool EventQueue::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  if (audit::Enabled()) {
    AuditVerify();
    VSCHED_AUDIT_CHECK(heap_[0].when >= now_, "event dispatch would move the clock backwards");
  }
  HeapSlot top = heap_[0];
  Node& node = NodeAt(top.node);
  RemoveAt(0);
  // Off-heap from this point: a Cancel() of the in-flight id (self-cancel
  // from inside the callback is common) must miss, not remove a bystander.
  node.heap_pos = -1;
  VSCHED_CHECK(top.when >= now_);
  now_ = top.when;
  ++executed_;
  ++counters_->events_executed;
  // Invoke straight from pool storage — no move-out. The node is off both
  // the heap and the free list while running, so a callback that schedules
  // new events cannot clobber it, and Cancel() of the in-flight id is a
  // clean miss (heap_pos is already -1). Slab storage is stable, so the
  // reference survives any scheduling the callback does.
  node.fn();
  node.fn = EventCallback();
  ReleaseNode(top.node);
  return true;
}

void EventQueue::RunUntil(TimeNs deadline) {
  while (!heap_.empty() && heap_[0].when <= deadline) {
    RunOne();
  }
  if (deadline > now_) {
    now_ = deadline;
  }
  VSCHED_AUDIT_CHECK(heap_.empty() || heap_[0].when > deadline,
                     "RunUntil left a due event pending");
}

}  // namespace vsched
