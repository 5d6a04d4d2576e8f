#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/perf_counters.h"

namespace vsched {

void TimerWheel::CheckId(TimerId id) const {
  VSCHED_CHECK(id != kInvalidTimerId && id <= callbacks_.size());
}

TimerId TimerWheel::Register(EventCallback fn) {
  VSCHED_CHECK(fn);
  TimerId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    callbacks_.emplace_back();
    pos_.push_back(kUnarmed);
    id = static_cast<TimerId>(callbacks_.size());
  }
  callbacks_[id - 1] = std::move(fn);
  return id;
}

void TimerWheel::Unregister(TimerId id) {
  CheckId(id);
  VSCHED_CHECK_MSG(callbacks_[id - 1], "unregistering a timer twice");
  Cancel(id);
  callbacks_[id - 1] = EventCallback();
  free_ids_.push_back(id);
}

void TimerWheel::Arm(TimerId id, TimeNs when) {
  CheckId(id);
  VSCHED_CHECK_MSG(callbacks_[id - 1], "arming an unregistered timer");
  VSCHED_CHECK(when >= 0 && when < kTimeInfinity);
  // The band never re-opens the past: dispatch order must stay monotone.
  VSCHED_CHECK_MSG(!fired_any_ || when >= last_fire_when_,
                   "timer armed before the last dispatched deadline");
  ++counters_->timer_arms;
  const Node n{when, id};
  const uint32_t pos = pos_[id];
  if (pos == kUnarmed) {
    heap_.emplace_back();
    SiftUp(heap_.size() - 1, n);
    return;
  }
  // A re-arm replaces the pending deadline: it counts as a cancel and an
  // arm (see PerfCounters), and the node is re-keyed in place.
  ++counters_->timer_cancels;
  if (Before(n, heap_[pos])) {
    SiftUp(pos, n);
  } else {
    SiftDown(pos, n);
  }
}

bool TimerWheel::Cancel(TimerId id) {
  CheckId(id);
  const uint32_t pos = pos_[id];
  if (pos == kUnarmed) {
    return false;
  }
  RemoveAt(pos);
  ++counters_->timer_cancels;
  return true;
}

bool TimerWheel::IsArmed(TimerId id) const {
  CheckId(id);
  return pos_[id] != kUnarmed;
}

TimeNs TimerWheel::ArmedAt(TimerId id) const {
  CheckId(id);
  const uint32_t pos = pos_[id];
  return pos == kUnarmed ? kTimeInfinity : heap_[pos].deadline;
}

void TimerWheel::SiftUp(size_t pos, Node n) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Before(n, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, n);
}

void TimerWheel::SiftDown(size_t pos, Node n) {
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
    if (!Before(heap_[best], n)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, n);
}

void TimerWheel::RemoveAt(size_t pos) {
  pos_[heap_[pos].id] = kUnarmed;
  const Node tail = heap_.back();
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

void TimerWheel::RunOne(TimeNs when) {
  VSCHED_CHECK_MSG(!heap_.empty() && heap_.front().deadline == when,
                   "TimerWheel::RunOne deadline mismatch");
  const TimerId id = heap_.front().id;
  RemoveAt(0);
  // A timer armed for `when` after its band position passed fires late, out
  // of id order; keep the band's high-water id so StillFiresAt stays exact.
  if (!fired_any_ || last_fire_when_ != when) {
    band_high_id_ = kInvalidTimerId;
  }
  band_high_id_ = std::max(band_high_id_, id);
  fired_any_ = true;
  last_fire_when_ = when;
  ++fired_;
  ++counters_->timer_fires;
  // Runs in place out of the (address-stable) slot; may re-arm any timer,
  // including this one.
  callbacks_[id - 1]();
}

void TimerWheel::AuditVerify() const {
  if (!audit::Enabled()) {
    return;
  }
  for (size_t i = 0; i < heap_.size(); ++i) {
    const Node& n = heap_[i];
    const bool valid_id = n.id != kInvalidTimerId && n.id <= callbacks_.size();
    VSCHED_AUDIT_CHECK(valid_id && callbacks_[n.id - 1],
                       "timer heap: node names an invalid or unregistered timer");
    if (!valid_id) {
      continue;
    }
    VSCHED_AUDIT_CHECK(pos_[n.id] == i,
                       "timer heap: position entry disagrees with the node's slot");
    VSCHED_AUDIT_CHECK(!fired_any_ || n.deadline >= last_fire_when_,
                       "timer heap: armed deadline precedes the last dispatch");
    VSCHED_AUDIT_CHECK(i == 0 || !Before(n, heap_[(i - 1) / kArity]),
                       "timer heap: heap order violated");
  }
  size_t armed = 0;
  for (TimerId id = 1; id < pos_.size(); ++id) {
    const uint32_t pos = pos_[id];
    if (pos == kUnarmed) {
      continue;
    }
    ++armed;
    VSCHED_AUDIT_CHECK(pos < heap_.size() && heap_[pos].id == id,
                       "timer heap: armed timer missing from the heap");
  }
  VSCHED_AUDIT_CHECK(armed == heap_.size(), "timer heap: armed count out of sync");
}

}  // namespace vsched
