#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/perf_counters.h"

namespace vsched {

namespace {

// std::push_heap/pop_heap build a max-heap under the comparator, so "greater
// by (deadline, id)" yields a min-heap. Epochs are deliberately excluded:
// stale entries' relative order is unobservable (they are skipped), and
// including them would make heap shape depend on arm/cancel history that
// differs between elided and non-elided runs.
struct ReadyGreater {
  bool operator()(const auto& a, const auto& b) const {
    if (a.deadline != b.deadline) {
      return a.deadline > b.deadline;
    }
    return a.id > b.id;
  }
};

}  // namespace

TimerId TimerWheel::Register(EventCallback fn) {
  TimerId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    timers_.emplace_back();
    id = static_cast<TimerId>(timers_.size());
  }
  Timer& t = At(id);
  // The epoch deliberately survives id recycling: any ready-heap entry left
  // over from the slot's previous owner must stay stale forever.
  t.fn = std::move(fn);
  t.deadline = kTimeInfinity;
  t.state = State::kIdle;
  t.registered = true;
  t.level = -1;
  VSCHED_CHECK(t.fn);
  return id;
}

void TimerWheel::Unregister(TimerId id) {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
  Timer& t = At(id);
  VSCHED_CHECK_MSG(t.registered, "unregistering a timer twice");
  Cancel(id);
  t.registered = false;
  t.fn = EventCallback();
  free_ids_.push_back(id);
}

void TimerWheel::Arm(TimerId id, TimeNs when) {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
  Timer& t = At(id);
  VSCHED_CHECK_MSG(t.registered, "arming an unregistered timer");
  VSCHED_CHECK(when >= 0 && when < kTimeInfinity);
  // The wheel never re-opens the past: dispatch order must stay monotone.
  VSCHED_CHECK_MSG(!fired_any_ || when >= last_fire_when_,
                   "timer armed before the last dispatched deadline");
  if (t.state != State::kIdle) {
    Cancel(id);
  }
  ++t.epoch;
  t.deadline = when;
  ++armed_count_;
  lower_bound_ = std::min(lower_bound_, when);
  ++counters_->timer_arms;
  Insert(id, when);
}

void TimerWheel::ArmBatch(const std::vector<std::pair<TimerId, TimeNs>>& items) {
  TimeNs batch_min = kTimeInfinity;
  for (const auto& [id, when] : items) {
    VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
    Timer& t = At(id);
    VSCHED_CHECK_MSG(t.registered, "arming an unregistered timer");
    VSCHED_CHECK(when >= 0 && when < kTimeInfinity);
    VSCHED_CHECK_MSG(!fired_any_ || when >= last_fire_when_,
                     "timer armed before the last dispatched deadline");
    if (t.state != State::kIdle) {
      Cancel(id);
    }
    ++t.epoch;
    t.deadline = when;
    ++armed_count_;
    batch_min = std::min(batch_min, when);
    Insert(id, when);
  }
  lower_bound_ = std::min(lower_bound_, batch_min);
  counters_->timer_arms += items.size();
}

bool TimerWheel::Cancel(TimerId id) {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
  Timer& t = At(id);
  if (t.state == State::kIdle) {
    return false;
  }
  if (t.state == State::kBucket) {
    RemoveFromBucket(id);
  }
  // kReady: the epoch bump below turns the heap entry stale in place;
  // PruneReadyMin drops it when it surfaces.
  ++t.epoch;
  t.state = State::kIdle;
  t.deadline = kTimeInfinity;
  --armed_count_;
  ++counters_->timer_cancels;
  return true;
}

bool TimerWheel::IsArmed(TimerId id) const {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
  return At(id).state != State::kIdle;
}

TimeNs TimerWheel::ArmedAt(TimerId id) const {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
  return At(id).deadline;
}

void TimerWheel::Insert(TimerId id, TimeNs when) {
  Timer& t = At(id);
  for (int level = 0; level < kLevels; ++level) {
    const TimeNs d = (when >> Shift(level)) - (cursor_ >> Shift(level));
    if (d <= 0) {
      // At or behind the cursor's level-0 bucket: inside the dispatch
      // horizon, so the timer is ready now. Higher levels cannot reach
      // here — if d >= kBuckets at level k-1 then d >= 1 at level k.
      VSCHED_CHECK(level == 0);
      PushReady(id, when);
      return;
    }
    if (level == 0 && d < kBuckets) {
      // Within level 0's horizon the ready heap IS the level-0 stage:
      // buckets there would be near-singletons (the dominant timers are
      // ~1 ms periodics), so skipping them saves a cascade per firing and
      // the heap stays small (only timers due within ~65 us).
      PushReady(id, when);
      return;
    }
    if (d < kBuckets) {
      const int b = static_cast<int>((when >> Shift(level)) & (kBuckets - 1));
      std::vector<uint32_t>& bucket = Bucket(level, b);
      bucket_lower_bound_ = std::min(bucket_lower_bound_, when);
      t.state = State::kBucket;
      t.level = static_cast<int8_t>(level);
      t.bucket = static_cast<uint8_t>(b);
      t.slot = static_cast<uint32_t>(bucket.size());
      bucket.push_back(id);
      occupancy_[level] |= uint64_t{1} << b;
      return;
    }
  }
  VSCHED_CHECK_MSG(false, "timer deadline beyond the wheel horizon");
}

void TimerWheel::PushReady(TimerId id, TimeNs when) {
  Timer& t = At(id);
  t.state = State::kReady;
  t.level = -1;
  ready_.push_back(ReadyEntry{when, id, t.epoch});
  std::push_heap(ready_.begin(), ready_.end(), ReadyGreater{});
}

void TimerWheel::RemoveFromBucket(TimerId id) {
  Timer& t = At(id);
  std::vector<uint32_t>& bucket = Bucket(t.level, t.bucket);
  VSCHED_CHECK(t.slot < bucket.size() && bucket[t.slot] == id);
  const uint32_t moved = bucket.back();
  bucket[t.slot] = moved;
  At(moved).slot = t.slot;  // self-assignment when id was last: harmless
  bucket.pop_back();
  if (bucket.empty()) {
    occupancy_[t.level] &= ~(uint64_t{1} << t.bucket);
  }
  t.level = -1;
}

TimeNs TimerWheel::PruneReadyMin() {
  while (!ready_.empty()) {
    const ReadyEntry& e = ready_.front();
    const Timer& t = At(e.id);
    if (t.state == State::kReady && t.epoch == e.epoch) {
      return e.deadline;
    }
    std::pop_heap(ready_.begin(), ready_.end(), ReadyGreater{});
    ready_.pop_back();
  }
  return kTimeInfinity;
}

TimeNs TimerWheel::BucketStart(int level, int bucket) const {
  const int shift = Shift(level);
  const TimeNs cur_bucket = cursor_ >> shift;  // absolute bucket number
  TimeNs lap = cur_bucket >> kLevelBits;
  const int cur_idx = static_cast<int>(cur_bucket & (kBuckets - 1));
  const bool aligned = (cursor_ & (BucketWidth(level) - 1)) == 0;
  // A bucket whose current-lap start is already behind the cursor belongs to
  // the next lap; the cursor's own bucket counts as current only when the
  // cursor sits exactly on its start.
  if (bucket < cur_idx || (bucket == cur_idx && !aligned)) {
    ++lap;
  }
  return ((lap << kLevelBits) | bucket) << shift;
}

TimeNs TimerWheel::NextDeadlineAtMost(TimeNs limit) {
  if (armed_count_ == 0 || lower_bound_ > limit) {
    return kTimeInfinity;  // the run loop's steady state between firings
  }
  for (;;) {
    const TimeNs ready_min = PruneReadyMin();
    // Fast path off the bucket bound: when the ready heap's minimum is
    // strictly below every bucketed deadline, no bucket can hold the answer
    // (or an equal-deadline lower-id timer), so the scan below is skippable.
    // Strictness matters: at an exact tie a bucketed timer with a smaller id
    // must still cascade and fire first.
    const TimeNs fast_min = std::min(ready_min, bucket_lower_bound_);
    if (fast_min > limit) {
      lower_bound_ = fast_min;
      return kTimeInfinity;
    }
    if (ready_min < bucket_lower_bound_) {
      lower_bound_ = ready_min;
      return ready_min;
    }
    const TimeNs cap = std::min(ready_min, limit);
    // Earliest non-empty bucket across levels, lowest level winning ties
    // (its timers cascade furthest and may contain the true minimum).
    int best_level = -1;
    int best_bucket = 0;
    TimeNs best_start = kTimeInfinity;
    for (int level = 0; level < kLevels; ++level) {
      const uint64_t occ = occupancy_[level];
      if (occ == 0) {
        continue;
      }
      const int cur_idx = static_cast<int>((cursor_ >> Shift(level)) & (kBuckets - 1));
      const bool aligned = (cursor_ & (BucketWidth(level) - 1)) == 0;
      // Candidates still ahead in the current lap: indices > cur_idx, plus
      // cur_idx itself when the cursor sits exactly on its start.
      uint64_t ge = (occ >> cur_idx) << cur_idx;
      if (!aligned) {
        ge &= ~(uint64_t{1} << cur_idx);
      }
      const int b = ge != 0 ? std::countr_zero(ge) : std::countr_zero(occ);
      const TimeNs start = BucketStart(level, b);
      if (start < best_start) {
        best_start = start;
        best_level = level;
        best_bucket = b;
      }
    }
    if (best_level < 0 || best_start > cap) {
      // The scan just computed the exact earliest bucket start; cache it so
      // later probes take the fast path until bucket membership changes.
      bucket_lower_bound_ = best_start;
      if (ready_min <= limit) {
        lower_bound_ = ready_min;
        return ready_min;
      }
      // Nothing due: every bucketed timer is >= its bucket's start (all of
      // which are >= best_start) and every ready timer is >= ready_min, so
      // this tightened bound short-circuits probes until `limit` reaches it.
      lower_bound_ = std::min(ready_min, best_start);
      return kTimeInfinity;
    }
    // Advance the horizon to this bucket and cascade it down. Bounded by
    // `cap`, so far-future buckets are never expanded by a near probe.
    cursor_ = best_start;
    ExpandBucket(best_level, best_bucket);
  }
}

void TimerWheel::ExpandBucket(int level, int bucket) {
  std::vector<uint32_t>& b = Bucket(level, bucket);
  expand_scratch_.clear();
  expand_scratch_.swap(b);
  occupancy_[level] &= ~(uint64_t{1} << bucket);
  ++counters_->timer_cascades;
  // Re-insert in slot order: cascades are deterministic because slot order
  // only changes through deterministic Cancel swap-removes.
  for (const uint32_t id : expand_scratch_) {
    Timer& t = At(id);
    t.level = -1;
    Insert(id, t.deadline);
  }
}

void TimerWheel::RunOne(TimeNs when) {
  const TimeNs ready_min = PruneReadyMin();
  VSCHED_CHECK_MSG(ready_min == when, "TimerWheel::RunOne deadline mismatch");
  const ReadyEntry top = ready_.front();
  std::pop_heap(ready_.begin(), ready_.end(), ReadyGreater{});
  ready_.pop_back();
  Timer& t = At(top.id);
  t.state = State::kIdle;
  t.deadline = kTimeInfinity;
  ++t.epoch;
  --armed_count_;
  // A timer armed for `when` after its band position passed fires late, out
  // of id order; keep the band's high-water id so StillFiresAt stays exact.
  if (!fired_any_ || last_fire_when_ != when) {
    band_high_id_ = kInvalidTimerId;
  }
  band_high_id_ = std::max(band_high_id_, top.id);
  fired_any_ = true;
  last_fire_when_ = when;
  ++fired_;
  ++counters_->timer_fires;
  // Runs in place out of the (address-stable) slot; may re-arm any timer,
  // including this one.
  t.fn();
}

void TimerWheel::AuditVerify() const {
  if (!audit::Enabled()) {
    return;
  }
  // Buckets: occupancy bits, back-pointers, and deadline-to-bucket hashing.
  size_t in_buckets = 0;
  for (int level = 0; level < kLevels; ++level) {
    for (int b = 0; b < kBuckets; ++b) {
      const std::vector<uint32_t>& bucket = Bucket(level, b);
      VSCHED_AUDIT_CHECK(((occupancy_[level] >> b) & 1) == (bucket.empty() ? 0u : 1u),
                         "timer wheel: occupancy bit disagrees with bucket contents");
      for (size_t slot = 0; slot < bucket.size(); ++slot) {
        ++in_buckets;
        const TimerId id = bucket[slot];
        const bool valid_id = id != kInvalidTimerId && id <= timers_.size();
        VSCHED_AUDIT_CHECK(valid_id, "timer wheel: bucket holds an invalid timer id");
        if (!valid_id) {
          continue;
        }
        const Timer& t = At(id);
        VSCHED_AUDIT_CHECK(t.registered && t.state == State::kBucket,
                           "timer wheel: bucketed timer is not in kBucket state");
        VSCHED_AUDIT_CHECK(t.level == level && t.bucket == b && t.slot == slot,
                           "timer wheel: back-pointer disagrees with bucket position");
        VSCHED_AUDIT_CHECK(((t.deadline >> Shift(level)) & (kBuckets - 1)) == b,
                           "timer wheel: deadline hashes to a different bucket at this level");
        const TimeNs start = BucketStart(level, b);
        VSCHED_AUDIT_CHECK(start <= t.deadline && t.deadline - start < BucketWidth(level),
                           "timer wheel: deadline outside its bucket span (lost across cascade)");
        VSCHED_AUDIT_CHECK(!fired_any_ || t.deadline >= last_fire_when_,
                           "timer wheel: armed deadline precedes the last dispatch");
        VSCHED_AUDIT_CHECK(t.deadline >= lower_bound_,
                           "timer wheel: armed deadline below the cached lower bound");
        VSCHED_AUDIT_CHECK(t.deadline >= bucket_lower_bound_,
                           "timer wheel: bucketed deadline below the cached bucket bound");
      }
    }
  }
  // Ready heap: live entries are consistent, ahead of the dispatch point,
  // exactly one per kReady timer, and in heap order.
  size_t live_ready = 0;
  std::vector<uint32_t> live_per_id(timers_.size(), 0);
  for (const ReadyEntry& e : ready_) {
    const bool valid_id = e.id != kInvalidTimerId && e.id <= timers_.size();
    VSCHED_AUDIT_CHECK(valid_id, "timer wheel: ready entry holds an invalid timer id");
    if (!valid_id) {
      continue;
    }
    const Timer& t = At(e.id);
    if (t.state != State::kReady || t.epoch != e.epoch) {
      continue;  // stale: skipped by dispatch, exempt from invariants
    }
    ++live_ready;
    ++live_per_id[e.id - 1];
    VSCHED_AUDIT_CHECK(t.deadline == e.deadline,
                       "timer wheel: live ready entry disagrees with its timer's deadline");
    VSCHED_AUDIT_CHECK(!fired_any_ || e.deadline >= last_fire_when_,
                       "timer wheel: ready deadline precedes the last dispatch");
    VSCHED_AUDIT_CHECK(e.deadline >= lower_bound_,
                       "timer wheel: ready deadline below the cached lower bound");
  }
  for (size_t i = 1; i < ready_.size(); ++i) {
    const ReadyEntry& parent = ready_[(i - 1) / 2];
    const ReadyEntry& child = ready_[i];
    VSCHED_AUDIT_CHECK(!ReadyGreater{}(parent, child),
                       "timer wheel: ready heap order violated");
  }
  for (size_t i = 0; i < timers_.size(); ++i) {
    const Timer& t = timers_[i];
    if (t.state == State::kReady) {
      VSCHED_AUDIT_CHECK(live_per_id[i] == 1,
                         "timer wheel: ready timer lost or duplicated in the ready heap");
    } else if (t.state == State::kBucket) {
      const bool placed = t.level >= 0 && t.level < kLevels &&
                          t.slot < Bucket(t.level, t.bucket).size() &&
                          Bucket(t.level, t.bucket)[t.slot] == i + 1;
      VSCHED_AUDIT_CHECK(placed, "timer wheel: bucketed timer missing from its bucket");
    }
  }
  VSCHED_AUDIT_CHECK(in_buckets + live_ready == armed_count_,
                     "timer wheel: armed count out of sync (timer lost across cascade)");
}

}  // namespace vsched
