// Timestamped message queue of the sharded (PDES) fleet engine, used in two
// roles (docs/PERF.md, "Sharded fleet execution"):
//  - the control-plane mailbox: VM arrivals, boot completions, migration
//    phases and departures, whose handlers the coordinator runs in canonical
//    order while it plans ahead of the cells;
//  - each cell's inbox: the actions those handlers planned for the cell's
//    simulated state (build a tenant stack, pause a VM, commit a migration,
//    tear a tenant down), which the cell applies at exactly their instants.
// Nothing that crosses a cell boundary touches another cell's event queue or
// entity state directly; it travels as a message instead.
//
// Determinism contract: messages are applied in canonical
// (due_time, origin, sequence) order. The sequence number is per-origin, so
// the total order depends only on what each origin posted and when it was
// due — never on how origins' posts interleaved in wall-clock time or on how
// many worker threads execute the cells. This is what makes the JSONL output
// of `vsched_run --fleet --shards=N` byte-identical for every N, the same
// guarantee class as the runner's --jobs.
//
// Threading contract: one thread at a time, so no internal locking. The
// coordinator posts to the mailbox and to every inbox, and drains the
// mailbox, only while every cell is parked at a barrier. A cell drains its
// own inbox on the worker thread that runs it between barriers; the thread
// pool's task handoff orders that after the coordinator's posts. A cell that
// wants to originate a message hands it to the coordinator at a barrier
// (with its own cell id as `origin`, keeping the canonical order
// origin-stable).
#ifndef SRC_SIM_SHARD_MAILBOX_H_
#define SRC_SIM_SHARD_MAILBOX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"

namespace vsched {

class ShardMailbox {
 public:
  // Origin id for the fleet control plane itself (arrivals, migrations,
  // boots). Cells use their non-negative cell id.
  static constexpr int kControlPlane = -1;

  // Enqueues `apply` to run at the first drain up to a time >= `due`.
  // Closures follow the control-plane capture discipline: slot *ids*, never
  // ClusterHost/TenantVm/cell pointers (vsched-lint's shard-crossing rule).
  void Post(TimeNs due, int origin, std::function<void()> apply) {
    VSCHED_CHECK_MSG(due >= drained_up_to_, "mailbox message due in an already-drained window");
    Message msg;
    msg.due = due;
    msg.origin = origin;
    msg.seq = NextSeq(origin);
    msg.apply = std::move(apply);
    heap_.push_back(std::move(msg));
    std::push_heap(heap_.begin(), heap_.end(), After);
  }

  // Applies every message with due <= `now` in (due, origin, seq) order and
  // returns how many ran. An applied message may Post() follow-ups; they are
  // delivered in this same drain when due <= `now`.
  size_t DrainUpTo(TimeNs now) {
    size_t applied = 0;
    while (!heap_.empty() && heap_.front().due <= now) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      Message msg = std::move(heap_.back());
      heap_.pop_back();
      msg.apply();
      ++applied;
    }
    drained_up_to_ = now;
    return applied;
  }

  size_t pending() const { return heap_.size(); }
  TimeNs next_due() const { return heap_.empty() ? kTimeInfinity : heap_.front().due; }

 private:
  struct Message {
    TimeNs due = 0;
    int origin = kControlPlane;
    uint64_t seq = 0;
    std::function<void()> apply;
  };

  // Min-heap on the canonical key. (due, origin, seq) is a total order:
  // seq is unique per origin.
  static bool After(const Message& a, const Message& b) {
    if (a.due != b.due) {
      return a.due > b.due;
    }
    if (a.origin != b.origin) {
      return a.origin > b.origin;
    }
    return a.seq > b.seq;
  }

  uint64_t NextSeq(int origin) {
    size_t slot = static_cast<size_t>(origin - kControlPlane);
    if (slot >= next_seq_.size()) {
      next_seq_.resize(slot + 1, 0);
    }
    return next_seq_[slot]++;
  }

  std::vector<Message> heap_;
  std::vector<uint64_t> next_seq_;  // per-origin counters, index origin+1
  TimeNs drained_up_to_ = 0;
};

}  // namespace vsched

#endif  // SRC_SIM_SHARD_MAILBOX_H_
