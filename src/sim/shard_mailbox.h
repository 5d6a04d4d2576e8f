// Timestamped message queue of the sharded (PDES) fleet engine, used in two
// roles (docs/PERF.md, "Sharded fleet execution"):
//  - the control-plane mailbox: VM arrivals, boot completions, migration
//    phases and departures, whose handlers the coordinator runs in canonical
//    order while it plans ahead of the cells;
//  - each cell's inbox: the actions those handlers planned for the cell's
//    simulated state (build a tenant stack, pause a VM, commit a migration,
//    tear a tenant down, count the busy threads for a control tick's
//    sample), which the cell applies at exactly their instants.
// Nothing that crosses a cell boundary touches another cell's event queue or
// entity state directly; it travels as a message instead.
//
// Determinism contract: messages are applied in (due_time, post order).
// Only the single-threaded coordinator posts, and only while every cell is
// parked, so post order is a function of the spec alone, never of how many
// worker threads execute the cells. This is what makes the JSONL output of
// `vsched_run --fleet --shards=N` byte-identical for every N, the same
// guarantee class as the runner's --jobs.
//
// Threading contract: one thread at a time, so no internal locking. The
// coordinator posts to the mailbox and to every inbox, and drains the
// mailbox, only while every cell is parked. A cell drains its own inbox on
// the worker thread that runs it; the thread pool's task handoff orders
// that after the coordinator's posts.
#ifndef SRC_SIM_SHARD_MAILBOX_H_
#define SRC_SIM_SHARD_MAILBOX_H_

#include <functional>
#include <map>
#include <utility>

#include "src/base/check.h"
#include "src/base/time.h"

namespace vsched {

class ShardMailbox {
 public:
  // Enqueues `apply` to run at the first drain up to a time >= `due`.
  // Closures follow the control-plane capture discipline: slot *ids*, never
  // ClusterHost/TenantVm/cell pointers (vsched-lint's shard-crossing rule).
  void Post(TimeNs due, std::function<void()> apply) {
    VSCHED_CHECK_MSG(due >= drained_up_to_, "mailbox message due in an already-drained window");
    messages_.emplace(due, std::move(apply));
  }

  // Applies every message with due <= `now` in (due, post order) and
  // returns how many ran. An applied message may Post() follow-ups; they are
  // delivered in this same drain when due <= `now`.
  size_t DrainUpTo(TimeNs now) {
    size_t applied = 0;
    while (!messages_.empty() && messages_.begin()->first <= now) {
      std::function<void()> apply = std::move(messages_.begin()->second);
      messages_.erase(messages_.begin());
      apply();
      ++applied;
    }
    drained_up_to_ = now;
    return applied;
  }

  size_t pending() const { return messages_.size(); }
  TimeNs next_due() const { return messages_.empty() ? kTimeInfinity : messages_.begin()->first; }

 private:
  // A multimap keeps equal keys in insertion order, so iteration order is
  // exactly (due, post order).
  std::multimap<TimeNs, std::function<void()>> messages_;
  TimeNs drained_up_to_ = 0;
};

}  // namespace vsched

#endif  // SRC_SIM_SHARD_MAILBOX_H_
