#include "src/base/perf_counters.h"

#include <thread>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(PerfCountersTest, CurrentIsNeverNull) { EXPECT_NE(PerfCounters::Current(), nullptr); }

TEST(PerfCountersTest, ScopeInstallsAndRestores) {
  PerfCounters* before = PerfCounters::Current();
  PerfCounters mine;
  {
    PerfCounters::Scope scope(&mine);
    EXPECT_EQ(PerfCounters::Current(), &mine);
    ++PerfCounters::Current()->events_executed;
  }
  EXPECT_EQ(PerfCounters::Current(), before);
  EXPECT_EQ(mine.events_executed, 1u);
}

TEST(PerfCountersTest, ScopesNest) {
  PerfCounters outer;
  PerfCounters inner;
  PerfCounters::Scope outer_scope(&outer);
  {
    PerfCounters::Scope inner_scope(&inner);
    ++PerfCounters::Current()->rq_picks;
  }
  ++PerfCounters::Current()->rq_picks;
  EXPECT_EQ(inner.rq_picks, 1u);
  EXPECT_EQ(outer.rq_picks, 1u);
}

TEST(PerfCountersTest, ThreadsHaveIndependentSinks) {
  PerfCounters mine;
  PerfCounters::Scope scope(&mine);
  PerfCounters theirs;
  std::thread t([&] {
    // A fresh thread starts on its own default sink, not this thread's scope.
    EXPECT_NE(PerfCounters::Current(), &mine);
    PerfCounters::Scope inner(&theirs);
    ++PerfCounters::Current()->events_scheduled;
  });
  t.join();
  EXPECT_EQ(theirs.events_scheduled, 1u);
  EXPECT_EQ(mine.events_scheduled, 0u);
}

TEST(PerfCountersTest, ResetClearsAllTallies) {
  PerfCounters c;
  c.events_executed = 5;
  c.rq_enqueues = 7;
  c.callback_heap_allocs = 3;
  c.Reset();
  EXPECT_EQ(c.events_executed, 0u);
  EXPECT_EQ(c.rq_enqueues, 0u);
  EXPECT_EQ(c.callback_heap_allocs, 0u);
}

TEST(PerfCountersTest, MergeFromAddsTallies) {
  // How the sharded fleet folds per-cell sinks into the run's sink; a tally
  // the run's sink already holds must survive a merge too.
  PerfCounters run;
  run.ticks_elided = 13;
  PerfCounters cell;
  cell.events_executed = 4;
  cell.timer_fires = 9;
  cell.ticks_elided = 2;
  run.MergeFrom(cell);
  EXPECT_EQ(run.events_executed, 4u);
  EXPECT_EQ(run.timer_fires, 9u);
  EXPECT_EQ(run.ticks_elided, 15u);
}

}  // namespace
}  // namespace vsched
