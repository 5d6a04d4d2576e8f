// TimerWheel unit tests plus the differential stress against the 4-ary event
// heap: under a random schedule/cancel/advance workload the wheel must
// produce exactly the dispatch sequence the heap backend would.
#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"

namespace vsched {
namespace {

// Drains every wheel timer with deadline <= `until`, appending deadlines to
// `fired` via the timers' own callbacks (registered by the caller).
void DrainUntil(TimerWheel& wheel, TimeNs until) {
  for (;;) {
    TimeNs next = wheel.NextDeadlineAtMost(until);
    if (next == kTimeInfinity) {
      return;
    }
    wheel.RunOne(next);
  }
}

TEST(TimerWheel, FiresAtExactDeadline) {
  TimerWheel wheel;
  std::vector<TimeNs> fired;
  TimerId id = wheel.Register([&] { fired.push_back(TimeNs{12345}); });
  wheel.Arm(id, 12345);
  EXPECT_TRUE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedAt(id), 12345);
  EXPECT_EQ(wheel.NextDeadlineAtMost(12344), kTimeInfinity);
  EXPECT_EQ(wheel.NextDeadlineAtMost(12345), 12345);
  wheel.RunOne(12345);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_FALSE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedAt(id), kTimeInfinity);
}

TEST(TimerWheel, SameDeadlineFiresInRegistrationOrder) {
  TimerWheel wheel;
  std::vector<int> order;
  TimerId a = wheel.Register([&] { order.push_back(0); });
  TimerId b = wheel.Register([&] { order.push_back(1); });
  TimerId c = wheel.Register([&] { order.push_back(2); });
  // Arm in scrambled order: dispatch is by (deadline, id), not arm order.
  wheel.Arm(c, MsToNs(5));
  wheel.Arm(a, MsToNs(5));
  wheel.Arm(b, MsToNs(5));
  DrainUntil(wheel, MsToNs(5));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  (void)a;
  (void)b;
  (void)c;
}

TEST(TimerWheel, FarDeadlineCascadesDownToExactFiring) {
  TimerWheel wheel;
  std::vector<TimeNs> fired;
  // Deep into level 5 territory: crosses several cascades on the way down.
  const TimeNs kWhen = (TimeNs{1} << 42) + 777;
  TimerId id = wheel.Register([&] { fired.push_back(kWhen); });
  wheel.Arm(id, kWhen);
  // A near probe must not disturb it (and must stay cheap / bounded).
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(1)), kTimeInfinity);
  EXPECT_TRUE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.NextDeadlineAtMost(kWhen - 1), kTimeInfinity);
  EXPECT_EQ(wheel.NextDeadlineAtMost(kWhen), kWhen);
  wheel.RunOne(kWhen);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
}

TEST(TimerWheel, CancelInBucketAndReArm) {
  TimerWheel wheel;
  int fires = 0;
  TimerId id = wheel.Register([&] { ++fires; });
  wheel.Arm(id, MsToNs(3));
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // already disarmed
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(10)), kTimeInfinity);
  wheel.Arm(id, MsToNs(7));
  DrainUntil(wheel, MsToNs(10));
  EXPECT_EQ(fires, 1);
}

TEST(TimerWheel, CancelAfterPromotionToReady) {
  TimerWheel wheel;
  int fires = 0;
  TimerId victim = wheel.Register([&] { ++fires; });
  TimerId keeper = wheel.Register([&] { ++fires; });
  wheel.Arm(victim, MsToNs(2));
  wheel.Arm(keeper, MsToNs(2) + 100);
  // The probe may pull both into the ready heap; cancelling afterwards must
  // still win (lazy invalidation).
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(3)), MsToNs(2));
  EXPECT_TRUE(wheel.Cancel(victim));
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(3)), MsToNs(2) + 100);
  wheel.RunOne(MsToNs(2) + 100);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
}

TEST(TimerWheel, ReArmMovesTheDeadline) {
  TimerWheel wheel;
  std::vector<TimeNs> fired;
  TimerId id = wheel.Register([&] { fired.push_back(wheel.ArmedAt(id)); });
  wheel.Arm(id, MsToNs(1));
  wheel.Arm(id, MsToNs(4));  // re-arm replaces, never duplicates
  EXPECT_EQ(wheel.ArmedCount(), 1u);
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(2)), kTimeInfinity);
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(4)), MsToNs(4));
  wheel.RunOne(MsToNs(4));
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerWheel, PeriodicSelfReArmFromCallback) {
  TimerWheel wheel;
  int fires = 0;
  TimerId id = kInvalidTimerId;
  id = wheel.Register([&] {
    ++fires;
    // fired_count() is already incremented for this firing, so the next grid
    // point is one period further.
    wheel.Arm(id, static_cast<TimeNs>(wheel.fired_count() + 1) * MsToNs(1));
  });
  wheel.Arm(id, MsToNs(1));
  DrainUntil(wheel, MsToNs(10));
  EXPECT_EQ(fires, 10);
  EXPECT_TRUE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedAt(id), MsToNs(11));
}

TEST(TimerWheel, UnregisterRecyclesIdsLifo) {
  TimerWheel wheel;
  TimerId a = wheel.Register([] {});
  TimerId b = wheel.Register([] {});
  EXPECT_NE(a, kInvalidTimerId);
  EXPECT_NE(b, a);
  wheel.Arm(b, MsToNs(1));
  wheel.Unregister(b);  // cancels implicitly
  EXPECT_EQ(wheel.ArmedCount(), 0u);
  TimerId c = wheel.Register([] {});
  EXPECT_EQ(c, b);  // LIFO reuse keeps id sequences deterministic
  // A recycled slot must not fire the previous owner's pending state.
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(10)), kTimeInfinity);
}

TEST(TimerWheel, StillFiresAtTracksDispatchPosition) {
  TimerWheel wheel;
  std::vector<std::pair<TimerId, bool>> seen;
  TimerId a = wheel.Register([&] { seen.emplace_back(a, wheel.StillFiresAt(a, MsToNs(1))); });
  TimerId b = wheel.Register([&] { seen.emplace_back(b, wheel.StillFiresAt(b, MsToNs(1))); });
  wheel.Arm(a, MsToNs(1));
  wheel.Arm(b, MsToNs(1));
  // Before any dispatch at t, every id still fires at t.
  EXPECT_TRUE(wheel.StillFiresAt(a, MsToNs(1)));
  DrainUntil(wheel, MsToNs(1));
  ASSERT_EQ(seen.size(), 2u);
  // Inside each callback the firing timer itself has been passed already.
  EXPECT_FALSE(seen[0].second);
  EXPECT_FALSE(seen[1].second);
  EXPECT_FALSE(wheel.StillFiresAt(a, MsToNs(1)));
  EXPECT_FALSE(wheel.StillFiresAt(b, MsToNs(1)));
  EXPECT_TRUE(wheel.StillFiresAt(b, MsToNs(2)));  // future instants unaffected
}

TEST(TimerWheel, StillFiresAtKeepsTheBandHighWaterMark) {
  // Timer `low` is armed for the current instant after `high` has fired, so
  // it fires late, out of id order. `mid`'s band position had still passed.
  TimerWheel wheel;
  TimerId low = wheel.Register([] {});
  TimerId mid = wheel.Register([] {});
  TimerId high = wheel.Register([&] { wheel.Arm(low, MsToNs(1)); });
  wheel.Arm(high, MsToNs(1));
  DrainUntil(wheel, MsToNs(1));
  EXPECT_FALSE(wheel.IsArmed(low));  // fired after `high`, at the same instant
  EXPECT_FALSE(wheel.StillFiresAt(mid, MsToNs(1)));
  EXPECT_FALSE(wheel.StillFiresAt(high, MsToNs(1)));
  EXPECT_TRUE(wheel.StillFiresAt(high + 1, MsToNs(1)));
}

// ---------------------------------------------------------------------------
// Differential stress: wheel vs the 4-ary heap, identical dispatch sequences.
// ---------------------------------------------------------------------------

// One logical timer mirrored across both backends. Deadlines are kept unique
// so (when) alone fixes the global order in both structures; same-deadline
// ordering has its own unit test above (the heap breaks such ties by
// schedule order, the wheel by id — deliberately not comparable under
// random arm order).
struct MirroredTimer {
  TimerId timer = kInvalidTimerId;
  EventId event;
  TimeNs deadline = kTimeInfinity;
  bool armed = false;
};

TEST(TimerWheelDifferential, RandomOpsMatchHeapBackend) {
  constexpr int kTimers = 64;
  constexpr int kOps = 10000;
  TimerWheel wheel;
  EventQueue heap;
  Rng rng(0x7EE1);

  std::vector<MirroredTimer> timers(kTimers);
  std::vector<std::pair<TimeNs, int>> wheel_fired;
  std::vector<std::pair<TimeNs, int>> heap_fired;
  std::vector<TimeNs> used_deadlines;

  for (int i = 0; i < kTimers; ++i) {
    timers[i].timer = wheel.Register([&, i] {
      wheel_fired.emplace_back(timers[i].deadline, i);
      timers[i].armed = false;
    });
  }

  TimeNs now = 0;
  auto unique_deadline = [&](TimeNs want) {
    while (std::find(used_deadlines.begin(), used_deadlines.end(), want) !=
           used_deadlines.end()) {
      ++want;
    }
    used_deadlines.push_back(want);
    return want;
  };

  for (int op = 0; op < kOps; ++op) {
    int roll = static_cast<int>(rng.UniformInt(0, 9));
    int i = static_cast<int>(rng.UniformInt(0, kTimers - 1));
    MirroredTimer& t = timers[i];
    if (roll < 5) {
      // Arm (or re-arm) with a delta spanning sub-bucket to multi-level
      // distances: 2^0 .. 2^36 ns.
      int magnitude = static_cast<int>(rng.UniformInt(0, 36));
      TimeNs delta = 1 + static_cast<TimeNs>(rng.UniformInt(0, (TimeNs{1} << magnitude)));
      TimeNs when = unique_deadline(now + delta);
      if (t.armed) {
        wheel.Cancel(t.timer);
        heap.Cancel(t.event);
      }
      t.deadline = when;
      t.armed = true;
      wheel.Arm(t.timer, when);
      t.event = heap.ScheduleAt(when, [&, i] {
        heap_fired.emplace_back(timers[i].deadline, i);
      });
    } else if (roll < 7) {
      // Cancel.
      if (t.armed) {
        EXPECT_TRUE(wheel.Cancel(t.timer));
        EXPECT_TRUE(heap.Cancel(t.event));
        t.armed = false;
      }
    } else {
      // Advance both backends through the same window.
      TimeNs until = now + static_cast<TimeNs>(rng.UniformInt(0, MsToNs(40)));
      DrainUntil(wheel, until);
      heap.RunUntil(until);
      now = until;
      ASSERT_EQ(wheel_fired.size(), heap_fired.size()) << "after op " << op;
    }
  }
  // Flush everything still pending.
  DrainUntil(wheel, kTimeInfinity - 1);
  heap.RunUntil(kTimeInfinity - 1);

  ASSERT_EQ(wheel_fired.size(), heap_fired.size());
  EXPECT_EQ(wheel_fired, heap_fired);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
  EXPECT_EQ(heap.PendingCount(), 0u);
}

// The same invariant one level up: a periodic wheel timer re-armed from its
// own callback (how every production tick and refill runs) against a
// hand-scheduled heap chain produces the same firing timeline.
TEST(TimerWheelDifferential, PeriodicMatchesHeapChain) {
  Simulation sim(1);
  std::vector<TimeNs> wheel_ticks;
  TimerId tick = kInvalidTimerId;
  tick = sim.CreateTimer([&] {
    wheel_ticks.push_back(sim.now());
    sim.ArmTimerAfter(tick, MsToNs(1));
  });
  sim.ArmTimerAfter(tick, MsToNs(1));

  EventQueue heap;
  std::vector<TimeNs> heap_ticks;
  std::function<void()> chain = [&] {
    heap_ticks.push_back(heap.now());
    heap.ScheduleAfter(MsToNs(1), [&] { chain(); });
  };
  heap.ScheduleAfter(MsToNs(1), [&] { chain(); });

  sim.RunFor(MsToNs(100));
  heap.RunUntil(MsToNs(100));
  EXPECT_EQ(wheel_ticks, heap_ticks);
  EXPECT_EQ(wheel_ticks.size(), 100u);
}

}  // namespace
}  // namespace vsched
