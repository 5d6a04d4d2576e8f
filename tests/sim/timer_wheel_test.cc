// Timer band unit tests, the differential stress against the 4-ary event
// queue (under a random schedule/cancel/advance workload the band must
// produce exactly the dispatch sequence the queue would), and a model test
// of the band contract against an ordered-set reference. Some test names
// predate the heap and still speak of buckets and cascades.
#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
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
  // About 73 simulated minutes ahead.
  const TimeNs kWhen = (TimeNs{1} << 42) + 777;
  TimerId id = wheel.Register([&] { fired.push_back(kWhen); });
  wheel.Arm(id, kWhen);
  // A near probe must not disturb it.
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
  // Cancelling the earliest timer after a probe has seen it must still win.
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
      // Arm (or re-arm) with a delta of 2^0 .. 2^36 ns.
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

// ---------------------------------------------------------------------------
// Model test: the band contract against an ordered-set reference.
// ---------------------------------------------------------------------------

// The reference holds the armed timers as a set of (deadline, id) and fires
// its minimum. That is the whole band contract: timers fire in (deadline,
// TimerId) order, and a timer armed from a callback for the dispatching
// instant still fires this instant, late if the band already passed its id.
// The reference also predicts LIFO id reuse and StillFiresAt's band
// high-water mark. Operations come from the test body and from inside firing
// callbacks, and deadlines sit on coarse grids so that ties are common: a
// wheel that broke a tie other than by id would fire another sequence.
class BandModel {
 public:
  struct Stats {
    int fires = 0;
    int ties = 0;           // fires at the same instant as the previous fire
    int late_fires = 0;     // ...whose id is below one already fired there
    int recycled_ids = 0;   // Register calls that reused a retired id
    int callback_arms = 0;  // arms issued from inside a firing callback
  };

  BandModel(uint64_t seed, std::vector<TimeNs> quanta)
      : rng_(seed), quanta_(std::move(quanta)) {}

  // Runs `ops` random operations, then drains everything still armed.
  void Run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      if (rng_.Bernoulli(0.3)) {
        const TimeNs until = now_ + Delta();
        Drain(until);
        now_ = until;
      } else {
        RandomOp(kInvalidTimerId);
      }
    }
    Drain(kTimeInfinity - 1);
    EXPECT_EQ(wheel_.ArmedCount(), 0u);
    EXPECT_EQ(fired_, expected_);
  }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr size_t kMaxLive = 40;
  static constexpr int kMaxFiresPerInstant = 64;

  // A step from now_: zero (this instant) or a few quanta.
  TimeNs Delta() {
    if (fires_this_instant_ < kMaxFiresPerInstant && rng_.Bernoulli(0.2)) {
      return 0;
    }
    const auto q = rng_.UniformInt(0, static_cast<int64_t>(quanta_.size()) - 1);
    return quanta_[static_cast<size_t>(q)] * rng_.UniformInt(1, 6);
  }

  TimerId Pick() {
    const auto i = rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1);
    return live_[static_cast<size_t>(i)];
  }

  // One operation; `firing` is the timer whose callback issues it, if any.
  void RandomOp(TimerId firing) {
    const int64_t roll = rng_.UniformInt(0, 9);
    if (live_.empty() || (roll < 2 && live_.size() < kMaxLive)) {
      Register();
    } else if (roll == 2) {
      const TimerId id = Pick();
      if (id != firing) {  // a callback never retires its own slot
        Unregister(id);
      }
    } else if (roll < 7) {
      Arm(Pick(), now_ + Delta());
      if (firing != kInvalidTimerId) {
        ++stats_.callback_arms;
      }
    } else if (roll == 7) {
      const TimerId id = Pick();
      const bool armed = when_[id] != kTimeInfinity;
      EXPECT_EQ(wheel_.Cancel(id), armed);
      Disarm(id);
    } else {
      const TimerId id = Pick();
      EXPECT_EQ(wheel_.IsArmed(id), when_[id] != kTimeInfinity);
      EXPECT_EQ(wheel_.ArmedAt(id), when_[id]);
      EXPECT_EQ(wheel_.StillFiresAt(id, now_), StillFires(id, now_));
    }
  }

  void Register() {
    TimerId want = static_cast<TimerId>(when_.size());
    if (!free_.empty()) {
      want = free_.back();
      free_.pop_back();
      ++stats_.recycled_ids;
    } else {
      when_.push_back(kTimeInfinity);
    }
    TimerId* self = &self_ids_.emplace_back(want);
    const TimerId id = wheel_.Register([this, self] { OnFire(*self); });
    EXPECT_EQ(id, want) << "ids are recycled LIFO";
    if (id == want) {
      live_.push_back(id);
    }
  }

  void Unregister(TimerId id) {
    wheel_.Unregister(id);
    Disarm(id);
    live_.erase(std::find(live_.begin(), live_.end(), id));
    free_.push_back(id);
  }

  void Arm(TimerId id, TimeNs when) {
    wheel_.Arm(id, when);
    Disarm(id);
    when_[id] = when;
    armed_.emplace(when, id);
  }

  void Disarm(TimerId id) {
    if (when_[id] != kTimeInfinity) {
      armed_.erase({when_[id], id});
      when_[id] = kTimeInfinity;
    }
  }

  bool StillFires(TimerId id, TimeNs when) const {
    return !(fired_any_ && when == last_when_ && id <= band_high_);
  }

  // Fires the reference's minimum while it is <= `until`, checking the
  // wheel's probe, its pick, and StillFiresAt for every live id after each
  // fire.
  void Drain(TimeNs until) {
    while (!::testing::Test::HasFailure()) {
      const TimeNs want =
          armed_.empty() || armed_.begin()->first > until ? kTimeInfinity : armed_.begin()->first;
      const TimeNs got = wheel_.NextDeadlineAtMost(until);
      EXPECT_EQ(got, want);
      if (got != want || got == kTimeInfinity) {
        return;
      }
      const auto [when, id] = *armed_.begin();
      armed_.erase(armed_.begin());
      when_[id] = kTimeInfinity;
      if (fired_any_ && last_when_ == when) {
        ++stats_.ties;
        ++fires_this_instant_;
        if (id < band_high_) {
          ++stats_.late_fires;
        }
      } else {
        band_high_ = kInvalidTimerId;
        fires_this_instant_ = 1;
      }
      band_high_ = std::max(band_high_, id);
      fired_any_ = true;
      last_when_ = when;
      now_ = when;
      ++stats_.fires;
      expected_.emplace_back(when, id);
      wheel_.RunOne(got);
      EXPECT_EQ(wheel_.ArmedCount(), armed_.size());
      for (const TimerId x : live_) {
        EXPECT_EQ(wheel_.StillFiresAt(x, now_), StillFires(x, now_))
            << "timer " << x << " at " << now_;
        EXPECT_TRUE(wheel_.StillFiresAt(x, now_ + 1));
      }
    }
  }

  void OnFire(TimerId self) {
    fired_.emplace_back(now_, self);
    const int64_t ops = rng_.UniformInt(0, 2);
    for (int64_t i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      RandomOp(self);
    }
  }

  Rng rng_;
  std::vector<TimeNs> quanta_;
  TimerWheel wheel_;
  // Reference state.
  std::set<std::pair<TimeNs, TimerId>> armed_;
  std::vector<TimeNs> when_{kTimeInfinity};  // by id; kTimeInfinity: unarmed
  std::vector<TimerId> live_;
  std::vector<TimerId> free_;
  std::deque<TimerId> self_ids_;  // each callback's own id, address-stable
  TimeNs now_ = 0;
  bool fired_any_ = false;
  TimeNs last_when_ = 0;
  TimerId band_high_ = kInvalidTimerId;
  int fires_this_instant_ = 0;
  // (deadline, id) of every fire: as the reference predicts it, and as the
  // callbacks saw it.
  std::vector<std::pair<TimeNs, TimerId>> expected_;
  std::vector<std::pair<TimeNs, TimerId>> fired_;
  Stats stats_;
};

void ExpectEveryCornerVisited(const BandModel::Stats& s) {
  EXPECT_GT(s.ties, 0);
  EXPECT_GT(s.late_fires, 0);
  EXPECT_GT(s.recycled_ids, 0);
  EXPECT_GT(s.callback_arms, 0);
}

TEST(TimerWheelModel, RandomWalksMatchTheOrderedSetReference) {
  // Steps from one nanosecond to tens of milliseconds.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    BandModel model(seed, {1, 1000, TimeNs{1} << 16, TimeNs{1} << 22});
    model.Run(5000);
    ExpectEveryCornerVisited(model.stats());
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

TEST(TimerWheelModel, CrowdedInstantsMatchTheOrderedSetReference) {
  // One-microsecond steps: a third or more of the fires share their instant
  // with an earlier one.
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    BandModel model(seed, {1000});
    model.Run(5000);
    ExpectEveryCornerVisited(model.stats());
    EXPECT_GT(model.stats().ties * 3, model.stats().fires);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace vsched
