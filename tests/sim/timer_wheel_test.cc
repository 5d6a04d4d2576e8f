// Registered-timer unit tests for the dispatch heap (src/sim/event_queue.h),
// the same-instant order of timers and one-shot events, and a model test of
// the whole dispatch contract against an ordered-set reference. The suites
// keep the timer band's old name, TimerWheel.
#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace vsched {
namespace {

// Runs every entry due at or before `until`. Unlike RunUntil, it leaves the
// clock at the last dispatch and that instant open.
void DrainUntil(EventQueue& q, TimeNs until) {
  while (q.NextEventTime() <= until) {
    q.RunOne();
  }
}

// NextDeadlineAtMost and RunOne(TimeNs) exist for perfbench's timer probe;
// this test keeps them working.
TEST(TimerWheel, FiresAtExactDeadline) {
  EventQueue q;
  std::vector<TimeNs> fired;
  TimerId id = q.Register([&] { fired.push_back(TimeNs{12345}); });
  q.Arm(id, 12345);
  EXPECT_TRUE(q.IsArmed(id));
  EXPECT_EQ(q.ArmedAt(id), 12345);
  EXPECT_EQ(q.NextDeadlineAtMost(12344), kTimeInfinity);
  EXPECT_EQ(q.NextDeadlineAtMost(12345), 12345);
  q.RunOne(12345);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_FALSE(q.IsArmed(id));
  EXPECT_EQ(q.ArmedAt(id), kTimeInfinity);
}

TEST(TimerWheel, SameDeadlineFiresInRegistrationOrder) {
  EventQueue q;
  std::vector<int> order;
  TimerId a = q.Register([&] { order.push_back(0); });
  TimerId b = q.Register([&] { order.push_back(1); });
  TimerId c = q.Register([&] { order.push_back(2); });
  // Arm in scrambled order: dispatch is by (deadline, id), not arm order.
  q.Arm(c, MsToNs(5));
  q.Arm(a, MsToNs(5));
  q.Arm(b, MsToNs(5));
  DrainUntil(q, MsToNs(5));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  (void)a;
  (void)b;
  (void)c;
}

TEST(TimerWheel, FarDeadlineFiresExactly) {
  EventQueue q;
  std::vector<TimeNs> fired;
  // About 73 simulated minutes ahead.
  const TimeNs kWhen = (TimeNs{1} << 42) + 777;
  TimerId id = q.Register([&] { fired.push_back(kWhen); });
  q.Arm(id, kWhen);
  EXPECT_TRUE(q.IsArmed(id));
  EXPECT_EQ(q.NextEventTime(), kWhen);
  q.RunOne();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(q.ArmedCount(), 0u);
}

TEST(TimerWheel, CancelThenReArm) {
  EventQueue q;
  int fires = 0;
  TimerId id = q.Register([&] { ++fires; });
  q.Arm(id, MsToNs(3));
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // already disarmed
  EXPECT_GT(q.NextEventTime(), MsToNs(10));
  q.Arm(id, MsToNs(7));
  DrainUntil(q, MsToNs(10));
  EXPECT_EQ(fires, 1);
}

TEST(TimerWheel, CancelTheEarliestAfterAPeek) {
  EventQueue q;
  int fires = 0;
  TimerId victim = q.Register([&] { ++fires; });
  TimerId keeper = q.Register([&] { ++fires; });
  q.Arm(victim, MsToNs(2));
  q.Arm(keeper, MsToNs(2) + 100);
  // Cancelling the earliest timer after a peek at it must still win.
  EXPECT_EQ(q.NextEventTime(), MsToNs(2));
  EXPECT_TRUE(q.Cancel(victim));
  EXPECT_EQ(q.NextEventTime(), MsToNs(2) + 100);
  q.RunOne();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(q.ArmedCount(), 0u);
}

TEST(TimerWheel, ReArmMovesTheDeadline) {
  EventQueue q;
  std::vector<TimeNs> fired;
  TimerId id = q.Register([&] { fired.push_back(q.ArmedAt(id)); });
  q.Arm(id, MsToNs(1));
  q.Arm(id, MsToNs(4));  // re-arm replaces, never duplicates
  EXPECT_EQ(q.ArmedCount(), 1u);
  EXPECT_EQ(q.NextEventTime(), MsToNs(4));
  q.RunOne();
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerWheel, PeriodicSelfReArmFromCallback) {
  EventQueue q;
  int fires = 0;
  TimerId id = kInvalidTimerId;
  id = q.Register([&] {
    ++fires;
    // `fires` already counts this firing, so the next grid point is one
    // period further.
    q.Arm(id, static_cast<TimeNs>(fires + 1) * MsToNs(1));
  });
  q.Arm(id, MsToNs(1));
  DrainUntil(q, MsToNs(10));
  EXPECT_EQ(fires, 10);
  EXPECT_TRUE(q.IsArmed(id));
  EXPECT_EQ(q.ArmedAt(id), MsToNs(11));
}

TEST(TimerWheel, UnregisterRecyclesIdsLifo) {
  EventQueue q;
  TimerId a = q.Register([] {});
  TimerId b = q.Register([] {});
  EXPECT_NE(a, kInvalidTimerId);
  EXPECT_NE(b, a);
  q.Arm(b, MsToNs(1));
  q.Unregister(b);  // cancels implicitly
  EXPECT_EQ(q.ArmedCount(), 0u);
  TimerId c = q.Register([] {});
  EXPECT_EQ(c, b);  // LIFO reuse keeps id sequences deterministic
  // A recycled slot must not fire the previous owner's pending state.
  EXPECT_GT(q.NextEventTime(), MsToNs(10));
}

TEST(TimerWheel, StillFiresAtTracksDispatchPosition) {
  EventQueue q;
  std::vector<std::pair<TimerId, bool>> seen;
  TimerId a = q.Register([&] { seen.emplace_back(a, q.StillFiresAt(a, MsToNs(1))); });
  TimerId b = q.Register([&] { seen.emplace_back(b, q.StillFiresAt(b, MsToNs(1))); });
  q.Arm(a, MsToNs(1));
  q.Arm(b, MsToNs(1));
  // Before any dispatch at t, every id still fires at t.
  EXPECT_TRUE(q.StillFiresAt(a, MsToNs(1)));
  DrainUntil(q, MsToNs(1));
  ASSERT_EQ(seen.size(), 2u);
  // Inside each callback the firing timer itself has been passed already.
  EXPECT_FALSE(seen[0].second);
  EXPECT_FALSE(seen[1].second);
  EXPECT_FALSE(q.StillFiresAt(a, MsToNs(1)));
  EXPECT_FALSE(q.StillFiresAt(b, MsToNs(1)));
  EXPECT_TRUE(q.StillFiresAt(b, MsToNs(2)));  // future instants unaffected
}

TEST(TimerWheel, StillFiresAtKeepsTheBandHighWaterMark) {
  // Timer `low` is armed for the current instant after `high` has fired, so
  // it fires late, out of id order. `mid`'s band position had still passed.
  EventQueue q;
  TimerId low = q.Register([] {});
  TimerId mid = q.Register([] {});
  TimerId high = q.Register([&] { q.Arm(low, MsToNs(1)); });
  q.Arm(high, MsToNs(1));
  DrainUntil(q, MsToNs(1));
  EXPECT_FALSE(q.IsArmed(low));  // fired after `high`, at the same instant
  EXPECT_FALSE(q.StillFiresAt(mid, MsToNs(1)));
  EXPECT_FALSE(q.StillFiresAt(high, MsToNs(1)));
  EXPECT_TRUE(q.StillFiresAt(high + 1, MsToNs(1)));
}

// ---------------------------------------------------------------------------
// One instant: timers before one-shot events.
// ---------------------------------------------------------------------------

TEST(TimerWheelOrder, TimersFireBeforeEventsAtOneInstant) {
  EventQueue q;
  std::vector<std::string> order;
  const TimerId late = q.Register([&] { order.push_back("timer late"); });
  const TimerId b = q.Register([&] { order.push_back("timer b"); });
  const TimerId a = q.Register([&] {
    order.push_back("timer a");
    // Posted for now() from inside a timer: after every timer of the
    // instant, then after the events posted before it (FIFO).
    q.ScheduleAt(q.now(), [&] { order.push_back("event from a"); });
  });
  q.ScheduleAt(MsToNs(1), [&] {
    order.push_back("event 1");
    EXPECT_FALSE(q.StillFiresAt(late, MsToNs(1)));  // an event closed the instant
    // Armed for now() from inside an event: before the instant's remaining
    // events.
    q.Arm(late, q.now());
  });
  q.ScheduleAt(MsToNs(1), [&] { order.push_back("event 2"); });
  q.Arm(b, MsToNs(1));
  q.Arm(a, MsToNs(1));
  q.RunUntil(MsToNs(1));
  EXPECT_EQ(order, (std::vector<std::string>{"timer b", "timer a", "event 1", "timer late",
                                             "event 2", "event from a"}));
  EXPECT_FALSE(q.StillFiresAt(late, MsToNs(1)));
}

TEST(TimerWheelOrder, RunUntilClosesItsDeadline) {
  EventQueue q;
  const TimerId id = q.Register([] {});
  q.RunUntil(MsToNs(1));
  EXPECT_FALSE(q.StillFiresAt(id, MsToNs(1)));
  EXPECT_TRUE(q.StillFiresAt(id, MsToNs(2)));
  // A timer armed between two RunUntil calls still fires at the closed
  // instant, and the instant stays closed.
  q.Arm(id, MsToNs(1));
  q.RunUntil(MsToNs(1));
  EXPECT_FALSE(q.IsArmed(id));
  EXPECT_FALSE(q.StillFiresAt(id, MsToNs(1)));
}

// ---------------------------------------------------------------------------
// Model test: the dispatch contract against an ordered-set reference.
// ---------------------------------------------------------------------------

// The reference holds every pending entry as a (time, kind, tie) triple in a
// std::set and fires its minimum: timers (kind 0, tied by TimerId) before
// one-shot events (kind 1, tied by post order) at one instant. That is the
// whole dispatch contract: a timer armed for the dispatching instant from a
// callback still fires this instant (late, if its id's turn has passed, and
// before the instant's remaining events), and an event posted for it waits
// for every timer and every earlier event. The reference also predicts LIFO
// id reuse, which event handles still cancel (never one whose event ran or
// was cancelled, even after a later post reused its slot), and StillFiresAt:
// false once a timer at or past the id fired this instant, or once an event
// ran or RunUntil returned at it. Operations come from the test body and
// from inside firing timers and events, and times sit on coarse grids so
// that ties are common: a queue that broke a tie another way would fire
// another sequence.
class DispatchModel {
 public:
  struct Stats {
    int fires = 0;                 // timer fires
    int ties = 0;                  // ...at an instant where something already fired
    int late_fires = 0;            // ...whose id is below one already fired there
    int fires_at_closed = 0;       // ...at an instant an event or RunUntil closed
    int mixed_instants = 0;        // ...while an event is pending at the same instant
    int events = 0;                // event dispatches
    int event_ties = 0;            // ...at an instant where an event already ran
    int recycled_ids = 0;          // Register calls that reused a retired id
    int callback_arms = 0;         // arms issued from inside a firing timer
    int arms_now_from_events = 0;  // arms for now() from inside an event
    int posts_now_from_timers = 0;  // posts for now() from inside a timer
    int stale_cancels = 0;         // cancels of a spent handle after a later post
    int self_cancels = 0;          // an event cancelling its own handle
    int closed_queries = 0;        // StillFiresAt false only because the instant closed
  };

  DispatchModel(uint64_t seed, std::vector<TimeNs> quanta)
      : rng_(seed), quanta_(std::move(quanta)) {}

  // Runs `ops` random operations, then drains everything still pending.
  void Run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      if (rng_.Bernoulli(0.3)) {
        Advance(now_ + Delta(), rng_.Bernoulli(0.5));
      } else {
        RandomOp(kInvalidTimerId, kNoEvent);
      }
    }
    Advance(kTimeInfinity - 1, /*run_until=*/true);
    EXPECT_EQ(q_.ArmedCount(), 0u);
    EXPECT_EQ(q_.PendingCount(), 0u);
    EXPECT_EQ(fired_, expected_);
  }

  const Stats& stats() const { return stats_; }

 private:
  using Key = std::tuple<TimeNs, int, uint64_t>;  // (time, kind, tie)
  static constexpr int kTimer = 0;
  static constexpr int kEvent = 1;
  static constexpr uint64_t kNoEvent = UINT64_MAX;
  static constexpr size_t kMaxLive = 40;
  static constexpr int kMaxFiresPerInstant = 64;

  struct Posted {
    EventId id;
    TimeNs when = 0;
    bool pending = true;
    size_t posts_at_end = 0;  // posted_.size() when it ran or was cancelled
  };

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

  // One operation; `timer` or `event` is the entry whose callback issues it,
  // if any.
  void RandomOp(TimerId timer, uint64_t event) {
    const int64_t roll = rng_.UniformInt(0, 14);
    if (live_.empty() || (roll < 2 && live_.size() < kMaxLive)) {
      Register();
    } else if (roll == 2) {
      const TimerId id = Pick();
      if (id != timer) {  // a callback never retires its own slot
        Unregister(id);
      }
    } else if (roll < 7) {
      const TimeNs delta = Delta();
      Arm(Pick(), now_ + delta);
      stats_.callback_arms += timer != kInvalidTimerId ? 1 : 0;
      stats_.arms_now_from_events += event != kNoEvent && delta == 0 ? 1 : 0;
    } else if (roll == 7) {
      const TimerId id = Pick();
      EXPECT_EQ(q_.Cancel(id), when_[id] != kTimeInfinity);
      Disarm(id);
    } else if (roll == 8) {
      const TimerId id = Pick();
      EXPECT_EQ(q_.IsArmed(id), when_[id] != kTimeInfinity);
      EXPECT_EQ(q_.ArmedAt(id), when_[id]);
      EXPECT_EQ(q_.StillFiresAt(id, now_), StillFires(id));
    } else if (roll < 12) {
      if (live_events_ < kMaxLive) {
        const TimeNs delta = Delta();
        Post(now_ + delta);
        stats_.posts_now_from_timers += timer != kInvalidTimerId && delta == 0 ? 1 : 0;
      }
    } else if (!posted_.empty()) {
      // Any handle ever issued: pending, spent, or spent with its slot reused.
      const auto i = rng_.UniformInt(0, static_cast<int64_t>(posted_.size()) - 1);
      CancelEvent(static_cast<uint64_t>(i));
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
    const TimerId id = q_.Register([this, self] { OnFire(*self); });
    EXPECT_EQ(id, want) << "ids are recycled LIFO";
    if (id == want) {
      live_.push_back(id);
    }
  }

  void Unregister(TimerId id) {
    q_.Unregister(id);
    Disarm(id);
    live_.erase(std::find(live_.begin(), live_.end(), id));
    free_.push_back(id);
  }

  void Arm(TimerId id, TimeNs when) {
    q_.Arm(id, when);
    Disarm(id);
    when_[id] = when;
    pending_.emplace(when, kTimer, id);
  }

  void Disarm(TimerId id) {
    if (when_[id] != kTimeInfinity) {
      pending_.erase({when_[id], kTimer, id});
      when_[id] = kTimeInfinity;
    }
  }

  void Post(TimeNs when) {
    const uint64_t seq = posted_.size();
    posted_.push_back(Posted{EventId(), when});
    posted_.back().id = q_.ScheduleAt(when, [this, seq] { OnEvent(seq); });
    pending_.emplace(when, kEvent, seq);
    ++live_events_;
  }

  void CancelEvent(uint64_t seq) {
    Posted& p = posted_[seq];
    EXPECT_EQ(q_.Cancel(p.id), p.pending);
    if (p.pending) {
      pending_.erase({p.when, kEvent, seq});
      Spend(seq);
    } else if (posted_.size() > p.posts_at_end) {
      ++stats_.stale_cancels;
    }
  }

  void Spend(uint64_t seq) {
    posted_[seq].pending = false;
    posted_[seq].posts_at_end = posted_.size();
    --live_events_;
  }

  bool StillFires(TimerId id) const { return !closed_ && id > band_high_; }

  void NewInstant(TimeNs when) {
    if (when != now_) {
      now_ = when;
      band_high_ = kInvalidTimerId;
      closed_ = false;
      fires_this_instant_ = 0;
      events_this_instant_ = 0;
    }
  }

  // Fires the reference's minimum while it is <= `until`, checking the
  // queue's next time, its pick, its counts, and StillFiresAt for every live
  // id after each dispatch. With `run_until`, RunUntil then closes `until`.
  void Advance(TimeNs until, bool run_until) {
    while (!::testing::Test::HasFailure()) {
      const TimeNs want = pending_.empty() || std::get<0>(*pending_.begin()) > until
                              ? kTimeInfinity
                              : std::get<0>(*pending_.begin());
      const TimeNs got = q_.NextEventTime() <= until ? q_.NextEventTime() : kTimeInfinity;
      EXPECT_EQ(got, want);
      if (got != want || got == kTimeInfinity) {
        break;
      }
      const Key next = *pending_.begin();
      const auto [when, kind, tie] = next;
      pending_.erase(pending_.begin());
      NewInstant(when);
      if (kind == kTimer) {
        const TimerId id = static_cast<TimerId>(tie);
        when_[id] = kTimeInfinity;
        ++stats_.fires;
        stats_.ties += fires_this_instant_ > 0 ? 1 : 0;
        stats_.late_fires += id < band_high_ ? 1 : 0;
        stats_.fires_at_closed += closed_ ? 1 : 0;
        const auto first_event = pending_.lower_bound({when, kEvent, 0});
        stats_.mixed_instants +=
            first_event != pending_.end() && std::get<0>(*first_event) == when ? 1 : 0;
        band_high_ = std::max(band_high_, id);
      } else {
        Spend(tie);
        ++stats_.events;
        stats_.event_ties += events_this_instant_ > 0 ? 1 : 0;
        ++events_this_instant_;
        closed_ = true;
      }
      ++fires_this_instant_;
      expected_.push_back(next);
      const size_t before = fired_.size();
      EXPECT_TRUE(q_.RunOne());
      ASSERT_EQ(fired_.size(), before + 1);
      EXPECT_EQ(fired_.back(), next);
      CheckCountsAndStillFires();
    }
    if (run_until && !::testing::Test::HasFailure()) {
      q_.RunUntil(until);
      NewInstant(until);
      closed_ = true;
      EXPECT_EQ(q_.now(), until);
      CheckCountsAndStillFires();
    }
  }

  void CheckCountsAndStillFires() {
    EXPECT_EQ(q_.PendingCount(), live_events_);
    EXPECT_EQ(q_.ArmedCount(), pending_.size() - live_events_);
    for (const TimerId x : live_) {
      EXPECT_EQ(q_.StillFiresAt(x, now_), StillFires(x)) << "timer " << x << " at " << now_;
      EXPECT_TRUE(q_.StillFiresAt(x, now_ + 1));
      stats_.closed_queries += closed_ && x > band_high_ ? 1 : 0;
    }
  }

  void OnFire(TimerId self) {
    fired_.emplace_back(q_.now(), kTimer, self);
    const int64_t ops = rng_.UniformInt(0, 2);
    for (int64_t i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      RandomOp(self, kNoEvent);
    }
  }

  void OnEvent(uint64_t seq) {
    fired_.emplace_back(q_.now(), kEvent, seq);
    if (rng_.Bernoulli(0.2)) {
      CancelEvent(seq);  // the running event is spent: a clean miss
      ++stats_.self_cancels;
    }
    const int64_t ops = rng_.UniformInt(0, 2);
    for (int64_t i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      RandomOp(kInvalidTimerId, seq);
    }
  }

  Rng rng_;
  std::vector<TimeNs> quanta_;
  EventQueue q_;
  // Reference state.
  std::set<Key> pending_;
  std::vector<TimeNs> when_{kTimeInfinity};  // by id; kTimeInfinity: unarmed
  std::vector<TimerId> live_;
  std::vector<TimerId> free_;
  std::deque<TimerId> self_ids_;  // each callback's own id, address-stable
  std::deque<Posted> posted_;     // by post order
  size_t live_events_ = 0;
  TimeNs now_ = 0;
  TimerId band_high_ = kInvalidTimerId;
  bool closed_ = false;
  int fires_this_instant_ = 0;
  int events_this_instant_ = 0;
  // Every dispatch: as the reference predicts it, and as the callbacks saw
  // it.
  std::vector<Key> expected_;
  std::vector<Key> fired_;
  Stats stats_;
};

void ExpectEveryCornerVisited(const DispatchModel::Stats& s) {
  EXPECT_GT(s.ties, 0);
  EXPECT_GT(s.late_fires, 0);
  EXPECT_GT(s.fires_at_closed, 0);
  EXPECT_GT(s.mixed_instants, 0);
  EXPECT_GT(s.event_ties, 0);
  EXPECT_GT(s.recycled_ids, 0);
  EXPECT_GT(s.callback_arms, 0);
  EXPECT_GT(s.arms_now_from_events, 0);
  EXPECT_GT(s.posts_now_from_timers, 0);
  EXPECT_GT(s.stale_cancels, 0);
  EXPECT_GT(s.self_cancels, 0);
  EXPECT_GT(s.closed_queries, 0);
}

TEST(TimerWheelModel, RandomWalksMatchTheOrderedSetReference) {
  // Steps from one nanosecond to tens of milliseconds.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    DispatchModel model(seed, {1, 1000, TimeNs{1} << 16, TimeNs{1} << 22});
    model.Run(5000);
    ExpectEveryCornerVisited(model.stats());
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

TEST(TimerWheelModel, CrowdedInstantsMatchTheOrderedSetReference) {
  // One-microsecond steps: a third or more of the timer fires share their
  // instant with an earlier dispatch.
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    DispatchModel model(seed, {1000});
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
