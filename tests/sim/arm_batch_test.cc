// Differential test for the batched arming entry point: a
// TimerWheel::ArmBatch of N arms must produce byte-for-byte the dispatch
// sequence of N single Arm calls made in the same order. The claim rests on
// dispatch being a total order — (deadline, TimerId) — independent of the
// wheel's internal shape, so the test drives randomized mixed workloads and
// compares full dispatch traces.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/sim/rng.h"
#include "src/sim/timer_wheel.h"

namespace vsched {
namespace {

// Tagged dispatch record: (fire count at dispatch, tag assigned at arming).
using Trace = std::vector<std::pair<TimeNs, int>>;

void DrainWheel(TimerWheel& wheel, TimeNs until) {
  for (;;) {
    TimeNs next = wheel.NextDeadlineAtMost(until);
    if (next == kTimeInfinity) {
      return;
    }
    wheel.RunOne(next);
  }
}

TEST(ArmBatchTest, MatchesSingleArmsExactly) {
  // Two wheels with identically registered timers; one armed by N Arm
  // calls, the other by one ArmBatch over the same (id, when) list. The
  // list includes re-arms of already-armed timers and deadlines spanning
  // the ready-heap horizon, near buckets, and multi-cascade far buckets.
  Rng rng(0xA8B7);
  for (int round = 0; round < 10; ++round) {
    TimerWheel s2;
    TimerWheel b2;
    Trace ts;
    Trace tb;
    const int kTimers = 64;
    std::vector<TimerId> ids_s;
    std::vector<TimerId> ids_b;
    for (int i = 0; i < kTimers; ++i) {
      // Tag with the timer index; the fire timestamp is recovered from the
      // armed deadline (read before dispatch pops it) via DrainWheel order,
      // so equal traces mean equal (deadline, id) dispatch sequences.
      ids_s.push_back(s2.Register([&ts, &s2, i] { ts.emplace_back(s2.fired_count(), i); }));
      ids_b.push_back(b2.Register([&tb, &b2, i] { tb.emplace_back(b2.fired_count(), i); }));
    }

    // Pre-arm a random subset individually on both wheels.
    for (int i = 0; i < kTimers; ++i) {
      if (rng.UniformInt(0, 1) == 0) {
        TimeNs when = 1 + rng.UniformInt(0, MsToNs(20));
        s2.Arm(ids_s[static_cast<size_t>(i)], when);
        b2.Arm(ids_b[static_cast<size_t>(i)], when);
      }
    }

    // The batch: random ids (some already armed — ArmBatch must re-arm),
    // deadlines spread across wheel bands.
    const int n = static_cast<int>(rng.UniformInt(1, 100));
    std::vector<std::pair<TimerId, TimeNs>> batch_b;
    std::vector<std::pair<size_t, TimeNs>> draws;
    for (int i = 0; i < n; ++i) {
      size_t idx = static_cast<size_t>(rng.UniformInt(0, kTimers - 1));
      int band = static_cast<int>(rng.UniformInt(0, 2));
      TimeNs when = band == 0   ? 1 + rng.UniformInt(0, UsToNs(60))   // ready horizon
                    : band == 1 ? UsToNs(70) + rng.UniformInt(0, MsToNs(4))  // level-1
                                : MsToNs(5) + rng.UniformInt(0, MsToNs(200));  // cascades
      draws.emplace_back(idx, when);
    }
    for (const auto& [idx, when] : draws) {
      s2.Arm(ids_s[idx], when);
    }
    for (const auto& [idx, when] : draws) {
      batch_b.emplace_back(ids_b[idx], when);
    }
    b2.ArmBatch(batch_b);
    EXPECT_EQ(s2.ArmedCount(), b2.ArmedCount());

    DrainWheel(s2, MsToNs(300));
    DrainWheel(b2, MsToNs(300));
    EXPECT_EQ(ts, tb) << "round " << round;
    EXPECT_EQ(s2.fired_count(), b2.fired_count());
    EXPECT_EQ(s2.ArmedCount(), 0u);
  }
}

}  // namespace
}  // namespace vsched
