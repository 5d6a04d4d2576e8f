#include "src/sim/simulation.h"

#include <vector>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(SimulationTest, RunForAdvancesClock) {
  Simulation sim(1);
  sim.RunFor(MsToNs(5));
  EXPECT_EQ(sim.now(), MsToNs(5));
  sim.RunFor(MsToNs(5));
  EXPECT_EQ(sim.now(), MsToNs(10));
}

TEST(SimulationTest, AfterSchedulesRelative) {
  Simulation sim(1);
  sim.RunFor(100);
  TimeNs fired_at = -1;
  sim.After(50, [&] { fired_at = sim.now(); });
  sim.RunFor(1000);
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulationTest, TimerBandPositionAtAnInstant) {
  Simulation sim(1);
  TimerId early = sim.CreateTimer([] {});
  TimerId probe = sim.CreateTimer([] {});
  TimerId late = sim.CreateTimer([] {});
  std::vector<bool> seen;
  TimerId check = sim.CreateTimer([&] { seen.push_back(sim.TimerStillFiresAt(late, sim.now())); });
  sim.ArmTimerAt(early, 100);
  sim.ArmTimerAt(check, 100);
  sim.At(100, [&] { seen.push_back(sim.TimerStillFiresAt(late, sim.now())); });
  sim.RunUntil(99);
  EXPECT_TRUE(sim.TimerStillFiresAt(probe, 100));  // a future instant
  sim.RunUntil(100);
  // Timer band: `late` precedes `check`, so its position has passed; then
  // the heap phase closes the whole band.
  EXPECT_EQ(seen, (std::vector<bool>{false, false}));
  EXPECT_FALSE(sim.TimerStillFiresAt(probe, 100));
}

TEST(SimulationTest, TimerBandClosesWhenRunUntilReturns) {
  // Everything due at a RunUntil deadline has run once it returns, so code
  // acting between two RunUntil calls comes after that instant's band even
  // though no heap event ran then.
  Simulation sim(1);
  TimerId early = sim.CreateTimer([] {});
  TimerId probe = sim.CreateTimer([] {});
  sim.ArmTimerAt(early, 100);
  sim.RunUntil(100);
  EXPECT_FALSE(sim.TimerStillFiresAt(probe, 100));
  sim.RunUntil(200);
  EXPECT_FALSE(sim.TimerStillFiresAt(probe, 200));
  EXPECT_TRUE(sim.TimerStillFiresAt(probe, 300));
}

TEST(SimulationTest, ForkRngDeterministic) {
  Simulation a(99);
  Simulation b(99);
  Rng ra = a.ForkRng();
  Rng rb = b.ForkRng();
  EXPECT_EQ(ra.NextU64(), rb.NextU64());
}

}  // namespace
}  // namespace vsched
