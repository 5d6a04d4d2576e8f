// Parameterized property tests for the host scheduler: fairness across
// weight ratios, bandwidth-cap accuracy across the quota/period grid,
// latency shaping by granularity, and time conservation under random mixes.
#include <ostream>

#include <gtest/gtest.h>

#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/sim/simulation.h"

namespace vsched {
namespace {

TopologySpec OneCore() {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 1;
  spec.threads_per_core = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// Fairness: two entities' runtime split matches their weight ratio.
// ---------------------------------------------------------------------------

class WeightFairness : public ::testing::TestWithParam<double> {};

TEST_P(WeightFairness, ShareMatchesWeightRatio) {
  double ratio = GetParam();
  Simulation sim(1);
  HostMachine machine(&sim, OneCore());
  Stressor heavy(&sim, "heavy", 1024.0 * ratio);
  Stressor light(&sim, "light", 1024.0);
  heavy.Start(&machine, 0);
  light.Start(&machine, 0);
  sim.RunFor(SecToNs(3));
  TimeNs now = sim.now();
  double rh = static_cast<double>(heavy.ran_ns(now));
  double rl = static_cast<double>(light.ran_ns(now));
  double expected = ratio / (ratio + 1.0);
  EXPECT_NEAR(rh / (rh + rl), expected, 0.03) << "weight ratio " << ratio;
  heavy.Stop();
  light.Stop();
}

INSTANTIATE_TEST_SUITE_P(Ratios, WeightFairness,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0));

// ---------------------------------------------------------------------------
// Bandwidth: achieved runtime fraction equals quota/period across the grid.
// ---------------------------------------------------------------------------

struct BwCase {
  double fraction;
  TimeNs period;
};

class BandwidthGrid : public ::testing::TestWithParam<BwCase> {};

TEST_P(BandwidthGrid, RuntimeMatchesQuotaFraction) {
  BwCase c = GetParam();
  Simulation sim(2);
  HostMachine machine(&sim, OneCore());
  Stressor s(&sim, "s");
  s.SetBandwidth(static_cast<TimeNs>(c.fraction * static_cast<double>(c.period)), c.period);
  s.Start(&machine, 0);
  sim.RunFor(SecToNs(2));
  TimeNs now = sim.now();
  double achieved = static_cast<double>(s.ran_ns(now)) / static_cast<double>(now);
  EXPECT_NEAR(achieved, c.fraction, 0.02)
      << "fraction " << c.fraction << " period " << NsToMs(c.period) << " ms";
  // Steal accounts the complement (the entity always wants to run).
  double stolen = static_cast<double>(s.steal_ns(now)) / static_cast<double>(now);
  EXPECT_NEAR(stolen, 1.0 - c.fraction, 0.02);
  s.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BandwidthGrid,
    ::testing::Values(BwCase{0.1, MsToNs(10)}, BwCase{0.25, MsToNs(10)}, BwCase{0.5, MsToNs(10)},
                      BwCase{0.75, MsToNs(10)}, BwCase{0.9, MsToNs(10)}, BwCase{0.5, MsToNs(4)},
                      BwCase{0.5, MsToNs(20)}, BwCase{0.3, MsToNs(50)}, BwCase{0.05, MsToNs(20)}));

// ---------------------------------------------------------------------------
// Granularity shapes the inactive stint of an equal-weight competitor pair.
// ---------------------------------------------------------------------------

class GranularityShaping : public ::testing::TestWithParam<TimeNs> {};

TEST_P(GranularityShaping, InactiveStintTracksMinGranularity) {
  TimeNs gran = GetParam();
  Simulation sim(3);
  HostSchedParams params;
  params.min_granularity = gran;
  params.wakeup_granularity = gran;
  HostMachine machine(&sim, OneCore(), params);
  Stressor a(&sim, "a");
  Stressor b(&sim, "b");
  a.Start(&machine, 0);
  b.Start(&machine, 0);
  // Sample a's running state and record stint lengths.
  sim.RunFor(MsToNs(50));
  TimeNs inactive_start = -1;
  std::vector<TimeNs> inactive_stints;
  TimeNs step = gran / 20;
  for (int i = 0; i < 4000 && inactive_stints.size() < 40; ++i) {
    sim.RunFor(step);
    if (!a.running() && inactive_start < 0) {
      inactive_start = sim.now();
    } else if (a.running() && inactive_start >= 0) {
      inactive_stints.push_back(sim.now() - inactive_start);
      inactive_start = -1;
    }
  }
  ASSERT_GE(inactive_stints.size(), 10u);
  double mean = 0;
  for (TimeNs t : inactive_stints) {
    mean += static_cast<double>(t);
  }
  mean /= static_cast<double>(inactive_stints.size());
  // Equal weights → the competitor runs one-to-two slices per rotation
  // (vruntime ties resolve by staying), so the inactive stint is between
  // gran and 2×gran and scales linearly with the knob.
  EXPECT_GE(mean, 0.8 * static_cast<double>(gran));
  EXPECT_LE(mean, 2.4 * static_cast<double>(gran));
  a.Stop();
  b.Stop();
}

INSTANTIATE_TEST_SUITE_P(Grans, GranularityShaping,
                         ::testing::Values(MsToNs(1), MsToNs(2), MsToNs(4), MsToNs(8),
                                           MsToNs(16)));

// ---------------------------------------------------------------------------
// Conservation under a random mix of duty-cycled entities.
// ---------------------------------------------------------------------------

class RandomMixConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMixConservation, ThreadTimeIsPartitioned) {
  Simulation sim(GetParam());
  HostMachine machine(&sim, OneCore());
  Rng rng = sim.ForkRng();
  std::vector<std::unique_ptr<Stressor>> entities;
  for (int i = 0; i < 6; ++i) {
    entities.push_back(
        std::make_unique<Stressor>(&sim, "e" + std::to_string(i), rng.Uniform(256, 4096)));
    if (rng.Bernoulli(0.5)) {
      entities.back()->StartDutyCycle(&machine, 0,
                                      static_cast<TimeNs>(rng.Uniform(1, 10) * kNsPerMs),
                                      static_cast<TimeNs>(rng.Uniform(1, 10) * kNsPerMs));
    } else {
      entities.back()->Start(&machine, 0);
    }
  }
  sim.RunFor(SecToNs(2));
  TimeNs now = sim.now();
  // Invariants: runtime+steal+halted == elapsed for each entity; total
  // runtime never exceeds wall time; at least one always-on entity → busy.
  TimeNs total_ran = 0;
  for (auto& e : entities) {
    EXPECT_EQ(e->ran_ns(now) + e->steal_ns(now) + e->halted_ns(now), now) << e->name();
    total_ran += e->ran_ns(now);
  }
  EXPECT_LE(total_ran, now);
  for (auto& e : entities) {
    e->Stop();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMixConservation,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// SMT speed invariants across sibling states and frequencies.
// ---------------------------------------------------------------------------

struct SmtCase {
  double freq;
  bool sibling_busy;
};

// ctest names each case after this text. Without it gtest prints the raw
// bytes, padding included, and the name changes from one build to the next.
void PrintTo(const SmtCase& c, std::ostream* os) {
  *os << "freq=" << c.freq << " sibling=" << (c.sibling_busy ? "busy" : "idle");
}

class SmtSpeed : public ::testing::TestWithParam<SmtCase> {};

TEST_P(SmtSpeed, SpeedFormulaHolds) {
  SmtCase c = GetParam();
  Simulation sim(5);
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 1;
  spec.threads_per_core = 2;
  spec.smt_factor = 0.6;
  HostMachine machine(&sim, spec);
  machine.SetCoreFreq(0, c.freq);
  std::unique_ptr<Stressor> sibling;
  if (c.sibling_busy) {
    sibling = std::make_unique<Stressor>(&sim, "sib");
    sibling->Start(&machine, 1);
  }
  double expected = kCapacityScale * c.freq * (c.sibling_busy ? 0.6 : 1.0);
  EXPECT_DOUBLE_EQ(machine.SpeedOf(0), expected);
  if (sibling != nullptr) {
    sibling->Stop();
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SmtSpeed,
                         ::testing::Values(SmtCase{1.0, false}, SmtCase{1.0, true},
                                           SmtCase{0.5, false}, SmtCase{0.5, true},
                                           SmtCase{2.0, false}, SmtCase{2.0, true}));

}  // namespace
}  // namespace vsched
