// Tickless twin: NOHZ elision must be a pure optimisation. Production runs
// elide the scheduler ticks of descheduled vCPUs and park the no-op
// bandwidth refills of off-CPU host entities (GuestParams::tickless,
// HostSchedParams::tickless). Each case runs one slice of a sweep through the
// Runner twice, once on the ticking reference (RunSpec::tickless = false) and
// once as production runs it, and requires
//  - the JSONL rows ResultSink writes without timings to be byte-identical;
//  - from RunResult::counters, that the reference elides no tick while the
//    production leg elides some and fires fewer timers.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"

namespace vsched {
namespace {

struct Leg {
  std::vector<std::string> rows;
  uint64_t timer_fires = 0;
  uint64_t ticks_elided = 0;
};

Leg RunLeg(ExperimentSpec sweep, bool tickless) {
  for (RunSpec& run : sweep.runs) {
    run.tickless = tickless;
  }
  RunnerOptions options;
  options.jobs = 2;
  std::ostringstream jsonl;
  ResultSink sink(&jsonl);
  Leg leg;
  for (const RunResult& result : Runner(options).Run(sweep)) {
    EXPECT_TRUE(result.ok) << result.spec.Id() << ": " << result.error;
    sink.Write(result);
    leg.timer_fires += result.counters.timer_fires;
    leg.ticks_elided += result.counters.ticks_elided;
  }
  std::istringstream lines(jsonl.str());
  for (std::string row; std::getline(lines, row);) {
    leg.rows.push_back(row);
  }
  return leg;
}

void ExpectTwinsMatch(const ExperimentSpec& sweep) {
  ASSERT_FALSE(sweep.runs.empty());
  const Leg ticking = RunLeg(sweep, /*tickless=*/false);
  const Leg tickless = RunLeg(sweep, /*tickless=*/true);
  ASSERT_EQ(tickless.rows.size(), sweep.runs.size());
  ASSERT_EQ(tickless.rows.size(), ticking.rows.size());
  for (size_t i = 0; i < ticking.rows.size(); ++i) {
    ASSERT_EQ(tickless.rows[i], ticking.rows[i]) << "first row that moved: " << i;
  }
  EXPECT_EQ(ticking.ticks_elided, 0u);
  EXPECT_GT(tickless.ticks_elided, 0u);
  EXPECT_LT(tickless.timer_fires, ticking.timer_fires);
}

// Flat VM shaped by host granularity: guest NOHZ on mostly idle vCPUs.
TEST(TicklessTwin, Fig02) {
  ExpectTwinsMatch(VcpuLatencySweep(/*base_seed=*/0, MsToNs(50), MsToNs(200)));
}

// rcvm's stacked pair and straggler classes under all three schedulers.
TEST(TicklessTwin, Fig18RcvmCanneal) {
  ExperimentSpec sweep =
      OverallSweep(ExperimentFamily::kOverallRcvm, /*seed=*/0, MsToNs(50), MsToNs(200));
  sweep.Filter("canneal");
  ExpectTwinsMatch(sweep);
}

// Commit-driven bandwidth caps: the only slice whose host refills park.
TEST(TicklessTwin, FleetTiny) { ExpectTwinsMatch(FleetSweep("tiny")); }

// The single-VM cycle stealer, robust off and on: vact samples steal on
// ticks, the measurement the attack targets.
TEST(TicklessTwin, AdversarySteal) {
  ExperimentSpec sweep = AdversarySweep(/*seed=*/0, MsToNs(200), MsToNs(500));
  sweep.Filter("adversary/steal/");
  ASSERT_EQ(sweep.runs.size(), 2u);
  ExpectTwinsMatch(sweep);
}

}  // namespace
}  // namespace vsched
