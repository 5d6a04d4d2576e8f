// Tests for the runner's resilience features: the simulated-event watchdog,
// the structured status taxonomy, cancellation, retry counting, and
// byte-identical chaos sweeps across job counts.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/runner/result_sink.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"

namespace vsched {
namespace {

ExperimentSpec SmallSweep() {
  ExperimentSpec sweep = VcpuLatencySweep(/*base_seed=*/0, /*warmup=*/MsToNs(20),
                                          /*measure=*/MsToNs(100));
  sweep.Filter("img-dnn");
  return sweep;
}

std::string Serialize(const std::vector<RunResult>& results) {
  std::string out;
  for (const RunResult& result : results) {
    out += ResultRowJson(result) + "\n";
  }
  return out;
}

TEST(RunStatusTest, NamesAreStable) {
  EXPECT_STREQ(RunStatusName(RunStatus::kOk), "ok");
  EXPECT_STREQ(RunStatusName(RunStatus::kRetried), "retried");
  EXPECT_STREQ(RunStatusName(RunStatus::kDegraded), "degraded");
  EXPECT_STREQ(RunStatusName(RunStatus::kTimeout), "timeout");
  EXPECT_STREQ(RunStatusName(RunStatus::kFailed), "failed");
}

TEST(WatchdogTest, TinyEventBudgetTimesOutWithoutRetry) {
  ExperimentSpec sweep = SmallSweep();
  sweep.runs.resize(1);
  sweep.runs[0].event_budget = 100;  // far below what any real run needs
  RunnerOptions options;
  options.jobs = 1;
  options.max_attempts = 3;
  std::vector<RunResult> results = Runner(options).Run(sweep);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].status, RunStatus::kTimeout);
  // The budget is deterministic — re-running would exhaust it again, so the
  // watchdog fails the cell on the first attempt.
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_NE(results[0].error.find("event budget"), std::string::npos) << results[0].error;
}

TEST(WatchdogTest, TimeoutCellNeverAbortsTheSweep) {
  ExperimentSpec sweep = SmallSweep();
  ASSERT_GE(sweep.runs.size(), 3u);
  sweep.runs[1].event_budget = 100;  // poison one interior cell
  RunnerOptions options;
  options.jobs = 2;
  std::vector<RunResult> results = Runner(options).Run(sweep);
  ASSERT_EQ(results.size(), sweep.runs.size());
  EXPECT_EQ(results[1].status, RunStatus::kTimeout);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 1) {
      continue;
    }
    EXPECT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].status, RunStatus::kOk);
  }
}

TEST(WatchdogTest, GenerousBudgetDoesNotPerturbTheRun) {
  ExperimentSpec sweep = SmallSweep();
  sweep.runs.resize(1);
  RunnerOptions options;
  options.jobs = 1;
  std::string reference = Serialize(Runner(options).Run(sweep));
  sweep.runs[0].event_budget = 1ull << 60;  // plenty; must change nothing
  EXPECT_EQ(Serialize(Runner(options).Run(sweep)), reference);
}

TEST(CancelTest, CancelledRunsFailAsInterruptedWithoutExecuting) {
  ExperimentSpec sweep = SmallSweep();
  std::atomic<bool> cancel{true};  // raised before anything starts
  RunnerOptions options;
  options.jobs = 2;
  options.cancel = &cancel;
  std::vector<RunResult> results = Runner(options).Run(sweep);
  ASSERT_EQ(results.size(), sweep.runs.size());
  for (const RunResult& result : results) {
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.status, RunStatus::kFailed);
    EXPECT_EQ(result.attempts, 0);
    EXPECT_EQ(result.error, "interrupted");
  }
}

TEST(RetryTest, FailedAttemptsAreCountedDeterministically) {
  ExperimentSpec sweep;
  sweep.name = "bad";
  RunSpec bad;
  bad.family = ExperimentFamily::kOverallRcvm;
  bad.workload = "no-such-workload";
  bad.config = "cfs";
  sweep.runs.push_back(bad);
  RunnerOptions options;
  options.jobs = 1;
  options.max_attempts = 3;
  std::vector<RunResult> a = Runner(options).Run(sweep);
  std::vector<RunResult> b = Runner(options).Run(sweep);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_FALSE(a[0].ok);
  EXPECT_EQ(a[0].status, RunStatus::kFailed);
  EXPECT_EQ(a[0].attempts, 3);
  EXPECT_EQ(Serialize(a), Serialize(b));
}

TEST(ChaosSweepTest, FaultPlanRowsAreByteIdenticalAcrossJobCounts) {
  ExperimentSpec sweep = SmallSweep();
  for (RunSpec& run : sweep.runs) {
    run.fault_plan = "interference-burst";
  }
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions sharded;
  sharded.jobs = 4;
  std::string reference = Serialize(Runner(serial).Run(sweep));
  EXPECT_FALSE(reference.empty());
  EXPECT_NE(reference.find("\"fault_plan\":\"interference-burst\""), std::string::npos);
  EXPECT_NE(reference.find("\"fault_applied\":"), std::string::npos);
  EXPECT_EQ(Serialize(Runner(sharded).Run(sweep)), reference);
}

TEST(ChaosSweepTest, CleanRowsCarryNoFaultKeys) {
  ExperimentSpec sweep = SmallSweep();
  sweep.runs.resize(1);
  RunnerOptions options;
  options.jobs = 1;
  std::string row = Serialize(Runner(options).Run(sweep));
  EXPECT_EQ(row.find("fault_plan"), std::string::npos);
  EXPECT_EQ(row.find("fault_applied"), std::string::npos);
  EXPECT_EQ(row.find("degraded_"), std::string::npos);
  EXPECT_EQ(row.find("\"status\""), std::string::npos);  // implied "ok"
}

}  // namespace
}  // namespace vsched
