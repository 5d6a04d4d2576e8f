#include "src/runner/runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "src/base/thread_pool.h"
#include "src/sim/simulation.h"

namespace vsched {

namespace {

TimeNs WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kRetried:
      return "retried";
    case RunStatus::kDegraded:
      return "degraded";
    case RunStatus::kTimeout:
      return "timeout";
    case RunStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {
  if (options_.max_attempts < 1) {
    options_.max_attempts = 1;
  }
}

RunResult Runner::RunOne(const RunSpec& spec, int index, const RunnerOptions& options) {
  RunResult result;
  result.spec = spec;
  result.index = index;
  if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
    result.attempts = 0;
    result.ok = false;
    result.status = RunStatus::kFailed;
    result.error = "interrupted";
    return result;
  }
  int max_attempts = std::max(1, options.max_attempts);
  while (result.attempts < max_attempts) {
    ++result.attempts;
    result.counters.Reset();
    PerfCounters::Scope counters_scope(&result.counters);
    TimeNs start = WallNowNs();
    try {
      result.metrics = ExecuteRun(spec);
      result.wall_ns = WallNowNs() - start;
      result.ok = true;
      result.error.clear();
      if (result.metrics.Get("degraded_transitions", 0) > 0) {
        result.status = RunStatus::kDegraded;
      } else {
        result.status = result.attempts > 1 ? RunStatus::kRetried : RunStatus::kOk;
      }
      return result;
    } catch (const SimBudgetExceeded& e) {
      // Deterministic watchdog: the same spec would exhaust the same budget
      // on every retry, so fail the cell immediately.
      result.wall_ns = WallNowNs() - start;
      result.error = e.what();
      result.status = RunStatus::kTimeout;
      return result;
    } catch (const std::exception& e) {
      result.wall_ns = WallNowNs() - start;
      result.error = e.what();
    } catch (...) {
      result.wall_ns = WallNowNs() - start;
      result.error = "unknown exception";
    }
    result.status = RunStatus::kFailed;
  }
  return result;
}

std::vector<RunResult> Runner::Run(const ExperimentSpec& experiment) {
  size_t n = experiment.runs.size();
  std::vector<RunResult> results(n);
  std::mutex progress_mu;
  std::unique_ptr<ThreadPool> pool = MakePool(options_.jobs, n);
  // Results land in spec order; output is independent of completion order.
  RunEach(pool.get(), n, [&](size_t i) {
    results[i] = RunOne(experiment.runs[i], static_cast<int>(i), options_);
    if (options_.on_run_done) {
      std::lock_guard<std::mutex> lock(progress_mu);
      options_.on_run_done(results[i]);
    }
  });
  return results;
}

}  // namespace vsched
