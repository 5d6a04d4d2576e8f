// Executes a fleet of independent RunSpecs in parallel.
//
// Each run builds its own Simulation/Rng from its spec, so runs share no
// mutable state and the result of a spec is independent of which thread ran
// it or in what order. Results come back in spec order, which makes the
// serialized output of `--jobs=N` byte-identical to `--jobs=1`.
#ifndef SRC_RUNNER_RUNNER_H_
#define SRC_RUNNER_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/runner/spec.h"

namespace vsched {

// Structured error taxonomy for one sweep cell (docs/ROBUSTNESS.md):
//   kOk       — completed on the first attempt;
//   kRetried  — completed, but only after at least one retry;
//   kDegraded — completed, but the core took a degradation fallback during
//               the run (only observable under a fault plan);
//   kTimeout  — the simulated event budget was exhausted (deterministic
//               watchdog; never retried — the same spec would hang again);
//   kFailed   — every attempt threw, or the run was cancelled.
enum class RunStatus { kOk, kRetried, kDegraded, kTimeout, kFailed };

// Stable lowercase name used in JSONL rows ("ok", "retried", ...).
const char* RunStatusName(RunStatus status);

struct RunResult {
  RunSpec spec;
  int index = 0;     // position within the ExperimentSpec
  int attempts = 0;  // 1 on first-try success
  bool ok = false;
  RunStatus status = RunStatus::kFailed;
  std::string error;   // what() of the last failure when !ok
  RunMetrics metrics;  // empty when !ok
  TimeNs wall_ns = 0;  // host wall-clock time of the last attempt
  // Hot-path tallies of the last attempt (events executed, allocations,
  // runqueue traffic). Deterministic given the spec; the derived events/sec
  // rate is not, so both surface only behind --timings.
  PerfCounters counters;
};

struct RunnerOptions {
  // Worker threads, never more than the runs; 0 picks hardware concurrency.
  // One runs inline on the calling thread (the serial reference path).
  int jobs = 0;
  // A run whose execution throws is retried at once until it has been
  // attempted this many times; deterministic failures simply fail fast
  // again, and simulated-budget timeouts are never retried.
  int max_attempts = 2;
  // When non-null and set, runs that have not started yet complete
  // immediately as kFailed/"interrupted" instead of executing; runs already
  // in flight finish normally. Lets a SIGINT handler drain the sweep into a
  // valid partial JSONL checkpoint.
  std::atomic<bool>* cancel = nullptr;
  // Optional progress hook, invoked once per finished run (any thread, but
  // never concurrently; completion order, not spec order).
  std::function<void(const RunResult&)> on_run_done;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = RunnerOptions{});

  // Executes every run of `experiment`; the returned vector is parallel to
  // `experiment.runs` regardless of completion order.
  std::vector<RunResult> Run(const ExperimentSpec& experiment);

  // Executes one spec with the retry/cancel policy applied; used by
  // Run() and directly by tests.
  static RunResult RunOne(const RunSpec& spec, int index, const RunnerOptions& options);

 private:
  RunnerOptions options_;
};

}  // namespace vsched

#endif  // SRC_RUNNER_RUNNER_H_
