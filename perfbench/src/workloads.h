// The benchmark's workloads: fixed, committed cell lists built from the
// public sweep functions, plus the short slices the determinism checks run.
//
// Every workload is a closed batch: one process runs a fixed list of cells,
// and each worker takes the next cell when its current one finishes. The
// workload seed is passed to the sweep functions; the simulator sees only the
// generated RunSpecs.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/runner/spec.h"

namespace perfbench {

enum class WorkloadKind { kSweep, kFleet };

struct WorkloadDef {
  std::string name;
  // One line: why this workload is in the benchmark.
  std::string why;
  WorkloadKind kind = WorkloadKind::kSweep;
  // Runner worker threads for sweeps; fleets run one cell at a time.
  int jobs = 1;
  // ShardedFleet workers (fleet only): `measured_shards` in the end-to-end
  // passes, `shards` in the determinism check and the traced run.
  int measured_shards = 0;
  int shards = 0;
};

// Threads the benchmark may use: min(nproc, 4).
int BenchThreads();

// The definition of a named workload; false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadDef* def);

// The fixed cell list of one pass of the workload, built from `seed`.
vsched::ExperimentSpec BuildBatch(const WorkloadDef& def, uint64_t seed);

// A short slice of the same cells (shrunk simulated windows) for the
// execution-setting determinism checks: jobs 1 vs jobs N for sweeps,
// shards 1 vs shards N for the fleet.
vsched::ExperimentSpec BuildCheckSlice(const WorkloadDef& def, uint64_t seed);

// Simulated seconds one cell advances (warmup + measure + the 50 ms drain
// sweep cells run after Stop; fleets run exactly their horizon).
double SimSecondsOf(const vsched::RunSpec& spec);

// The `vsched_run` invocations (argument lists, without the program) that
// emit the rows of `batch`, in batch order.
std::vector<std::vector<std::string>> VschedRunInvocations(const WorkloadDef& def,
                                                           const vsched::ExperimentSpec& batch,
                                                           uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
