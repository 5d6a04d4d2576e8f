// Replay of sweep and fleet cells from the simulator's public pieces.
//
// The traced run cannot split ExecuteRun into spans from the outside, so it
// rebuilds each cell the way the spec executor does -- MakeRun's parts,
// Shape*Host, MakeWorkload / LatencyApp, Simulation::RunFor; ShardedFleet
// construction and Run -- with a span around every call into a layer. The
// replay must reproduce ExecuteRun's row and counters exactly; the caller
// compares them and counts a mismatch as a failure instead of reporting
// numbers from a drifted copy.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <string>

#include "perfbench/src/trace.h"
#include "src/core/config.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"

namespace perfbench {

// Guest-side and probe-side tallies read from the live deployment before
// teardown (KernelCounters and prober accessors are not part of RunResult).
struct GuestTallies {
  uint64_t context_switches = 0;
  uint64_t migrations = 0;  // queued pulls + wake rebalances + running-task moves
  uint64_t wakeup_ipis = 0;
  uint64_t vtop_pair_probes = 0;
  uint64_t vtop_full_probes = 0;
  uint64_t vcap_windows = 0;

  void Add(const GuestTallies& o);
};

struct ReplayedCell {
  vsched::RunResult result;  // row-ready: spec, index, metrics, counters, wall_ns
  GuestTallies tallies;
  int64_t construct_ns = 0;  // deployment (or ShardedFleet) construction
  int64_t step_ns = 0;       // host time inside RunFor / ShardedFleet::Run
  // Fleet cells only.
  int64_t fleet_window_ns = 0;
  int fleet_cells = 0;
  uint64_t fleet_events_dispatched = 0;
};

// Replays a clean overall (Fig 18/19) or vCPU-latency (Fig 2) cell with
// `options` in place of the spec's config options. `parent` is the span the
// cell's span hangs under (-1 for a root).
ReplayedCell ReplaySweepCell(const vsched::RunSpec& spec, const vsched::VSchedOptions& options,
                             int index, Tracer* tracer, int parent);

// Replays a clean fleet cell on ShardedFleet with `shards` workers.
ReplayedCell ReplayFleetCell(const vsched::RunSpec& spec, const vsched::VSchedOptions& options,
                             int shards, int index, Tracer* tracer, int parent);

// Host time to construct one cell's deployment, timed on its own: the
// executor's MakeRun + Shape*Host + workload construction for sweep cells,
// the ShardedFleet constructor (with spec.shards workers) for fleet cells.
// Teardown is not timed.
int64_t TimeCellSetup(const vsched::RunSpec& spec);

// Field-by-field equality of two counter sets.
bool SameCounters(const vsched::PerfCounters& a, const vsched::PerfCounters& b);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
