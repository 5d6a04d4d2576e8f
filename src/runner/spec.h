// Declarative experiment specs: a sweep is data, not a hand-written loop.
//
// A RunSpec names everything one simulation needs — deployment family, the
// workload, the scheduler configuration, the seed and the measurement window
// — so the Runner can shard a sweep across threads and any two executions of
// the same spec are bit-identical.
#ifndef SRC_RUNNER_SPEC_H_
#define SRC_RUNNER_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/core/config.h"

namespace vsched {

// Which simulated deployment a run uses.
enum class ExperimentFamily {
  kOverallRcvm,  // Fig 18 protocol: rcvm (4 vCPU classes, stragglers, stacking)
  kOverallHpvm,  // Fig 19 protocol: hpvm (4 sockets, one dedicated group)
  kVcpuLatency,  // Fig 2 protocol: flat 32-vCPU VM with shaped vCPU latency
  kFleet,        // Cluster-scale fleet (src/cluster/): workload names a preset
  kAdversary,    // Adversarial co-tenant deception matrix (src/adversary/):
                 // workload names the attack (steal|evade|burst|all) or its
                 // fleet variant (fleet-steal|...)
};

// Stable short name used in run ids and JSONL rows.
const char* FamilyName(ExperimentFamily family);

// The scheduler configurations the overall sweeps compare, in column order.
struct SchedulerConfig {
  std::string name;  // "cfs" | "enhanced" | "vsched"
  VSchedOptions options;
};
const std::vector<SchedulerConfig>& SweepSchedulerConfigs();

// Options for a config name from SweepSchedulerConfigs(); throws
// std::invalid_argument for an unknown name.
VSchedOptions OptionsForConfig(const std::string& name);

struct RunSpec {
  ExperimentFamily family = ExperimentFamily::kOverallRcvm;
  std::string workload;
  std::string config = "cfs";
  uint64_t seed = 1;
  TimeNs warmup = SecToNs(5);
  TimeNs measure = SecToNs(10);

  // kVcpuLatency knobs (ignored by the overall families).
  TimeNs vcpu_latency = MsToNs(2);
  bool best_effort = false;

  // Guest NOHZ tick elision and dormant host bandwidth refills
  // (GuestParams::tickless, HostSchedParams::tickless). `false` selects the
  // ticking reference that the TicklessTwin tests
  // (tests/runner/tickless_twin_test.cc) byte-compare against; no other
  // code sets it to false, and it is not part of Id().
  bool tickless = true;

  // Named fault plan (src/fault/fault_plan.h) driving deterministic chaos
  // injection, or empty/"none" for a clean run. NOT part of Id(): a chaos
  // sweep resumes against its own checkpoint, and the resume matcher must
  // see the same ids a clean sweep would emit. The plan name is recorded per
  // row ("fault_plan") instead.
  std::string fault_plan;

  // Simulated-event watchdog: a run dispatching more than this many events
  // throws SimBudgetExceeded and the cell reports status "timeout" instead
  // of hanging the sweep. 0 disables the budget. Deterministic (counts
  // simulated events, not wall time), so also NOT part of Id().
  uint64_t event_budget = 0;

  // Robust-layer override, an explicit experiment axis for adversary rows:
  //  -1  legacy behavior (single-VM chaos runs auto-arm the degradation
  //      layer, fleets follow the scheduler config) — never appears in Id();
  //   0  force robust off (measure how far an attack deceives each
  //      component), Id() gains "/robust=off";
  //   1  force robust on (measure detection and mitigation), "/robust=on".
  int robust_override = -1;

  // Worker threads of the fleet engine (src/cluster/sharded_fleet.h); must
  // be >= 1. NOT part of Id(): fleet output is byte-identical for every
  // value (the row_digests gate's --shards variants), so `shards` is an
  // execution detail like --jobs, not an experiment axis. Ignored by
  // non-fleet families.
  int shards = 1;

  // Human/filterable identity, e.g. "fig18_rcvm/canneal/vsched" or
  // "fig02/img-dnn/cfs/lat=4ms+be".
  std::string Id() const;
};

struct ExperimentSpec {
  std::string name;
  std::vector<RunSpec> runs;

  // Keeps only runs whose Id() contains `substr` (empty keeps everything).
  void Filter(const std::string& substr);
};

// ---------------------------------------------------------------------------
// Sweep builders (the tables previously duplicated across bench binaries)
// ---------------------------------------------------------------------------

// Figure 18/19 protocol: all 31 workloads x {cfs, enhanced, vsched}. Every
// run uses the same `seed`, as the original serial benches did, so results
// stay comparable with the seed repo's output. Pass 0 for the bench default.
ExperimentSpec OverallSweep(ExperimentFamily family, uint64_t seed = 0,
                            TimeNs warmup = SecToNs(5), TimeNs measure = SecToNs(10));

// Figure 2 protocol: {img-dnn, silo, specjbb} x {2,4,8,16 ms} x {+-best
// effort} under stock CFS. Seeds derive as base_seed + vcpu_latency to match
// the original bench. Pass 0 for the bench default.
ExperimentSpec VcpuLatencySweep(uint64_t base_seed = 0, TimeNs warmup = SecToNs(2),
                                TimeNs measure = SecToNs(10));

// Fleet head-to-head: one cluster preset (src/cluster/fleet_spec.h) under
// {cfs, vsched} guest kernels — the same fleet, seed, arrivals, and traffic,
// differing only in whether guests run the vSched stack. "enhanced" is
// skipped: host-side shaping is not the axis a datacenter operator controls.
// For fleets warmup + measure is simply the horizon (tenant latency
// distributions cover the whole run; the fleet ramps from empty by design).
// Pass 0 for the preset-independent default seed.
ExperimentSpec FleetSweep(const std::string& preset, uint64_t seed = 0,
                          TimeNs warmup = MsToNs(0), TimeNs measure = SecToNs(2));

// Adversarial co-tenant deception matrix (docs/ROBUSTNESS.md): each canned
// attack (cycle-steal, probe-evade, refill-burst) runs twice — robust layer
// forced off (how far each component is deceived) and forced on (detection
// and degradation) — as a single reference VM under "vsched", plus a tiny
// fleet with one adversarial tenant per host. Pass 0 for the default seed.
ExperimentSpec AdversarySweep(uint64_t seed = 0, TimeNs warmup = SecToNs(1),
                              TimeNs measure = SecToNs(2));

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Metrics produced by one run, in a stable emission order.
struct RunMetrics {
  std::vector<std::pair<std::string, double>> values;

  void Set(const std::string& key, double value);
  // Value for `key`, or `fallback` when absent.
  double Get(const std::string& key, double fallback = 0) const;
};

// Builds the deployment a spec describes, runs it on the calling thread, and
// returns its metrics. Deterministic: depends only on the spec. Throws on an
// unknown workload/config name.
RunMetrics ExecuteRun(const RunSpec& spec);

}  // namespace vsched

#endif  // SRC_RUNNER_SPEC_H_
