#include "perfbench/src/workloads.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

using vsched::ExperimentFamily;
using vsched::ExperimentSpec;
using vsched::MsToNs;
using vsched::RunSpec;

// Simulated windows of the measured cells. The overall cells run a third of
// the paper's 5 s + 10 s protocol, the Fig 2 cells a quarter of its 2 s +
// 10 s; the fleet runs the first 300 ms of the dc ramp.
constexpr int64_t kOverallWarmupMs = 2000;
constexpr int64_t kOverallMeasureMs = 3000;
constexpr int64_t kLatencyWarmupMs = 1000;
constexpr int64_t kLatencyMeasureMs = 3000;
constexpr int64_t kFleetHorizonMs = 300;

// Windows of the determinism-check slices.
constexpr int64_t kCheckWarmupMs = 200;
constexpr int64_t kCheckMeasureMs = 300;
constexpr int64_t kFleetCheckHorizonMs = 100;

// The committed overall_sweep slice: throughput and latency apps of each
// reference VM (Fig 18 rcvm, Fig 19 hpvm), each under cfs/enhanced/vsched.
const std::vector<std::string>& RcvmApps() {
  static const std::vector<std::string> kApps = {"canneal", "streamcluster", "fft",
                                                 "nginx",   "silo",          "img-dnn"};
  return kApps;
}
const std::vector<std::string>& HpvmApps() {
  static const std::vector<std::string> kApps = {"canneal", "lu_ncb",  "x264",
                                                 "silo",    "specjbb", "masstree"};
  return kApps;
}

void AppendFamily(ExperimentFamily family, const std::vector<std::string>& apps, uint64_t seed,
                  int64_t warmup_ms, int64_t measure_ms, ExperimentSpec* out) {
  ExperimentSpec sweep =
      vsched::OverallSweep(family, seed, MsToNs(warmup_ms), MsToNs(measure_ms));
  for (RunSpec& run : sweep.runs) {
    if (std::find(apps.begin(), apps.end(), run.workload) != apps.end()) {
      out->runs.push_back(std::move(run));
    }
  }
}

ExperimentSpec OverallSlice(uint64_t seed, int64_t warmup_ms, int64_t measure_ms) {
  ExperimentSpec spec;
  spec.name = "overall_sweep";
  // The heavier 32-vCPU hpvm cells go first, so the pass does not end on a
  // long cell while the other workers idle.
  AppendFamily(ExperimentFamily::kOverallHpvm, HpvmApps(), seed, warmup_ms, measure_ms, &spec);
  AppendFamily(ExperimentFamily::kOverallRcvm, RcvmApps(), seed, warmup_ms, measure_ms, &spec);
  return spec;
}

ExperimentSpec FleetBatch(const WorkloadDef& def, uint64_t seed, int64_t horizon_ms) {
  ExperimentSpec spec = vsched::FleetSweep("dc", seed, 0, MsToNs(horizon_ms));
  spec.name = def.name;
  for (RunSpec& run : spec.runs) {
    run.shards = def.measured_shards;
  }
  return spec;
}

}  // namespace

int BenchThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

bool LookupWorkload(const std::string& name, WorkloadDef* def) {
  def->name = name;
  if (name == "overall_sweep") {
    def->why =
        "the paper's headline Fig 18/19 sweep: saturated vCPUs, so the timer band and the "
        "probe/core layers do most of the work; its cfs cells are the no-probe control";
    def->kind = WorkloadKind::kSweep;
    def->jobs = BenchThreads();
  } else if (name == "vcpu_latency") {
    def->why =
        "Fig 2 under stock CFS, run serially: no probe or core object exists, so a probe or "
        "timer-band optimisation must show no change here";
    def->kind = WorkloadKind::kSweep;
    def->jobs = 1;
  } else if (name == "fleet_dc") {
    def->why =
        "the dc fleet (1000 hosts, 4000 VMs) on ShardedFleet: the only workload where the "
        "cluster layer works, with thousands of small VM stacks to set up";
    def->kind = WorkloadKind::kFleet;
    def->jobs = 1;
    // Barrier-synchronised sharded runs amplify vCPU steal on a shared host
    // into 2-4x swings in wall time, so the end-to-end passes run the engine
    // on one worker; the parallel engine is checked and traced at N.
    def->measured_shards = 1;
    def->shards = BenchThreads();
  } else {
    return false;
  }
  return true;
}

ExperimentSpec BuildBatch(const WorkloadDef& def, uint64_t seed) {
  if (def.name == "overall_sweep") {
    return OverallSlice(seed, kOverallWarmupMs, kOverallMeasureMs);
  }
  if (def.name == "vcpu_latency") {
    ExperimentSpec spec =
        vsched::VcpuLatencySweep(seed, MsToNs(kLatencyWarmupMs), MsToNs(kLatencyMeasureMs));
    spec.name = def.name;
    return spec;
  }
  return FleetBatch(def, seed, kFleetHorizonMs);
}

ExperimentSpec BuildCheckSlice(const WorkloadDef& def, uint64_t seed) {
  if (def.name == "overall_sweep") {
    ExperimentSpec full = OverallSlice(seed, kCheckWarmupMs, kCheckMeasureMs);
    // canneal on both reference VMs, under all three configs.
    ExperimentSpec spec;
    spec.name = "overall_sweep_check";
    for (const RunSpec& run : full.runs) {
      if (run.workload == "canneal") {
        spec.runs.push_back(run);
      }
    }
    return spec;
  }
  if (def.name == "vcpu_latency") {
    ExperimentSpec spec =
        vsched::VcpuLatencySweep(seed, MsToNs(kCheckWarmupMs), MsToNs(kCheckMeasureMs));
    spec.name = "vcpu_latency_check";
    return spec;
  }
  return FleetBatch(def, seed, kFleetCheckHorizonMs);
}

double SimSecondsOf(const RunSpec& spec) {
  vsched::TimeNs sim = spec.warmup + spec.measure;
  if (spec.family != ExperimentFamily::kFleet) {
    sim += MsToNs(50);  // RunWorkloadObj's post-Stop drain
  }
  return static_cast<double>(sim) / 1e9;
}

std::vector<std::vector<std::string>> VschedRunInvocations(const WorkloadDef& def,
                                                           const ExperimentSpec& batch,
                                                           uint64_t seed) {
  std::vector<std::vector<std::string>> out;
  if (batch.runs.empty()) {
    return out;
  }
  const RunSpec& first = batch.runs.front();
  auto ms = [](vsched::TimeNs t) { return std::to_string(t / vsched::kNsPerMs); };
  std::vector<std::string> common = {"--seed",       std::to_string(seed),
                                     "--warmup-ms",  ms(first.warmup),
                                     "--measure-ms", ms(first.measure)};
  if (def.kind == WorkloadKind::kFleet) {
    std::vector<std::string> args = {"--fleet", "dc", "--shards", std::to_string(def.shards),
                                     "--jobs", "1"};
    args.insert(args.end(), common.begin(), common.end());
    out.push_back(std::move(args));
    return out;
  }
  if (def.name == "vcpu_latency") {
    std::vector<std::string> args = {"--experiment", "fig02", "--jobs", "1"};
    args.insert(args.end(), common.begin(), common.end());
    out.push_back(std::move(args));
    return out;
  }
  // overall_sweep: one filtered invocation per (family, app), in batch order;
  // each yields that app's cfs/enhanced/vsched rows.
  std::string last;
  for (const RunSpec& run : batch.runs) {
    std::string prefix = std::string(vsched::FamilyName(run.family)) + "/" + run.workload + "/";
    if (prefix == last) {
      continue;
    }
    last = prefix;
    std::vector<std::string> args = {"--experiment", vsched::FamilyName(run.family), "--jobs",
                                     std::to_string(def.jobs), "--filter", prefix};
    args.insert(args.end(), common.begin(), common.end());
    out.push_back(std::move(args));
  }
  return out;
}

}  // namespace perfbench
