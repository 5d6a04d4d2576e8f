#include "src/runner/spec.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "src/base/check.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/fault/fault_plan.h"
#include "src/runner/deception.h"
#include "src/runner/run_context.h"
#include "src/sim/simulation.h"
#include "src/workloads/latency_app.h"
#include "src/workloads/throughput_app.h"

namespace vsched {

const char* FamilyName(ExperimentFamily family) {
  switch (family) {
    case ExperimentFamily::kOverallRcvm:
      return "fig18_rcvm";
    case ExperimentFamily::kOverallHpvm:
      return "fig19_hpvm";
    case ExperimentFamily::kVcpuLatency:
      return "fig02";
    case ExperimentFamily::kFleet:
      return "fleet";
    case ExperimentFamily::kAdversary:
      return "adversary";
  }
  return "unknown";
}

const std::vector<SchedulerConfig>& SweepSchedulerConfigs() {
  static const std::vector<SchedulerConfig> kConfigs = {
      {"cfs", VSchedOptions::Cfs()},
      {"enhanced", VSchedOptions::EnhancedCfs()},
      {"vsched", VSchedOptions::Full()},
  };
  return kConfigs;
}

VSchedOptions OptionsForConfig(const std::string& name) {
  for (const SchedulerConfig& config : SweepSchedulerConfigs()) {
    if (config.name == name) {
      return config.options;
    }
  }
  throw std::invalid_argument("unknown scheduler config: " + name);
}

std::string RunSpec::Id() const {
  std::string id = std::string(FamilyName(family)) + "/" + workload + "/" + config;
  if (family == ExperimentFamily::kVcpuLatency) {
    id += "/lat=" + std::to_string(vcpu_latency / kNsPerMs) + "ms";
    if (best_effort) {
      id += "+be";
    }
  }
  // The robust axis appears only when explicitly forced (adversary rows);
  // legacy sweeps never set it, so their ids — and resume checkpoints —
  // are unchanged.
  if (robust_override >= 0) {
    id += robust_override == 1 ? "/robust=on" : "/robust=off";
  }
  return id;
}

void ExperimentSpec::Filter(const std::string& substr) {
  if (substr.empty()) {
    return;
  }
  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [&](const RunSpec& run) {
                              return run.Id().find(substr) == std::string::npos;
                            }),
             runs.end());
}

ExperimentSpec OverallSweep(ExperimentFamily family, uint64_t seed, TimeNs warmup,
                            TimeNs measure) {
  VSCHED_CHECK(family == ExperimentFamily::kOverallRcvm ||
               family == ExperimentFamily::kOverallHpvm);
  if (seed == 0) {
    seed = family == ExperimentFamily::kOverallRcvm ? 0xF16'18 : 0xF16'19;
  }
  ExperimentSpec experiment;
  experiment.name = FamilyName(family);
  for (const std::string& name : Fig18WorkloadNames()) {
    for (const SchedulerConfig& config : SweepSchedulerConfigs()) {
      RunSpec run;
      run.family = family;
      run.workload = name;
      run.config = config.name;
      run.seed = seed;
      run.warmup = warmup;
      run.measure = measure;
      experiment.runs.push_back(std::move(run));
    }
  }
  return experiment;
}

ExperimentSpec VcpuLatencySweep(uint64_t base_seed, TimeNs warmup, TimeNs measure) {
  if (base_seed == 0) {
    base_seed = 0xF16'02;
  }
  ExperimentSpec experiment;
  experiment.name = FamilyName(ExperimentFamily::kVcpuLatency);
  for (bool best_effort : {false, true}) {
    for (const char* app : {"img-dnn", "silo", "specjbb"}) {
      for (TimeNs latency : {MsToNs(2), MsToNs(4), MsToNs(8), MsToNs(16)}) {
        RunSpec run;
        run.family = ExperimentFamily::kVcpuLatency;
        run.workload = app;
        run.config = "cfs";
        run.seed = base_seed + static_cast<uint64_t>(latency);
        run.warmup = warmup;
        run.measure = measure;
        run.vcpu_latency = latency;
        run.best_effort = best_effort;
        experiment.runs.push_back(std::move(run));
      }
    }
  }
  return experiment;
}

ExperimentSpec FleetSweep(const std::string& preset, uint64_t seed, TimeNs warmup,
                          TimeNs measure) {
  FleetSpec fleet_spec;
  if (!LookupFleetSpec(preset, &fleet_spec)) {
    throw std::invalid_argument("unknown fleet preset: " + preset);
  }
  if (seed == 0) {
    seed = 0xF1EE7;
  }
  ExperimentSpec experiment;
  experiment.name = std::string(FamilyName(ExperimentFamily::kFleet)) + "_" + preset;
  for (const SchedulerConfig& config : SweepSchedulerConfigs()) {
    if (config.name == "enhanced") {
      continue;
    }
    RunSpec run;
    run.family = ExperimentFamily::kFleet;
    run.workload = preset;
    run.config = config.name;
    run.seed = seed;
    run.warmup = warmup;
    run.measure = measure;
    experiment.runs.push_back(std::move(run));
  }
  return experiment;
}

void RunMetrics::Set(const std::string& key, double value) {
  for (auto& entry : values) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  values.emplace_back(key, value);
}

double RunMetrics::Get(const std::string& key, double fallback) const {
  for (const auto& entry : values) {
    if (entry.first == key) {
      return entry.second;
    }
  }
  return fallback;
}

namespace {

// Resolves the spec's fault plan into `plan`; throws on an unknown name.
// Returns false for a clean run (no plan, or the empty "none" plan), in
// which case the execution path is byte-identical to a pre-fault-layer
// build: no injector, no robust probing.
bool ResolveFaultPlan(const RunSpec& spec, FaultPlan* plan) {
  if (spec.fault_plan.empty()) {
    return false;
  }
  if (!LookupFaultPlan(spec.fault_plan, plan)) {
    throw std::invalid_argument("unknown fault plan: " + spec.fault_plan);
  }
  return !plan->Empty();
}

// Whether a single-VM run arms the robust layer: an explicit override wins;
// otherwise the legacy rule applies (any active chaos plan arms it).
bool ResolveRobust(const RunSpec& spec, bool chaos) {
  if (spec.robust_override >= 0) {
    return spec.robust_override == 1;
  }
  return chaos;
}

// Arms the simulated-event watchdog and (for an active plan) the injector.
void ApplyFaults(const RunSpec& spec, bool chaos, const FaultPlan& plan, RunContext& ctx) {
  if (spec.event_budget > 0) {
    ctx.sim->SetEventBudget(spec.event_budget);
  }
  if (!chaos) {
    return;
  }
  ctx.fault =
      std::make_unique<FaultInjector>(ctx.sim.get(), ctx.machine.get(), ctx.vm.get(), plan);
  ctx.kernel().set_fault_injector(ctx.fault.get());
  ctx.fault->Start();
}

// Stops the injector and appends the fault/degradation tallies. Clean runs
// (no injector) add no keys, keeping their rows byte-identical.
void AppendFaultMetrics(RunContext& ctx, RunMetrics& metrics) {
  if (ctx.fault == nullptr) {
    return;
  }
  ctx.fault->Stop();
  const FaultStats& st = ctx.fault->stats();
  metrics.Set("fault_applied", static_cast<double>(st.total_applied()));
  metrics.Set("fault_steal_bursts", static_cast<double>(st.steal_bursts));
  metrics.Set("fault_storms", static_cast<double>(st.stressor_storms));
  metrics.Set("fault_droops", static_cast<double>(st.freq_droops));
  metrics.Set("fault_bw_jitters", static_cast<double>(st.bandwidth_jitters));
  metrics.Set("fault_samples_dropped", static_cast<double>(st.samples_dropped));
  metrics.Set("fault_samples_corrupted", static_cast<double>(st.samples_corrupted));
  const DegradationTracker& deg = ctx.vsched->degradation();
  TimeNs now = ctx.sim->now();
  metrics.Set("degraded_transitions", static_cast<double>(deg.transitions()));
  metrics.Set("degraded_capacity_ms",
              static_cast<double>(deg.TimeDegraded(DegradedComponent::kCapacity, now)) / 1e6);
  metrics.Set("degraded_topology_ms",
              static_cast<double>(deg.TimeDegraded(DegradedComponent::kTopology, now)) / 1e6);
  metrics.Set("degraded_placement_ms",
              static_cast<double>(deg.TimeDegraded(DegradedComponent::kPlacement, now)) / 1e6);
  metrics.Set("degraded_harvest_ms",
              static_cast<double>(deg.TimeDegraded(DegradedComponent::kHarvest, now)) / 1e6);
  metrics.Set("degraded_bans_ms",
              static_cast<double>(deg.TimeDegraded(DegradedComponent::kBans, now)) / 1e6);
}

void FillMetrics(const RunSpec& spec, const MeasuredRun& run, RunMetrics& metrics) {
  metrics.Set("perf", Performance(spec.workload, run.result));
  metrics.Set("throughput", run.result.throughput);
  metrics.Set("p50_ns", run.result.p50_ns);
  metrics.Set("p95_ns", run.result.p95_ns);
  metrics.Set("p99_ns", run.result.p99_ns);
  metrics.Set("mean_ns", run.result.mean_ns);
  metrics.Set("completed", static_cast<double>(run.result.completed));
  metrics.Set("work_done", static_cast<double>(run.work_done));
  metrics.Set("migrations", static_cast<double>(run.migrations));
}

// Figure 18/19 protocol (previously bench/fig18_common.h): the reference VM
// under one scheduler configuration, one workload at threads == vCPUs.
RunMetrics ExecuteOverallRun(const RunSpec& spec) {
  bool rcvm = spec.family == ExperimentFamily::kOverallRcvm;
  TopologySpec host = rcvm ? RcvmHostTopology() : HpvmHostTopology();
  VmSpec vm_spec = rcvm ? MakeRcvmSpec() : MakeHpvmSpec();
  vm_spec.mutable_guest_params().tickless = spec.tickless;
  HostSchedParams host_params;
  host_params.tickless = spec.tickless;
  int threads = static_cast<int>(vm_spec.vcpus.size());
  FaultPlan plan;
  bool chaos = ResolveFaultPlan(spec, &plan);
  VSchedOptions options = OptionsForConfig(spec.config);
  if (ResolveRobust(spec, chaos)) {
    options.robust.enabled = true;  // chaos runs arm the degradation layer
  }
  RunContext ctx = MakeRun(host, std::move(vm_spec), options, spec.seed, host_params);
  ApplyFaults(spec, chaos, plan, ctx);
  if (rcvm) {
    ShapeRcvmHost(ctx.sim.get(), ctx.machine.get(), ctx.stressors);
  } else {
    ShapeHpvmHost(ctx.sim.get(), ctx.machine.get(), ctx.stressors);
  }
  MeasuredRun run;
  if (MetricFor(spec.workload) == MetricKind::kP95Latency) {
    // Low offered load: tail latency, not queueing for workers, is the
    // object of measurement (§5.1 reduces arrival rates similarly).
    LatencyApp app(&ctx.kernel(), LatencyParamsFor(spec.workload, threads, 0.05));
    run = RunWorkloadObj(ctx, &app, spec.warmup, spec.measure);
  } else {
    run = RunWorkload(ctx, spec.workload, threads, spec.warmup, spec.measure);
  }
  RunMetrics metrics;
  FillMetrics(spec, run, metrics);
  AppendFaultMetrics(ctx, metrics);
  return metrics;
}

// Figure 2 protocol: a flat 32-vCPU VM time-sharing every core with a
// stressor; the host granularity knobs shape how long a runnable vCPU waits
// for the competitor's slice — i.e. the vCPU latency — without changing
// capacity.
RunMetrics ExecuteVcpuLatencyRun(const RunSpec& spec) {
  const int kVcpus = 32;
  VmSpec vm_spec = MakeSimpleVmSpec("vm", kVcpus);
  vm_spec.mutable_guest_params().tickless = spec.tickless;
  HostSchedParams host;
  host.min_granularity = spec.vcpu_latency;
  host.wakeup_granularity = spec.vcpu_latency;
  host.tickless = spec.tickless;
  FaultPlan plan;
  bool chaos = ResolveFaultPlan(spec, &plan);
  VSchedOptions options = OptionsForConfig(spec.config);
  if (ResolveRobust(spec, chaos)) {
    options.robust.enabled = true;
  }
  RunContext ctx = MakeRun(FlatHost(kVcpus), std::move(vm_spec), options, spec.seed, host);
  ApplyFaults(spec, chaos, plan, ctx);
  for (int c = 0; c < kVcpus; ++c) {
    ctx.AddStressor(c);
  }
  std::unique_ptr<TaskParallelApp> background;
  if (spec.best_effort) {
    TaskParallelParams bp;
    bp.name = "best-effort";
    bp.threads = kVcpus;
    bp.chunk_mean = MsToNs(1);
    bp.policy = TaskPolicy::kIdle;
    background = std::make_unique<TaskParallelApp>(&ctx.kernel(), bp);
    background->Start();
  }
  MeasuredRun run = RunWorkload(ctx, spec.workload, /*threads=*/8, spec.warmup, spec.measure);
  if (background != nullptr) {
    background->Stop();
  }
  RunMetrics metrics;
  FillMetrics(spec, run, metrics);
  AppendFaultMetrics(ctx, metrics);
  return metrics;
}

// Cluster-scale fleet protocol (src/cluster/): thousands of hosts on the
// sharded fleet engine; spec.workload names a FleetSpec preset. The whole
// horizon is measured — a fleet ramps from empty (Poisson arrivals), so
// there is no steady state to warm into, and per-tenant distributions must
// cover each tenant's whole life to make SLO-violation counts meaningful.
RunMetrics ExecuteFleetRun(const RunSpec& spec) {
  FleetSpec fleet_spec;
  if (!LookupFleetSpec(spec.workload, &fleet_spec)) {
    throw std::invalid_argument("unknown fleet preset: " + spec.workload);
  }
  if (spec.shards < 1) {
    throw std::invalid_argument("fleet shards must be >= 1, got " + std::to_string(spec.shards));
  }
  FaultPlan plan;
  bool chaos = ResolveFaultPlan(spec, &plan);
  TimeNs horizon = spec.warmup + spec.measure;
  // Fleets historically never auto-arm robust (the guest stack is the
  // head-to-head axis); only an explicit override changes that, so legacy
  // fleet rows stay byte-identical.
  VSchedOptions guest_options = OptionsForConfig(spec.config);
  if (spec.robust_override == 1) {
    guest_options.robust.enabled = true;
  }

  // spec.shards is the worker-thread count, not the experiment: fleet totals
  // are byte-identical for every shards >= 1. The event budget applies to
  // each cell's Simulation.
  ShardedFleet fleet(fleet_spec, spec.seed, guest_options, spec.shards, chaos ? &plan : nullptr,
                     spec.tickless);
  if (spec.event_budget > 0) {
    fleet.SetEventBudgetPerCell(spec.event_budget);
  }
  fleet.Run(horizon);

  const FleetTotals& t = fleet.totals();
  RunMetrics metrics;
  metrics.Set("completed", static_cast<double>(t.requests));
  metrics.Set("throughput",
              static_cast<double>(t.requests) / (static_cast<double>(horizon) / 1e9));
  metrics.Set("p50_ns", t.fleet_p50_ns);
  metrics.Set("p95_ns", t.fleet_p95_ns);
  metrics.Set("p99_ns", t.fleet_p99_ns);
  metrics.Set("mean_ns", t.fleet_mean_ns);
  metrics.Set("slo_violations", static_cast<double>(t.slo_violations));
  metrics.Set("slo_violation_frac",
              t.requests > 0 ? static_cast<double>(t.slo_violations) /
                                   static_cast<double>(t.requests)
                             : 0);
  metrics.Set("tenant_p99_p50_ns", t.tenant_p99_p50_ns);
  metrics.Set("tenant_p99_p95_ns", t.tenant_p99_p95_ns);
  metrics.Set("tenant_p99_max_ns", t.tenant_p99_max_ns);
  metrics.Set("batch_chunks", static_cast<double>(t.batch_chunks));
  metrics.Set("vms_placed", static_cast<double>(t.vms_placed));
  metrics.Set("vms_rejected", static_cast<double>(t.vms_rejected));
  metrics.Set("vms_departed", static_cast<double>(t.vms_departed));
  metrics.Set("migrations", static_cast<double>(t.migrations));
  metrics.Set("hosts_booted", static_cast<double>(t.hosts_booted));
  metrics.Set("hosts_shutdown", static_cast<double>(t.hosts_shutdown));
  metrics.Set("hosts_on_at_end", static_cast<double>(t.hosts_on_at_end));
  metrics.Set("host_util_mean", t.host_util_mean);
  metrics.Set("energy_j", t.energy_j);
  if (chaos) {
    metrics.Set("fault_applied", static_cast<double>(t.fault_applied));
    // Fleet-level detection/containment aggregates; keyed only under an
    // active plan so clean fleet rows keep their pre-adversary schema.
    metrics.Set("adversary_activations", static_cast<double>(t.adversary_activations));
    metrics.Set("degraded_tenants", static_cast<double>(t.degraded_tenants));
    metrics.Set("pessimistic_publishes", static_cast<double>(t.pessimistic_publishes));
    metrics.Set("quarantine_events", static_cast<double>(t.quarantine_events));
  }
  return metrics;
}

// Adversarial co-tenant protocol (src/adversary/, docs/ROBUSTNESS.md): a
// reference VM runs a steady throughput victim while a canned
// scheduler-attack plan drives RT co-tenants on its hardware threads;
// host-side entity accounting over the measurement window is the ground
// truth the deception matrix scores each estimator against.
// spec.workload names the attack ("steal" | "evade" | "burst" | "all");
// "fleet-<attack>" instead runs the tiny fleet preset with one adversarial
// tenant per host (src/cluster/ FleetInjectorHost).
RunMetrics ExecuteAdversaryRun(const RunSpec& spec) {
  std::string attack = spec.workload;
  bool fleet_variant = attack.rfind("fleet-", 0) == 0;
  if (fleet_variant) {
    attack = attack.substr(6);
  }
  // "none" is the calibration row: same protocol, no attacker — the matrix
  // baseline every dx_* deception delta is read against.
  if (attack != "steal" && attack != "evade" && attack != "burst" && attack != "all" &&
      attack != "none") {
    throw std::invalid_argument("unknown adversary attack: " + spec.workload);
  }
  if (fleet_variant) {
    RunSpec fleet = spec;
    fleet.family = ExperimentFamily::kFleet;
    fleet.workload = "tiny";
    return ExecuteFleetRun(fleet);
  }

  // 2 sockets x 2 cores x 2 SMT threads: every vtop relation class exists,
  // so topology deception is scoreable. 8 vCPUs pinned 1:1 — no stacking.
  const int kVcpus = 8;
  TopologySpec host = FlatHost(/*cores=*/2, /*threads_per_core=*/2, /*sockets=*/2);
  VmSpec vm_spec = MakeSimpleVmSpec("vm", kVcpus);
  vm_spec.mutable_guest_params().tickless = spec.tickless;
  HostSchedParams host_params;
  host_params.tickless = spec.tickless;
  FaultPlan plan;
  bool chaos = ResolveFaultPlan(spec, &plan);
  VSchedOptions options = OptionsForConfig(spec.config);
  options.robust.enabled = ResolveRobust(spec, chaos);
  // Fast probe cadence so a short horizon spans many windows. The vcap grid
  // (10 ms window every 100 ms from t=0) is exactly the schedule the canned
  // probe-evader's quiet phase is tuned to cover — the attack only works
  // against a predictable grid, which is what the robust layer's window
  // jitter then takes away.
  options.vcap.sampling_period = MsToNs(10);
  options.vcap.light_interval = MsToNs(100);
  options.vcap.heavy_every = 4;
  options.vact.update_interval = MsToNs(100);
  options.vtop.probe_interval = MsToNs(500);
  // A laxer straggler bar than the paper's 10x: the probe-evader starves its
  // victims ~5x below the mean, which real operators would want banned —
  // whether rwc sees it is exactly the dx_rwc vs dx_gt_stragglers cell.
  options.rwc.straggler_ratio = 0.5;
  RunContext ctx = MakeRun(host, std::move(vm_spec), options, spec.seed, host_params);
  ApplyFaults(spec, chaos, plan, ctx);

  // Victim: a steady fine-grained throughput app on every vCPU, so each
  // vCPU has continuous demand and delivered-fraction ground truth is
  // well-defined for the whole window.
  auto workload = MakeWorkload(&ctx.kernel(), "sysbench", kVcpus);
  workload->Start();
  ctx.sim->RunFor(spec.warmup);
  workload->ResetStats();
  GroundTruthSnapshot before = CaptureGroundTruth(*ctx.vm, ctx.sim->now());
  Work work_before = TotalWorkDone(ctx.kernel());
  uint64_t migr_before = ctx.kernel().counters().migrations.value() +
                         ctx.kernel().counters().active_migrations.value();
  ctx.sim->RunFor(spec.measure);
  GroundTruthSnapshot after = CaptureGroundTruth(*ctx.vm, ctx.sim->now());

  RunMetrics metrics;
  WorkloadResult result = workload->Result();
  metrics.Set("perf", result.throughput);
  metrics.Set("throughput", result.throughput);
  metrics.Set("completed", static_cast<double>(result.completed));
  metrics.Set("work_done",
              static_cast<double>(TotalWorkDone(ctx.kernel()) - work_before));
  metrics.Set("migrations",
              static_cast<double>(ctx.kernel().counters().migrations.value() +
                                  ctx.kernel().counters().active_migrations.value() -
                                  migr_before));
  workload->Stop();
  uint64_t activations = ctx.fault != nullptr ? ctx.fault->adversary_activations() : 0;
  AppendDeceptionMetrics(before, after, *ctx.vm, *ctx.machine, *ctx.vsched, activations,
                         metrics);
  AppendFaultMetrics(ctx, metrics);
  return metrics;
}

}  // namespace

ExperimentSpec AdversarySweep(uint64_t seed, TimeNs warmup, TimeNs measure) {
  if (seed == 0) {
    seed = 0xAD5E7;
  }
  ExperimentSpec experiment;
  experiment.name = FamilyName(ExperimentFamily::kAdversary);
  const char* kAttacks[] = {"none", "steal", "evade", "burst"};
  for (bool fleet : {false, true}) {
    for (const char* attack : kAttacks) {
      for (int robust : {0, 1}) {
        RunSpec run;
        run.family = ExperimentFamily::kAdversary;
        run.workload = fleet ? std::string("fleet-") + attack : attack;
        run.config = "vsched";
        run.seed = seed;
        run.warmup = warmup;
        run.measure = measure;
        run.fault_plan = std::string(attack) == "none" ? std::string("none")
                                                       : std::string("adversary-") + attack;
        run.robust_override = robust;
        experiment.runs.push_back(std::move(run));
      }
    }
  }
  return experiment;
}

RunMetrics ExecuteRun(const RunSpec& spec) {
  // Bad names in hand-authored specs should surface as a failed RunResult,
  // not as the VSCHED_CHECK abort MakeWorkload would hit mid-simulation.
  // Fleet runs validate spec.workload against the preset registry instead;
  // adversary runs validate it against the attack names.
  if (spec.family != ExperimentFamily::kFleet &&
      spec.family != ExperimentFamily::kAdversary) {
    bool known = false;
    for (const CatalogEntry& entry : Catalog()) {
      if (entry.name == spec.workload) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("unknown workload: " + spec.workload);
    }
  }
  switch (spec.family) {
    case ExperimentFamily::kOverallRcvm:
    case ExperimentFamily::kOverallHpvm:
      return ExecuteOverallRun(spec);
    case ExperimentFamily::kVcpuLatency:
      return ExecuteVcpuLatencyRun(spec);
    case ExperimentFamily::kFleet:
      return ExecuteFleetRun(spec);
    case ExperimentFamily::kAdversary:
      return ExecuteAdversaryRun(spec);
  }
  throw std::invalid_argument("unknown experiment family");
}

}  // namespace vsched
