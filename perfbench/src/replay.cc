#include "perfbench/src/replay.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/metrics/experiment.h"
#include "src/runner/run_context.h"
#include "src/workloads/catalog.h"
#include "src/workloads/latency_app.h"
#include "src/workloads/throughput_app.h"

namespace perfbench {

using vsched::ExperimentFamily;
using vsched::MsToNs;
using vsched::PerfCounters;
using vsched::RunContext;
using vsched::RunMetrics;
using vsched::RunSpec;
using vsched::TimeNs;

void GuestTallies::Add(const GuestTallies& o) {
  context_switches += o.context_switches;
  migrations += o.migrations;
  wakeup_ipis += o.wakeup_ipis;
  vtop_pair_probes += o.vtop_pair_probes;
  vtop_full_probes += o.vtop_full_probes;
  vcap_windows += o.vcap_windows;
}

bool SameCounters(const PerfCounters& a, const PerfCounters& b) {
  return a.events_scheduled == b.events_scheduled && a.events_executed == b.events_executed &&
         a.events_cancelled == b.events_cancelled &&
         a.callback_heap_allocs == b.callback_heap_allocs &&
         a.event_slab_allocs == b.event_slab_allocs && a.rq_enqueues == b.rq_enqueues &&
         a.rq_dequeues == b.rq_dequeues && a.rq_picks == b.rq_picks &&
         a.timer_arms == b.timer_arms && a.timer_fires == b.timer_fires &&
         a.timer_cancels == b.timer_cancels && a.timer_cascades == b.timer_cascades &&
         a.ticks_elided == b.ticks_elided;
}

namespace {

GuestTallies ReadTallies(vsched::GuestKernel& kernel, vsched::VSched* vs) {
  GuestTallies t;
  auto& c = kernel.counters();
  t.context_switches = c.context_switches.value();
  t.migrations = c.migrations.value() + c.active_migrations.value();
  t.wakeup_ipis = c.wakeup_ipis.value();
  if (vs != nullptr) {
    if (vs->vtop() != nullptr) {
      t.vtop_pair_probes = static_cast<uint64_t>(vs->vtop()->pair_probes_run());
      t.vtop_full_probes = static_cast<uint64_t>(vs->vtop()->full_probes_run());
    }
    if (vs->vcap() != nullptr) {
      t.vcap_windows = static_cast<uint64_t>(vs->vcap()->windows_completed());
    }
  }
  return t;
}

// The executor's FillMetrics, key for key.
void FillSweepMetrics(const RunSpec& spec, const vsched::MeasuredRun& run, RunMetrics& m) {
  m.Set("perf", vsched::Performance(spec.workload, run.result));
  m.Set("throughput", run.result.throughput);
  m.Set("p50_ns", run.result.p50_ns);
  m.Set("p95_ns", run.result.p95_ns);
  m.Set("p99_ns", run.result.p99_ns);
  m.Set("mean_ns", run.result.mean_ns);
  m.Set("completed", static_cast<double>(run.result.completed));
  m.Set("work_done", static_cast<double>(run.work_done));
  m.Set("migrations", static_cast<double>(run.migrations));
}

// ExecuteFleetRun's clean-run keys, in its order.
void FillFleetMetrics(const vsched::FleetTotals& t, TimeNs horizon, RunMetrics& m) {
  m.Set("completed", static_cast<double>(t.requests));
  m.Set("throughput", static_cast<double>(t.requests) / (static_cast<double>(horizon) / 1e9));
  m.Set("p50_ns", t.fleet_p50_ns);
  m.Set("p95_ns", t.fleet_p95_ns);
  m.Set("p99_ns", t.fleet_p99_ns);
  m.Set("mean_ns", t.fleet_mean_ns);
  m.Set("slo_violations", static_cast<double>(t.slo_violations));
  m.Set("slo_violation_frac",
        t.requests > 0
            ? static_cast<double>(t.slo_violations) / static_cast<double>(t.requests)
            : 0);
  m.Set("tenant_p99_p50_ns", t.tenant_p99_p50_ns);
  m.Set("tenant_p99_p95_ns", t.tenant_p99_p95_ns);
  m.Set("tenant_p99_max_ns", t.tenant_p99_max_ns);
  m.Set("batch_chunks", static_cast<double>(t.batch_chunks));
  m.Set("vms_placed", static_cast<double>(t.vms_placed));
  m.Set("vms_rejected", static_cast<double>(t.vms_rejected));
  m.Set("vms_departed", static_cast<double>(t.vms_departed));
  m.Set("migrations", static_cast<double>(t.migrations));
  m.Set("hosts_booted", static_cast<double>(t.hosts_booted));
  m.Set("hosts_shutdown", static_cast<double>(t.hosts_shutdown));
  m.Set("hosts_on_at_end", static_cast<double>(t.hosts_on_at_end));
  m.Set("host_util_mean", t.host_util_mean);
  m.Set("energy_j", t.energy_j);
}

// Times `fn` as a span and returns its duration.
template <typename Fn>
int64_t Timed(Tracer* tracer, const char* name, const char* layer, int parent,
              const std::string& run_id, const PerfCounters* live, Fn&& fn) {
  SpanScope span(tracer, name, layer, parent, run_id, live);
  int64_t start = NowNs();
  fn();
  return NowNs() - start;
}

vsched::RunResult FinishResult(const RunSpec& spec, int index, RunMetrics metrics) {
  vsched::RunResult r;
  r.spec = spec;
  r.index = index;
  r.attempts = 1;
  r.ok = true;
  r.status = vsched::RunStatus::kOk;
  r.metrics = std::move(metrics);
  return r;
}

vsched::FleetSpec FleetSpecOf(const RunSpec& spec) {
  vsched::FleetSpec fleet_spec;
  if (!vsched::LookupFleetSpec(spec.workload, &fleet_spec)) {
    throw std::invalid_argument("unknown fleet preset: " + spec.workload);
  }
  return fleet_spec;
}

// One sweep cell's deployment, as the executor builds it.
struct SweepDeployment {
  std::unique_ptr<RunContext> ctx = std::make_unique<RunContext>();
  std::unique_ptr<vsched::TaskParallelApp> background;  // Fig 2 "+be" cells
  std::unique_ptr<vsched::Workload> workload;
};

// MakeRun's steps, then host shaping, then the workload -- the executor's
// construction order, which fixes RNG forks and timer registration order.
SweepDeployment BuildSweepDeployment(const RunSpec& spec, const vsched::VSchedOptions& options,
                                     Tracer* tracer, int parent, const PerfCounters* live) {
  const std::string id = spec.Id();
  const bool latency = spec.family == ExperimentFamily::kVcpuLatency;
  const bool rcvm = spec.family == ExperimentFamily::kOverallRcvm;
  constexpr int kLatencyVcpus = 32;
  vsched::VmSpec vm_spec;
  vsched::TopologySpec topo;
  vsched::HostSchedParams host_params;
  host_params.tickless = spec.tickless;
  if (latency) {
    vm_spec = vsched::MakeSimpleVmSpec("vm", kLatencyVcpus);
    topo = vsched::FlatHost(kLatencyVcpus);
    host_params.min_granularity = spec.vcpu_latency;
    host_params.wakeup_granularity = spec.vcpu_latency;
  } else {
    vm_spec = rcvm ? vsched::MakeRcvmSpec() : vsched::MakeHpvmSpec();
    topo = rcvm ? vsched::RcvmHostTopology() : vsched::HpvmHostTopology();
  }
  vm_spec.mutable_guest_params().tickless = spec.tickless;
  const int threads = latency ? 8 : static_cast<int>(vm_spec.vcpus.size());

  SweepDeployment d;
  RunContext* ctx = d.ctx.get();
  Timed(tracer, "host.construct", "host", parent, id, live, [&] {
    ctx->sim = std::make_unique<vsched::Simulation>(spec.seed);
    ctx->machine = std::make_unique<vsched::HostMachine>(ctx->sim.get(), topo, host_params);
  });
  Timed(tracer, "guest.construct", "guest", parent, id, live, [&] {
    ctx->vm = std::make_unique<vsched::Vm>(ctx->sim.get(), ctx->machine.get(), std::move(vm_spec));
  });
  Timed(tracer, "core.construct", "core", parent, id, live, [&] {
    ctx->vsched = std::make_unique<vsched::VSched>(&ctx->vm->kernel(), options);
    ctx->vsched->Start();
  });
  Timed(tracer, "host.shape", "host", parent, id, live, [&] {
    if (latency) {
      for (int c = 0; c < kLatencyVcpus; ++c) {
        ctx->AddStressor(c);
      }
    } else if (rcvm) {
      vsched::ShapeRcvmHost(ctx->sim.get(), ctx->machine.get(), ctx->stressors);
    } else {
      vsched::ShapeHpvmHost(ctx->sim.get(), ctx->machine.get(), ctx->stressors);
    }
  });
  Timed(tracer, "workloads.construct", "workloads", parent, id, live, [&] {
    if (latency && spec.best_effort) {
      vsched::TaskParallelParams bp;
      bp.name = "best-effort";
      bp.threads = kLatencyVcpus;
      bp.chunk_mean = MsToNs(1);
      bp.policy = vsched::TaskPolicy::kIdle;
      d.background = std::make_unique<vsched::TaskParallelApp>(&ctx->kernel(), bp);
      d.background->Start();
    }
    if (!latency && vsched::MetricFor(spec.workload) == vsched::MetricKind::kP95Latency) {
      d.workload = std::make_unique<vsched::LatencyApp>(
          &ctx->kernel(), vsched::LatencyParamsFor(spec.workload, threads, 0.05));
    } else {
      d.workload = vsched::MakeWorkload(&ctx->kernel(), spec.workload, threads);
    }
  });
  return d;
}

}  // namespace

int64_t TimeCellSetup(const RunSpec& spec) {
  PerfCounters counters;
  PerfCounters::Scope scope(&counters);
  int64_t start = NowNs();
  if (spec.family == ExperimentFamily::kFleet) {
    auto fleet = std::make_unique<vsched::ShardedFleet>(
        FleetSpecOf(spec), spec.seed, vsched::OptionsForConfig(spec.config), spec.shards, nullptr,
        spec.tickless);
    int64_t elapsed = NowNs() - start;
    fleet.reset();
    return elapsed;
  }
  SweepDeployment d =
      BuildSweepDeployment(spec, vsched::OptionsForConfig(spec.config), nullptr, -1, nullptr);
  int64_t elapsed = NowNs() - start;
  d.workload.reset();
  d.background.reset();
  d.ctx.reset();
  return elapsed;
}

ReplayedCell ReplaySweepCell(const RunSpec& spec, const vsched::VSchedOptions& options, int index,
                             Tracer* tracer, int parent) {
  ReplayedCell out;
  PerfCounters counters;
  const std::string id = spec.Id();
  int64_t cell_start = NowNs();
  {
    PerfCounters::Scope scope(&counters);
    SpanScope cell(tracer, "cell", "runner", parent, id, &counters);
    SweepDeployment d;
    {
      SpanScope construct(tracer, "construct", "runner", cell.id(), id, &counters);
      int64_t start = NowNs();
      d = BuildSweepDeployment(spec, options, tracer, construct.id(), &counters);
      out.construct_ns = NowNs() - start;
    }
    RunContext* ctx = d.ctx.get();
    vsched::Workload* workload = d.workload.get();

    // RunWorkloadObj, one span per phase.
    vsched::MeasuredRun run;
    Timed(tracer, "workloads.start", "workloads", cell.id(), id, &counters,
          [&] { workload->Start(); });
    out.step_ns += Timed(tracer, "sim.warmup", "sim", cell.id(), id, &counters,
                         [&] { ctx->sim->RunFor(spec.warmup); });
    workload->ResetStats();
    vsched::Work work_before = vsched::TotalWorkDone(ctx->kernel());
    uint64_t migr_before = ctx->kernel().counters().migrations.value() +
                           ctx->kernel().counters().active_migrations.value();
    out.step_ns += Timed(tracer, "sim.measure", "sim", cell.id(), id, &counters,
                         [&] { ctx->sim->RunFor(spec.measure); });
    Timed(tracer, "workloads.result", "workloads", cell.id(), id, &counters,
          [&] { run.result = workload->Result(); });
    run.work_done = vsched::TotalWorkDone(ctx->kernel()) - work_before;
    run.measured_ns = spec.measure;
    run.migrations = ctx->kernel().counters().migrations.value() +
                     ctx->kernel().counters().active_migrations.value() - migr_before;
    out.tallies = ReadTallies(ctx->kernel(), ctx->vsched.get());

    {
      SpanScope teardown(tracer, "teardown", "runner", cell.id(), id, &counters);
      Timed(tracer, "workloads.stop", "workloads", teardown.id(), id, &counters,
            [&] { workload->Stop(); });
      out.step_ns += Timed(tracer, "sim.drain", "sim", teardown.id(), id, &counters,
                           [&] { ctx->sim->RunFor(MsToNs(50)); });
      Timed(tracer, "workloads.destroy", "workloads", teardown.id(), id, &counters, [&] {
        d.workload.reset();
        if (d.background != nullptr) {
          d.background->Stop();
        }
      });
      RunMetrics metrics;
      FillSweepMetrics(spec, run, metrics);
      out.result = FinishResult(spec, index, std::move(metrics));
      Timed(tracer, "deployment.destroy", "host", teardown.id(), id, &counters, [&] {
        d.background.reset();
        d.ctx.reset();
      });
    }
  }
  out.result.counters = counters;
  out.result.wall_ns = NowNs() - cell_start;
  return out;
}

ReplayedCell ReplayFleetCell(const RunSpec& spec, const vsched::VSchedOptions& options,
                             int shards, int index, Tracer* tracer, int parent) {
  ReplayedCell out;
  PerfCounters counters;
  const std::string id = spec.Id();
  int64_t cell_start = NowNs();
  {
    PerfCounters::Scope scope(&counters);
    SpanScope cell(tracer, "cell", "runner", parent, id, &counters);
    const TimeNs horizon = spec.warmup + spec.measure;
    std::unique_ptr<vsched::ShardedFleet> fleet;
    out.construct_ns = Timed(tracer, "cluster.construct", "cluster", cell.id(), id, &counters, [&] {
      fleet = std::make_unique<vsched::ShardedFleet>(FleetSpecOf(spec), spec.seed, options,
                                                     shards, nullptr, spec.tickless);
    });
    out.step_ns = Timed(tracer, "cluster.run", "cluster", cell.id(), id, &counters,
                        [&] { fleet->Run(horizon); });
    RunMetrics metrics;
    FillFleetMetrics(fleet->totals(), horizon, metrics);
    out.result = FinishResult(spec, index, std::move(metrics));
    out.fleet_window_ns = fleet->window();
    out.fleet_cells = fleet->num_cells();
    out.fleet_events_dispatched = fleet->events_dispatched();
    // Tenants still resident at the horizon (departed tenants' stacks are
    // already gone).
    for (int t = 0; t < fleet->num_tenants(); ++t) {
      const vsched::TenantVm& tenant = fleet->tenant(t);
      if (tenant.vm != nullptr) {
        out.tallies.Add(ReadTallies(tenant.vm->kernel(), tenant.vsched.get()));
      }
    }
    Timed(tracer, "cluster.destroy", "cluster", cell.id(), id, &counters, [&] { fleet.reset(); });
  }
  out.result.counters = counters;
  out.result.wall_ns = NowNs() - cell_start;
  return out;
}

}  // namespace perfbench
