// bench_perf_core: the perf-regression harness for the simulator's hottest
// data structures (the DES event queue, the CFS/EEVDF runqueue, and the
// hierarchical timer wheel), the tickless idle path, plus one end-to-end
// Figure 18 cell as a whole-stack canary.
//
//   bench_perf_core [--out FILE] [--baseline FILE] [--max-regress F]
//                   [--jobs N] [--events N] [--rq-ops N] [--timer-fires N]
//                   [--idle-ms N] [--fleet-ms N] [--quick]
//
// Emits one JSON object (schema below) to --out (default stdout). With
// --baseline, re-reads a previously emitted JSON (e.g. the committed
// BENCH_core.json) and exits non-zero when events/sec or ops/sec regressed
// by more than --max-regress (default 0.25), or the fig18 cell slowed by
// more than the same factor. See docs/PERF.md.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/guest/runqueue.h"
#include "src/guest/task.h"
#include "src/runner/result_sink.h"
#include "src/runner/run_context.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/timer_wheel.h"

using namespace vsched;

namespace {

struct BenchOptions {
  std::string out;
  std::string baseline;
  double max_regress = 0.25;
  int jobs = 1;
  uint64_t events = 4'000'000;
  uint64_t rq_ops = 2'000'000;
  uint64_t timer_fires = 2'000'000;
  uint64_t idle_ms = 4'000;
  uint64_t fleet_ms = 1'000;
};

int64_t WallNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Event churn: steady-state schedule/cancel/fire mix modeled on what a
// simulation does per dispatch — every fired event schedules a successor, and
// a quarter of firings cancel-and-replace a pending timer (preemption-timer
// re-arming is the simulator's dominant cancel source).
// ---------------------------------------------------------------------------

struct ChurnCtx {
  EventQueue* q = nullptr;
  Rng* rng = nullptr;
  std::vector<EventId>* timers = nullptr;
  uint64_t fired = 0;
  uint64_t refill_until = 0;
};

void ChurnFire(ChurnCtx* c) {
  ++c->fired;
  if (c->fired >= c->refill_until) {
    return;  // drain phase: stop replenishing
  }
  TimeNs delay = 1 + static_cast<TimeNs>(c->rng->NextU64() % 1000);
  c->q->ScheduleAfter(delay, [c] { ChurnFire(c); });
  if (c->rng->NextU64() % 4 == 0) {
    size_t slot = c->rng->NextU64() % c->timers->size();
    c->q->Cancel((*c->timers)[slot]);
    (*c->timers)[slot] = c->q->ScheduleAfter(delay + 7, [c] { ChurnFire(c); });
  }
}

struct ChurnResult {
  uint64_t events = 0;
  int64_t wall_ns = 0;
  double events_per_sec = 0;
};

ChurnResult RunEventChurn(uint64_t target_events) {
  EventQueue q;
  Rng rng(0xC0FEu);
  std::vector<EventId> timers;
  ChurnCtx ctx;
  ctx.q = &q;
  ctx.rng = &rng;
  ctx.timers = &timers;
  ctx.refill_until = target_events;
  const int kPending = 2048;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPending; ++i) {
    TimeNs delay = 1 + static_cast<TimeNs>(rng.NextU64() % 1000);
    if (i % 4 == 0) {
      timers.push_back(q.ScheduleAfter(delay, [&ctx] { ChurnFire(&ctx); }));
    } else {
      q.ScheduleAfter(delay, [&ctx] { ChurnFire(&ctx); });
    }
  }
  while (q.RunOne()) {
  }
  ChurnResult r;
  r.events = q.executed_count();
  r.wall_ns = WallNs(start);
  r.events_per_sec =
      r.wall_ns > 0 ? static_cast<double>(r.events) * 1e9 / static_cast<double>(r.wall_ns) : 0;
  return r;
}

// ---------------------------------------------------------------------------
// Runqueue churn: pick/dequeue/advance/re-enqueue cycles over a mixed-depth
// queue, the exact per-dispatch sequence the guest kernel performs. Depth 16
// matches the observed per-vCPU queue depths in the fig18/fig19 deployments.
// ---------------------------------------------------------------------------

struct NoopBehavior : TaskBehavior {
  TaskAction Next(TaskContext&, RunReason) override { return TaskAction::Exit(); }
};

struct RqChurnResult {
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  double ops_per_sec = 0;
};

RqChurnResult RunRunqueueChurn(uint64_t target_ops, bool eevdf) {
  NoopBehavior behavior;
  Rng rng(0xBEEFu);
  std::vector<std::unique_ptr<Task>> tasks;
  const int kDepth = 16;
  for (int i = 0; i < kDepth; ++i) {
    TaskPolicy policy = i % 5 == 4 ? TaskPolicy::kIdle : TaskPolicy::kNormal;
    tasks.push_back(std::make_unique<Task>(i + 1, "t" + std::to_string(i), policy, &behavior,
                                           CpuMask::FirstN(1)));
    TaskAccess::SetVruntime(tasks.back().get(), rng.Uniform(0, 1e6));
    TaskAccess::SetVdeadline(tasks.back().get(), rng.Uniform(0, 1e6));
  }
  Runqueue rq;
  rq.SetEevdf(eevdf);
  for (auto& t : tasks) {
    rq.Enqueue(t.get());
  }
  auto start = std::chrono::steady_clock::now();
  uint64_t ops = 0;
  while (ops < target_ops) {
    Task* t = rq.Pick();
    rq.Dequeue(t);
    TaskAccess::SetVruntime(t, t->vruntime() + rng.Uniform(1e3, 1e5));
    TaskAccess::SetVdeadline(t, t->vdeadline() + rng.Uniform(1e3, 1e5));
    rq.RaiseMinVruntime(t->vruntime());
    rq.Enqueue(t);
    ++ops;
  }
  RqChurnResult r;
  r.ops = ops;
  r.wall_ns = WallNs(start);
  r.ops_per_sec =
      r.wall_ns > 0 ? static_cast<double>(ops) * 1e9 / static_cast<double>(r.wall_ns) : 0;
  return r;
}

// ---------------------------------------------------------------------------
// Timer churn: the periodic-timer pattern the tickless work moved off the
// main heap — 256 periodic timers with mixed periods, every firing re-arms
// itself, and every 16th firing cancel-and-re-arms a random victim. The same
// logical workload runs once on the hierarchical timer wheel and once on the
// heap-backed event queue, so the section is its own before/after ledger.
// ---------------------------------------------------------------------------

struct TimerChurnResult {
  uint64_t fires = 0;
  int64_t wall_ns = 0;  // timer wheel
  double ops_per_sec = 0;
  int64_t heap_wall_ns = 0;  // event-queue backend, same logical workload
  double heap_ops_per_sec = 0;
  double speedup = 0;
};

// Periods between ~51us and ~1.6ms, slightly detuned so buckets stay mixed.
TimeNs ChurnPeriod(int i) {
  return static_cast<TimeNs>((i % 32 + 1) * 51'200 + 1'024 * (i % 7));
}

TimerChurnResult RunTimerChurn(uint64_t target_fires) {
  const int kTimers = 256;
  TimerChurnResult r;

  {
    TimerWheel wheel;
    Rng rng(0x77EE1u);
    std::vector<TimerId> ids(kTimers);
    std::vector<TimeNs> deadline(kTimers, 0);
    uint64_t fires = 0;
    for (int i = 0; i < kTimers; ++i) {
      ids[i] = wheel.Register([&, i] {
        deadline[i] += ChurnPeriod(i);
        wheel.Arm(ids[i], deadline[i]);
        ++fires;
        if (fires % 16 == 0) {
          int victim = static_cast<int>(rng.NextU64() % kTimers);
          if (victim != i && wheel.Cancel(ids[victim])) {
            deadline[victim] = deadline[i] + 2 * ChurnPeriod(victim);
            wheel.Arm(ids[victim], deadline[victim]);
          }
        }
      });
    }
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimers; ++i) {
      deadline[i] = ChurnPeriod(i);
      wheel.Arm(ids[i], deadline[i]);
    }
    while (fires < target_fires) {
      TimeNs when = wheel.NextDeadlineAtMost(kTimeInfinity - 1);
      wheel.RunOne(when);
    }
    r.fires = fires;
    r.wall_ns = WallNs(start);
  }

  {
    EventQueue q;
    Rng rng(0x77EE1u);
    std::vector<EventId> eids(kTimers);
    std::vector<TimeNs> deadline(kTimers, 0);
    std::vector<std::function<void()>> fns(kTimers);
    uint64_t fires = 0;
    for (int i = 0; i < kTimers; ++i) {
      fns[i] = [&, i] {
        deadline[i] += ChurnPeriod(i);
        eids[i] = q.ScheduleAt(deadline[i], fns[i]);
        ++fires;
        if (fires % 16 == 0) {
          int victim = static_cast<int>(rng.NextU64() % kTimers);
          if (victim != i && q.Cancel(eids[victim])) {
            deadline[victim] = deadline[i] + 2 * ChurnPeriod(victim);
            eids[victim] = q.ScheduleAt(deadline[victim], fns[victim]);
          }
        }
      };
    }
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimers; ++i) {
      deadline[i] = ChurnPeriod(i);
      eids[i] = q.ScheduleAt(deadline[i], fns[i]);
    }
    while (fires < target_fires) {
      q.RunOne();
    }
    r.heap_wall_ns = WallNs(start);
  }

  r.ops_per_sec = r.wall_ns > 0
                      ? static_cast<double>(r.fires) * 1e9 / static_cast<double>(r.wall_ns)
                      : 0;
  r.heap_ops_per_sec =
      r.heap_wall_ns > 0
          ? static_cast<double>(r.fires) * 1e9 / static_cast<double>(r.heap_wall_ns)
          : 0;
  r.speedup = r.heap_ops_per_sec > 0 ? r.ops_per_sec / r.heap_ops_per_sec : 0;
  return r;
}

// ---------------------------------------------------------------------------
// Idle tick: a mostly-idle 32-vCPU VM (a 2-thread workload, 30 vCPUs idle) —
// the shape where NOHZ-style elision pays. The same deployment runs once with
// tickless on and once off; the ratio of simulated-time rates is the elision
// speedup and, like timer_churn, doubles as this section's pre-PR ledger.
// ---------------------------------------------------------------------------

struct IdleTickResult {
  double sim_ms = 0;
  int64_t wall_ns = 0;          // tickless
  int64_t wall_ns_ticking = 0;  // periodic ticks everywhere
  double sim_ms_per_sec = 0;
  double sim_ms_per_sec_ticking = 0;
  uint64_t ticks_avoided = 0;  // timer firings the tickless pass never ran
  double speedup = 0;
};

IdleTickResult RunIdleTick(TimeNs sim_time) {
  auto one_pass = [&](bool tickless, uint64_t* fires) -> int64_t {
    PerfCounters counters;
    PerfCounters::Scope scope(&counters);
    VmSpec vm_spec = MakeSimpleVmSpec("vm", 32);
    vm_spec.mutable_guest_params().tickless = tickless;
    HostSchedParams host;
    host.tickless = tickless;
    // Stock CFS: vSched's probers deliberately keep idle vCPUs warm, which is
    // the opposite of the idle shape this section measures.
    RunContext ctx =
        MakeRun(FlatHost(32), std::move(vm_spec), VSchedOptions::Cfs(), /*seed=*/0x1D1Eu, host);
    auto workload = MakeWorkload(&ctx.kernel(), "matmul", /*threads=*/2);
    workload->Start();
    ctx.sim->RunFor(MsToNs(100));  // settle: balancing moves the threads apart
    auto start = std::chrono::steady_clock::now();
    ctx.sim->RunFor(sim_time);
    int64_t wall = WallNs(start);
    workload->Stop();
    *fires = counters.timer_fires;
    return wall;
  };
  IdleTickResult r;
  r.sim_ms = static_cast<double>(sim_time) / 1e6;
  uint64_t fires_ticking = 0;
  uint64_t fires_tickless = 0;
  r.wall_ns_ticking = one_pass(/*tickless=*/false, &fires_ticking);
  r.wall_ns = one_pass(/*tickless=*/true, &fires_tickless);
  r.ticks_avoided = fires_ticking > fires_tickless ? fires_ticking - fires_tickless : 0;
  r.sim_ms_per_sec =
      r.wall_ns > 0 ? r.sim_ms * 1e9 / static_cast<double>(r.wall_ns) : 0;
  r.sim_ms_per_sec_ticking =
      r.wall_ns_ticking > 0 ? r.sim_ms * 1e9 / static_cast<double>(r.wall_ns_ticking) : 0;
  r.speedup = r.sim_ms_per_sec_ticking > 0 ? r.sim_ms_per_sec / r.sim_ms_per_sec_ticking : 0;
  return r;
}

// ---------------------------------------------------------------------------
// Fleet: the rack preset (64 hosts, 256 VMs x 4 vCPUs) under vSched guests —
// the cluster control plane plus a few hundred live guest stacks. This is the
// scaling story for src/cluster/: sim-ms/sec here bounds how big a fleet the
// dc preset can sweep in reasonable wall time.
// ---------------------------------------------------------------------------

struct FleetBenchResult {
  double sim_ms = 0;
  int64_t wall_ns = 0;
  double sim_ms_per_sec = 0;
  uint64_t requests = 0;
  uint64_t migrations = 0;
  int vms_placed = 0;
};

// Reported per shard count (vsched_run --shards): fleet_small is the 1-shard
// run, fleet_small_sharded the 4-shard one. On a multi-core box the spread
// shows parallel scaling; on a single-core box it isolates the engine's
// serial overhead (barrier loop + mailbox).
FleetBenchResult RunFleetSmallSharded(TimeNs sim_time, int shards) {
  FleetSpec spec;
  bool ok = LookupFleetSpec("rack", &spec);
  if (!ok) {
    std::fprintf(stderr, "bench_perf_core: rack fleet preset missing\n");
    std::exit(1);
  }
  auto start = std::chrono::steady_clock::now();
  ShardedFleet fleet(spec, /*seed=*/0xF1EE7u, VSchedOptions::Full(), shards);
  fleet.Run(sim_time);
  FleetBenchResult r;
  r.wall_ns = WallNs(start);
  r.sim_ms = static_cast<double>(sim_time) / 1e6;
  r.sim_ms_per_sec = r.wall_ns > 0 ? r.sim_ms * 1e9 / static_cast<double>(r.wall_ns) : 0;
  r.requests = fleet.totals().requests;
  r.migrations = fleet.totals().migrations;
  r.vms_placed = fleet.totals().vms_placed;
  // A fleet bench that stops exercising live migration is measuring a
  // different (cheaper) workload while still reporting under the same name:
  // the number silently drifts optimistic and the baseline gate compares
  // apples to oranges. That happened once — a consolidation dest-picker bug
  // zeroed migrations for months — so fail loudly, not quietly.
  if (r.migrations == 0) {
    std::fprintf(stderr,
                 "bench_perf_core: fleet run at %d shard(s) completed with zero migrations; "
                 "the consolidation path is no longer exercised and sim-ms/sec is not "
                 "comparable with the baseline\n",
                 shards);
    std::exit(1);
  }
  return r;
}

// ---------------------------------------------------------------------------
// End-to-end canary: a small fig18 cell through the real runner, so the
// harness notices regressions the microbenches can't see (kernel, workloads,
// metrics plumbing).
// ---------------------------------------------------------------------------

struct CellResult {
  int runs = 0;
  int64_t wall_ns = 0;
  double wall_ms = 0;
};

CellResult RunFig18Cell(int jobs) {
  ExperimentSpec sweep = OverallSweep(ExperimentFamily::kOverallRcvm);
  sweep.Filter("canneal");
  for (RunSpec& run : sweep.runs) {
    run.warmup = MsToNs(500);
    run.measure = SecToNs(10);
  }
  RunnerOptions options;
  options.jobs = jobs;
  auto start = std::chrono::steady_clock::now();
  std::vector<RunResult> results = Runner(options).Run(sweep);
  CellResult r;
  r.wall_ns = WallNs(start);
  r.wall_ms = static_cast<double>(r.wall_ns) / 1e6;
  for (const RunResult& result : results) {
    if (!result.ok) {
      std::fprintf(stderr, "bench_perf_core: run %s failed: %s\n", result.spec.Id().c_str(),
                   result.error.c_str());
      std::exit(1);
    }
    ++r.runs;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Baseline comparison: finds `"key":<number>` after `"section"` in a JSON
// blob previously emitted by this binary. Deliberately tiny — the schema is
// ours and flat; a regression gate does not need a JSON library.
// ---------------------------------------------------------------------------

bool FindJsonNumber(const std::string& text, const std::string& section, const std::string& key,
                    double* out) {
  size_t at = text.find("\"" + section + "\"");
  if (at == std::string::npos) {
    return false;
  }
  at = text.find("\"" + key + "\":", at);
  if (at == std::string::npos) {
    return false;
  }
  at += key.size() + 3;
  *out = std::strtod(text.c_str() + at, nullptr);
  return true;
}

// Returns 0 when every rate stayed within the allowed regression, 1 otherwise.
int CompareBaseline(const std::string& path, double max_regress, const ChurnResult& churn,
                    const RqChurnResult& rq, const TimerChurnResult& timer,
                    const IdleTickResult& idle, const FleetBenchResult& fleet,
                    const FleetBenchResult& sharded, const CellResult& cell) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_perf_core: cannot open baseline %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  int failures = 0;
  auto check_rate = [&](const char* section, const char* key, double current) {
    double base = 0;
    if (!FindJsonNumber(text, section, key, &base) || base <= 0) {
      std::fprintf(stderr, "  %s.%s: no baseline value, skipping\n", section, key);
      return;
    }
    double ratio = current / base;
    bool ok = ratio >= 1.0 - max_regress;
    std::fprintf(stderr, "  %s.%s: %.3g vs baseline %.3g (%.2fx) %s\n", section, key, current,
                 base, ratio, ok ? "ok" : "REGRESSED");
    if (!ok) {
      ++failures;
    }
  };
  std::fprintf(stderr, "baseline comparison vs %s (max regression %.0f%%):\n", path.c_str(),
               max_regress * 100);
  check_rate("event_churn", "events_per_sec", churn.events_per_sec);
  check_rate("runqueue_churn", "ops_per_sec", rq.ops_per_sec);
  check_rate("timer_churn", "ops_per_sec", timer.ops_per_sec);
  check_rate("idle_tick", "sim_ms_per_sec", idle.sim_ms_per_sec);
  check_rate("fleet_small", "sim_ms_per_sec", fleet.sim_ms_per_sec);
  check_rate("fleet_small_sharded", "sim_ms_per_sec", sharded.sim_ms_per_sec);
  // For wall clock, lower is better: compare inverted.
  check_rate("fig18_cell", "cells_per_sec",
             cell.wall_ns > 0 ? 1e9 / static_cast<double>(cell.wall_ns) : 0);
  return failures == 0 ? 0 : 1;
}

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bench_perf_core [options]\n"
               "  --out FILE        write the JSON result to FILE (default stdout)\n"
               "  --baseline FILE   compare against FILE; exit 1 on regression\n"
               "  --max-regress F   allowed fractional regression (default 0.25)\n"
               "  --jobs N          worker threads for the fig18 cell (default 1)\n"
               "  --events N        event-churn event count (default 4000000)\n"
               "  --rq-ops N        runqueue-churn op count (default 2000000)\n"
               "  --timer-fires N   timer-churn firing count (default 2000000)\n"
               "  --idle-ms N       idle-tick simulated milliseconds (default 4000)\n"
               "  --fleet-ms N      fleet_small simulated milliseconds (default 1000)\n"
               "  --quick           1/4 size run for smoke testing\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_perf_core: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--baseline") {
      opt.baseline = value();
    } else if (arg == "--max-regress") {
      opt.max_regress = std::strtod(value(), nullptr);
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(value());
    } else if (arg == "--events") {
      opt.events = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--rq-ops") {
      opt.rq_ops = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--timer-fires") {
      opt.timer_fires = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--idle-ms") {
      opt.idle_ms = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--fleet-ms") {
      opt.fleet_ms = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--quick") {
      opt.events /= 4;
      opt.rq_ops /= 4;
      opt.timer_fires /= 4;
      opt.idle_ms /= 4;
      opt.fleet_ms /= 4;
    } else {
      std::fprintf(stderr, "bench_perf_core: unknown flag %s\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }

  std::fprintf(stderr, "event churn: %llu events...\n",
               static_cast<unsigned long long>(opt.events));
  ChurnResult churn = RunEventChurn(opt.events);
  std::fprintf(stderr, "  %.3g events/sec\n", churn.events_per_sec);

  std::fprintf(stderr, "runqueue churn (cfs): %llu ops...\n",
               static_cast<unsigned long long>(opt.rq_ops));
  RqChurnResult rq_cfs = RunRunqueueChurn(opt.rq_ops, /*eevdf=*/false);
  std::fprintf(stderr, "  %.3g ops/sec\n", rq_cfs.ops_per_sec);

  std::fprintf(stderr, "runqueue churn (eevdf): %llu ops...\n",
               static_cast<unsigned long long>(opt.rq_ops / 4));
  RqChurnResult rq_eevdf = RunRunqueueChurn(opt.rq_ops / 4, /*eevdf=*/true);
  std::fprintf(stderr, "  %.3g ops/sec\n", rq_eevdf.ops_per_sec);

  std::fprintf(stderr, "timer churn: %llu fires (wheel, then heap oracle)...\n",
               static_cast<unsigned long long>(opt.timer_fires));
  TimerChurnResult timer = RunTimerChurn(opt.timer_fires);
  std::fprintf(stderr, "  %.3g fires/sec wheel, %.3g heap (%.2fx)\n", timer.ops_per_sec,
               timer.heap_ops_per_sec, timer.speedup);

  std::fprintf(stderr, "idle tick: %llu sim-ms, 32 vCPUs mostly idle...\n",
               static_cast<unsigned long long>(opt.idle_ms));
  IdleTickResult idle = RunIdleTick(MsToNs(static_cast<TimeNs>(opt.idle_ms)));
  std::fprintf(stderr, "  %.3g sim-ms/sec tickless, %.3g ticking (%.2fx, %llu ticks avoided)\n",
               idle.sim_ms_per_sec, idle.sim_ms_per_sec_ticking, idle.speedup,
               static_cast<unsigned long long>(idle.ticks_avoided));

  std::fprintf(stderr, "fleet: rack preset (64 hosts, 256 VMs), %llu sim-ms at 1, 2, 4 shards...\n",
               static_cast<unsigned long long>(opt.fleet_ms));
  FleetBenchResult shard1 = RunFleetSmallSharded(MsToNs(static_cast<TimeNs>(opt.fleet_ms)), 1);
  FleetBenchResult shard2 = RunFleetSmallSharded(MsToNs(static_cast<TimeNs>(opt.fleet_ms)), 2);
  FleetBenchResult shard4 = RunFleetSmallSharded(MsToNs(static_cast<TimeNs>(opt.fleet_ms)), 4);
  std::fprintf(stderr,
               "  %.3g sim-ms/sec @1 shard, %.3g @2, %.3g @4 (%llu requests, "
               "%llu migrations)\n",
               shard1.sim_ms_per_sec, shard2.sim_ms_per_sec, shard4.sim_ms_per_sec,
               static_cast<unsigned long long>(shard4.requests),
               static_cast<unsigned long long>(shard4.migrations));

  std::fprintf(stderr, "fig18 cell (canneal x 3 configs, jobs=%d)...\n", opt.jobs);
  CellResult cell = RunFig18Cell(opt.jobs);
  std::fprintf(stderr, "  %d runs in %.1f ms\n", cell.runs, cell.wall_ms);

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": 1,\n";
  json << "  \"event_churn\": {\"events\": " << churn.events << ", \"wall_ns\": " << churn.wall_ns
       << ", \"events_per_sec\": " << JsonNumber(churn.events_per_sec) << "},\n";
  json << "  \"runqueue_churn\": {\"ops\": " << rq_cfs.ops << ", \"wall_ns\": " << rq_cfs.wall_ns
       << ", \"ops_per_sec\": " << JsonNumber(rq_cfs.ops_per_sec) << "},\n";
  json << "  \"runqueue_churn_eevdf\": {\"ops\": " << rq_eevdf.ops
       << ", \"wall_ns\": " << rq_eevdf.wall_ns
       << ", \"ops_per_sec\": " << JsonNumber(rq_eevdf.ops_per_sec) << "},\n";
  json << "  \"timer_churn\": {\"fires\": " << timer.fires << ", \"wall_ns\": " << timer.wall_ns
       << ", \"ops_per_sec\": " << JsonNumber(timer.ops_per_sec)
       << ", \"heap_wall_ns\": " << timer.heap_wall_ns
       << ", \"heap_ops_per_sec\": " << JsonNumber(timer.heap_ops_per_sec)
       << ", \"speedup\": " << JsonNumber(timer.speedup) << "},\n";
  json << "  \"idle_tick\": {\"sim_ms\": " << JsonNumber(idle.sim_ms)
       << ", \"wall_ns\": " << idle.wall_ns
       << ", \"sim_ms_per_sec\": " << JsonNumber(idle.sim_ms_per_sec)
       << ", \"wall_ns_ticking\": " << idle.wall_ns_ticking
       << ", \"sim_ms_per_sec_ticking\": " << JsonNumber(idle.sim_ms_per_sec_ticking)
       << ", \"ticks_avoided\": " << idle.ticks_avoided
       << ", \"speedup\": " << JsonNumber(idle.speedup) << "},\n";
  json << "  \"fleet_small\": {\"sim_ms\": " << JsonNumber(shard1.sim_ms)
       << ", \"wall_ns\": " << shard1.wall_ns
       << ", \"sim_ms_per_sec\": " << JsonNumber(shard1.sim_ms_per_sec)
       << ", \"requests\": " << shard1.requests << ", \"migrations\": " << shard1.migrations
       << ", \"vms_placed\": " << shard1.vms_placed << "},\n";
  json << "  \"fleet_small_sharded\": {\"sim_ms\": " << JsonNumber(shard4.sim_ms)
       << ", \"shards\": 4, \"wall_ns\": " << shard4.wall_ns
       << ", \"sim_ms_per_sec\": " << JsonNumber(shard4.sim_ms_per_sec)
       << ", \"requests\": " << shard4.requests << ", \"migrations\": " << shard4.migrations
       << ", \"vms_placed\": " << shard4.vms_placed << "},\n";
  json << "  \"fleet_shard_scaling\": {\"sim_ms_per_sec_s1\": " << JsonNumber(shard1.sim_ms_per_sec)
       << ", \"sim_ms_per_sec_s2\": " << JsonNumber(shard2.sim_ms_per_sec)
       << ", \"sim_ms_per_sec_s4\": " << JsonNumber(shard4.sim_ms_per_sec) << "},\n";
  json << "  \"fig18_cell\": {\"runs\": " << cell.runs << ", \"jobs\": " << opt.jobs
       << ", \"wall_ns\": " << cell.wall_ns << ", \"wall_ms\": " << JsonNumber(cell.wall_ms)
       << ", \"cells_per_sec\": "
       << JsonNumber(cell.wall_ns > 0 ? 1e9 / static_cast<double>(cell.wall_ns) : 0)
       << "}\n";
  json << "}\n";

  if (opt.out.empty()) {
    std::fputs(json.str().c_str(), stdout);
  } else {
    std::ofstream out(opt.out, std::ios::out | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench_perf_core: cannot open %s\n", opt.out.c_str());
      return 1;
    }
    out << json.str();
  }

  if (!opt.baseline.empty()) {
    return CompareBaseline(opt.baseline, opt.max_regress, churn, rq_cfs, timer, idle, shard1,
                           shard4, cell);
  }
  return 0;
}
