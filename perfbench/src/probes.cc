#include "perfbench/src/probes.h"

#include <memory>
#include <vector>

#include "src/guest/runqueue.h"
#include "src/guest/task.h"
#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/runner/run_context.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"
#include "src/workloads/catalog.h"
#include "src/workloads/latency_app.h"

namespace perfbench {

using vsched::MsToNs;
using vsched::TimeNs;
using vsched::UsToNs;

namespace {

// Pre-drawn random values, so the timed loops spend no time in the RNG.
std::vector<int64_t> DrawInts(uint64_t seed, size_t n, int64_t lo, int64_t hi) {
  vsched::Rng rng(seed);
  std::vector<int64_t> out(n);
  for (int64_t& v : out) {
    v = rng.UniformInt(lo, hi);
  }
  return out;
}

ProbeResult Rate(int64_t elapsed_ns, double ops) {
  return ProbeResult{static_cast<double>(elapsed_ns) / ops, ops};
}

}  // namespace

ProbeResult ProbeEventQueue(uint64_t seed, Tracer* tracer, int parent) {
  constexpr int kDepth = 1024;
  constexpr int kIters = 1'000'000;
  const std::vector<int64_t> delays = DrawInts(seed, 4096, UsToNs(1), MsToNs(1));
  SpanScope span(tracer, "probe.event_queue", "sim", parent, "isolation");
  vsched::EventQueue queue;
  uint64_t fired = 0;
  auto fn = [&fired] { ++fired; };
  for (int i = 0; i < kDepth; ++i) {
    queue.ScheduleAfter(delays[static_cast<size_t>(i) % delays.size()], fn);
  }
  int64_t start = NowNs();
  for (int i = 0; i < kIters; ++i) {
    queue.RunOne();
    queue.ScheduleAfter(delays[static_cast<size_t>(i) & 4095], fn);
  }
  int64_t elapsed = NowNs() - start;
  // One ScheduleAfter per iteration, plus every dispatch the loop made.
  return Rate(elapsed, static_cast<double>(kIters) + static_cast<double>(fired));
}

ProbeResult ProbeTimerWheel(uint64_t seed, Tracer* tracer, int parent) {
  constexpr int kTimers = 512;
  constexpr int kPairProbeTimers = 8;  // a few 10 us pollers, like PairProbe
  constexpr uint64_t kFires = 2'000'000;
  const TimeNs kPeriods[] = {UsToNs(250), MsToNs(1), MsToNs(4), MsToNs(20)};
  const std::vector<int64_t> phase = DrawInts(seed, kTimers, 1, MsToNs(20));
  SpanScope span(tracer, "probe.timer_wheel", "sim", parent, "isolation");
  vsched::TimerWheel wheel;
  std::vector<vsched::TimerId> ids(kTimers);
  std::vector<TimeNs> period(kTimers);
  std::vector<TimeNs> next(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    size_t k = static_cast<size_t>(i);
    period[k] = i < kPairProbeTimers ? UsToNs(10) : kPeriods[k % 4];
    next[k] = phase[k] % period[k] + 1;
    // Captures are by pointer to vectors that outlive the wheel's use.
    ids[k] = wheel.Register(vsched::EventCallback([&wheel, &ids, &period, &next, k] {
      next[k] += period[k];
      wheel.Arm(ids[k], next[k]);
    }));
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    wheel.Arm(ids[k], next[k]);
  }
  int64_t start = NowNs();
  for (uint64_t i = 0; i < kFires; ++i) {
    wheel.RunOne(wheel.NextDeadlineAtMost(vsched::kTimeInfinity));
  }
  int64_t elapsed = NowNs() - start;
  return Rate(elapsed, static_cast<double>(kFires));
}

ProbeResult ProbeRunqueue(uint64_t seed, Tracer* tracer, int parent) {
  constexpr int kDepth = 16;
  constexpr int kCycles = 500'000;
  const std::vector<int64_t> advance = DrawInts(seed, 4096, UsToNs(100), MsToNs(3));
  SpanScope span(tracer, "probe.runqueue", "guest", parent, "isolation");
  int64_t elapsed = 0;
  double ops = 0;
  for (bool eevdf : {false, true}) {
    vsched::Runqueue rq;
    rq.SetEevdf(eevdf);
    std::vector<std::unique_ptr<vsched::Task>> tasks;
    for (int i = 0; i < kDepth; ++i) {
      tasks.push_back(std::make_unique<vsched::Task>(static_cast<uint64_t>(i + 1), "t",
                                                     vsched::TaskPolicy::kNormal, nullptr,
                                                     vsched::CpuMask(~0ULL)));
      double vr = static_cast<double>(advance[static_cast<size_t>(i)]);
      vsched::TaskAccess::SetVruntime(tasks.back().get(), vr);
      vsched::TaskAccess::SetVdeadline(tasks.back().get(), vr + 3e6);
      rq.Enqueue(tasks.back().get());
    }
    int64_t start = NowNs();
    for (int i = 0; i < kCycles; ++i) {
      vsched::Task* t = rq.Pick();
      rq.Dequeue(t);
      double vr = t->vruntime() + static_cast<double>(advance[static_cast<size_t>(i) & 4095]);
      vsched::TaskAccess::SetVruntime(t, vr);
      vsched::TaskAccess::SetVdeadline(t, vr + 3e6);
      rq.Enqueue(t);
    }
    elapsed += NowNs() - start;
    ops += 3.0 * kCycles;
    while (!rq.empty()) {
      rq.Dequeue(rq.Pick());
    }
  }
  return Rate(elapsed, ops);
}

ProbeResult ProbeIdleVm(uint64_t seed, Tracer* tracer, int parent) {
  constexpr int kVcpus = 32;
  constexpr int64_t kSimMs = 2000;
  SpanScope span(tracer, "probe.idle_vm", "guest", parent, "isolation");
  vsched::RunContext ctx =
      vsched::MakeRun(vsched::FlatHost(kVcpus), vsched::MakeSimpleVmSpec("vm", kVcpus),
                      vsched::VSchedOptions::Cfs(), seed);
  vsched::LatencyApp app(&ctx.kernel(), vsched::LatencyParamsFor("img-dnn", 2, 0.02));
  app.Start();
  ctx.sim->RunFor(MsToNs(100));
  int64_t start = NowNs();
  ctx.sim->RunFor(MsToNs(kSimMs));
  int64_t elapsed = NowNs() - start;
  app.Stop();
  return Rate(elapsed, static_cast<double>(kSimMs));
}

ProbeResult ProbeHostStressors(uint64_t seed, Tracer* tracer, int parent) {
  constexpr int kThreads = 32;
  constexpr int64_t kSimMs = 500;
  SpanScope span(tracer, "probe.host_stressors", "host", parent, "isolation");
  int64_t elapsed = 0;
  double sim_ms = 0;
  for (int64_t gran_ms : {2, 4, 8, 16}) {
    vsched::Simulation sim(seed + static_cast<uint64_t>(gran_ms));
    vsched::HostSchedParams params;
    params.min_granularity = MsToNs(gran_ms);
    params.wakeup_granularity = MsToNs(gran_ms);
    vsched::HostMachine machine(&sim, vsched::FlatHost(kThreads), params);
    std::vector<std::unique_ptr<vsched::Stressor>> stressors;
    for (int tid = 0; tid < kThreads; ++tid) {
      for (int k = 0; k < 2; ++k) {
        stressors.push_back(std::make_unique<vsched::Stressor>(&sim, "stress"));
        stressors.back()->Start(&machine, tid);
      }
    }
    int64_t start = NowNs();
    sim.RunFor(MsToNs(kSimMs));
    elapsed += NowNs() - start;
    sim_ms += static_cast<double>(kSimMs);
  }
  return Rate(elapsed, sim_ms);
}

}  // namespace perfbench
