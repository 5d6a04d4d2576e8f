// Direct PairProbe behaviour: measurement noise bounds, interference from
// user workloads, lifecycle, and the never-co-run ⇒ stacked rule; and a
// differential check of PairProbe's computed sampling against a polling
// reference.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/probe/pair_probe.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TopologySpec TwoSocket() {
  TopologySpec spec;
  spec.sockets = 2;
  spec.cores_per_socket = 2;
  spec.threads_per_core = 2;
  return spec;
}

PairProbeResult ProbeOnce(Vm& vm, Simulation& sim, int a, int b, PairProbeConfig config = {}) {
  PairProbeResult result;
  bool done = false;
  PairProbe probe(&vm.kernel(), a, b, config, [&](const PairProbeResult& r) {
    result = r;
    done = true;
  });
  probe.Start();
  sim.RunFor(SecToNs(20));
  EXPECT_TRUE(done);
  return result;
}

TEST(PairProbeTest, NoiseStaysWithinConfiguredBound) {
  Simulation sim(71);
  HostMachine machine(&sim, TwoSocket());
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[1].tid = 2;  // same socket, other core → 48 ns class
  Vm vm(&sim, &machine, spec);
  PairProbeConfig config;
  config.noise = 0.08;
  PairProbeResult r = ProbeOnce(vm, sim, 0, 1, config);
  EXPECT_GE(r.latency_ns, 48.0 * (1.0 - config.noise) - 0.5);
  EXPECT_LE(r.latency_ns, 48.0 * (1.0 + config.noise) + 0.5);
}

TEST(PairProbeTest, SucceedsDespiteBusyWorkload) {
  Simulation sim(72);
  HostMachine machine(&sim, TwoSocket());
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[1].tid = 4;  // cross socket
  Vm vm(&sim, &machine, spec);
  // CPU hogs on both vCPUs: the probers time-share with them.
  HogBehavior h0;
  HogBehavior h1;
  Task* t0 = vm.kernel().CreateTask("h0", TaskPolicy::kNormal, &h0, CpuMask::Single(0));
  Task* t1 = vm.kernel().CreateTask("h1", TaskPolicy::kNormal, &h1, CpuMask::Single(1));
  vm.kernel().StartTask(t0);
  vm.kernel().StartTask(t1);
  sim.RunFor(MsToNs(20));
  PairProbeResult r = ProbeOnce(vm, sim, 0, 1);
  EXPECT_FALSE(std::isinf(r.latency_ns));
  EXPECT_GT(r.latency_ns, 85.0);
}

TEST(PairProbeTest, StackedNeedsExhaustedExtensions) {
  Simulation sim(73);
  HostMachine machine(&sim, TwoSocket());
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[1].tid = 0;  // stacked
  Vm vm(&sim, &machine, spec);
  PairProbeResult r = ProbeOnce(vm, sim, 0, 1);
  EXPECT_TRUE(std::isinf(r.latency_ns));
  EXPECT_EQ(r.extensions, PairProbeConfig{}.max_extensions);
  EXPECT_EQ(r.transfers, 0.0);
}

TEST(PairProbeTest, AnyTransferDisprovesStacking) {
  // Two vCPUs at very low duty (tiny overlap): the probe must classify them
  // by the rare transfers it does see, not call them stacked.
  Simulation sim(74);
  HostMachine machine(&sim, TwoSocket());
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].tid = 0;
  spec.vcpus[1].tid = 2;
  spec.vcpus[0].bw_quota = MsToNs(1);
  spec.vcpus[0].bw_period = MsToNs(12);
  spec.vcpus[1].bw_quota = MsToNs(1);
  spec.vcpus[1].bw_period = MsToNs(14);  // different periods → drifting phases
  Vm vm(&sim, &machine, spec);
  PairProbeResult r = ProbeOnce(vm, sim, 0, 1);
  EXPECT_FALSE(std::isinf(r.latency_ns)) << "low-duty pair misread as stacked";
}

TEST(PairProbeTest, DurationReflectsWaitingForCoActivity) {
  Simulation sim(75);
  HostMachine machine(&sim, TwoSocket());
  // Dedicated pair: near-instant. Shaped pair: must wait for overlap.
  VmSpec spec = MakeSimpleVmSpec("vm", 4);
  spec.vcpus[1].tid = 2;
  spec.vcpus[2].tid = 4;
  spec.vcpus[3].tid = 6;
  spec.vcpus[2].bw_quota = MsToNs(2);
  spec.vcpus[2].bw_period = MsToNs(10);
  spec.vcpus[3].bw_quota = MsToNs(2);
  spec.vcpus[3].bw_period = MsToNs(10);
  Vm vm(&sim, &machine, spec);
  // Busy workloads drain the shaped vCPUs' quotas so the probe must wait
  // for genuinely overlapping active windows.
  HogBehavior h2;
  HogBehavior h3;
  Task* t2 = vm.kernel().CreateTask("h2", TaskPolicy::kNormal, &h2, CpuMask::Single(2));
  Task* t3 = vm.kernel().CreateTask("h3", TaskPolicy::kNormal, &h3, CpuMask::Single(3));
  vm.kernel().StartTask(t2);
  vm.kernel().StartTask(t3);
  sim.RunFor(MsToNs(50));
  PairProbeResult fast = ProbeOnce(vm, sim, 0, 1);
  PairProbeResult slow = ProbeOnce(vm, sim, 2, 3);
  EXPECT_LT(fast.duration, MsToNs(1));
  EXPECT_GT(slow.duration, fast.duration * 3);
}

TEST(PairProbeTest, CanDestroyOnlyAfterSpinnersExit) {
  Simulation sim(76);
  HostMachine machine(&sim, TwoSocket());
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[1].tid = 2;
  Vm vm(&sim, &machine, spec);
  bool done = false;
  PairProbe probe(&vm.kernel(), 0, 1, PairProbeConfig{}, [&](const PairProbeResult&) {
    done = true;
  });
  probe.Start();
  EXPECT_FALSE(probe.CanDestroy());
  sim.RunFor(SecToNs(1));
  ASSERT_TRUE(done);
  EXPECT_TRUE(probe.CanDestroy());
}

// ---------------------------------------------------------------------------
// Differential tests: PairProbe against the polling probe it replaced.
// ---------------------------------------------------------------------------

// Reference copy of the polling pair probe: a wheel timer re-armed every
// sample_quantum reads the probers' run state for the probe's whole life.
// PairProbe must reproduce it exactly, including every kernel-RNG jitter
// draw and fault-injector call, at the same instants and band positions.
class PollingPairProbe {
 public:
  PollingPairProbe(GuestKernel* kernel, int cpu_a, int cpu_b, PairProbeConfig config,
                   PairProbe::DoneCallback done)
      : kernel_(kernel),
        sim_(kernel->sim()),
        cpu_a_(cpu_a),
        cpu_b_(cpu_b),
        config_(config),
        done_(std::move(done)),
        spin_a_(this),
        spin_b_(this) {
    current_timeout_ = config_.timeout_attempts;
    sample_timer_ = sim_->CreateTimer([this] { Sample(); });
  }
  ~PollingPairProbe() { sim_->DestroyTimer(sample_timer_); }

  void Start() {
    started_at_ = sim_->now();
    prober_a_ = kernel_->CreateTask(
        "vtop-" + std::to_string(cpu_a_) + "-" + std::to_string(cpu_b_), TaskPolicy::kNormal,
        &spin_a_, CpuMask::Single(cpu_a_));
    prober_b_ = kernel_->CreateTask(
        "vtop-" + std::to_string(cpu_b_) + "-" + std::to_string(cpu_a_), TaskPolicy::kNormal,
        &spin_b_, CpuMask::Single(cpu_b_));
    prober_a_->set_exempt_all_bans(true);
    prober_b_->set_exempt_all_bans(true);
    kernel_->StartTask(prober_a_);
    kernel_->StartTask(prober_b_);
    kernel_->WakeTask(prober_a_);
    kernel_->WakeTask(prober_b_);
    sim_->ArmTimerAfter(sample_timer_, config_.sample_quantum);
  }

  bool done() const { return done_reported_; }

 private:
  class Spin : public TaskBehavior {
   public:
    explicit Spin(PollingPairProbe* probe) : probe_(probe) {}
    TaskAction Next(TaskContext&, RunReason reason) override {
      if (reason == RunReason::kStarted) {
        return TaskAction::WaitEvent();
      }
      if (probe_->done_reported_) {
        return TaskAction::Exit();
      }
      return TaskAction::Run(WorkAtCapacity(kCapacityScale, UsToNs(20)));
    }

   private:
    PollingPairProbe* probe_;
  };

  void Sample() {
    const GuestVcpu& va = kernel_->vcpu(cpu_a_);
    const GuestVcpu& vb = kernel_->vcpu(cpu_b_);
    bool a_running = va.active() && va.current() == prober_a_;
    bool b_running = vb.active() && vb.current() == prober_b_;
    double quantum = static_cast<double>(config_.sample_quantum);
    if (a_running && b_running) {
      double lat = kernel_->machine()->topology().CacheLatencyNs(va.thread()->tid(),
                                                                 vb.thread()->tid());
      double jitter = 1.0 + config_.noise * (kernel_->rng().NextDouble() * 2.0 - 1.0);
      double observed = lat * jitter;
      FaultInjector* injector = kernel_->fault_injector();
      bool dropped = false;
      if (injector != nullptr) {
        if (injector->DropSample(ProbePoint::kPairLatency)) {
          dropped = true;
          ++samples_dropped_;
        } else {
          observed = injector->CorruptSample(ProbePoint::kPairLatency, observed);
        }
      }
      if (!dropped) {
        ++samples_kept_;
        min_latency_seen_ = std::min(min_latency_seen_, observed);
        if (config_.robust.enabled && observations_.size() < 128) {
          observations_.push_back(observed);
        }
        transfers_ += quantum / lat;
      }
      attempts_ += quantum / static_cast<double>(config_.attempt_period);
    } else if (a_running || b_running) {
      attempts_ += quantum / static_cast<double>(config_.attempt_period);
    }
    if (transfers_ >= config_.target_transfers) {
      Finish(min_latency_seen_);
      return;
    }
    if (attempts_ >= current_timeout_) {
      if (transfers_ >= config_.min_transfers_for_latency) {
        Finish(min_latency_seen_);
        return;
      }
      if (extensions_ < config_.max_extensions) {
        ++extensions_;
        current_timeout_ *= 2;
      } else if (transfers_ >= 1.0) {
        Finish(min_latency_seen_);
        return;
      } else {
        Finish(kInfiniteLatency);
        return;
      }
    }
    sim_->ArmTimerAfter(sample_timer_, config_.sample_quantum);
  }

  void Finish(double latency) {
    done_reported_ = true;
    sim_->CancelTimer(sample_timer_);
    if (config_.robust.enabled && latency != kInfiniteLatency && !observations_.empty()) {
      std::vector<double> sorted = observations_;
      std::sort(sorted.begin(), sorted.end());
      latency = sorted[(sorted.size() - 1) / 2];
    }
    PairProbeResult result;
    result.cpu_a = cpu_a_;
    result.cpu_b = cpu_b_;
    result.latency_ns = latency;
    if (samples_dropped_ > 0) {
      result.confidence = static_cast<double>(samples_kept_) /
                          static_cast<double>(samples_kept_ + samples_dropped_);
    }
    result.transfers = transfers_;
    result.duration = sim_->now() - started_at_;
    result.extensions = extensions_;
    done_(result);
  }

  GuestKernel* kernel_;
  Simulation* sim_;
  int cpu_a_;
  int cpu_b_;
  PairProbeConfig config_;
  PairProbe::DoneCallback done_;
  Spin spin_a_;
  Spin spin_b_;
  Task* prober_a_ = nullptr;
  Task* prober_b_ = nullptr;
  TimeNs started_at_ = 0;
  double transfers_ = 0;
  double attempts_ = 0;
  double current_timeout_ = 0;
  int extensions_ = 0;
  double min_latency_seen_ = kInfiniteLatency;
  std::vector<double> observations_;
  uint64_t samples_kept_ = 0;
  uint64_t samples_dropped_ = 0;
  bool done_reported_ = false;
  TimerId sample_timer_ = kInvalidTimerId;
};

// Where a scripted run change comes from, relative to the sample timer's
// band position at its instant.
enum class SwitchSource {
  kTimerBefore,  // a wheel timer registered before the probe's
  kTimerAfter,   // a wheel timer registered after the probe's
  kHeap,         // a heap event (runs after the whole timer band)
  kBetweenRuns,  // test code between two RunUntil calls
};

// Pauses or resumes vCPU `cpu`'s host thread exactly on the sample instant
// started_at + k * sample_quantum of the probes started after warmup.
struct ScriptedSwitch {
  int k;
  int cpu;
  bool pause;
  SwitchSource source;
};

struct TwinCase {
  uint64_t seed = 81;
  std::vector<HwThreadId> tids;  // vCPU i runs on tids[i]
  std::vector<std::pair<TimeNs, TimeNs>> bandwidth;  // (quota, period) per vCPU; empty = none
  std::vector<int> hog_cpus;     // vCPUs that also run a CPU hog
  std::vector<int> churn_cpus;   // vCPUs that also run a 50 µs-on/30 µs-off task
  std::vector<std::pair<int, int>> pairs = {{0, 1}};  // probed concurrently, as in a vtop batch
  PairProbeConfig config;
  std::string fault_plan;  // empty: clean
  std::vector<ScriptedSwitch> switches;
  TimeNs warmup = MsToNs(20);
  TimeNs horizon = SecToNs(3);
};

struct TwinOutcome {
  std::vector<PairProbeResult> results;
  double next_kernel_draw = 0;
  double next_sim_draw = 0;
  std::vector<TimeNs> busy_ns;
  uint64_t faults_applied = 0;
};

template <typename Probe>
TwinOutcome RunTwin(const TwinCase& c) {
  Simulation sim(c.seed);
  HostMachine machine(&sim, TwoSocket());
  VmSpec spec = MakeSimpleVmSpec("vm", static_cast<int>(c.tids.size()));
  for (size_t i = 0; i < c.tids.size(); ++i) {
    spec.vcpus[i].tid = c.tids[i];
    if (i < c.bandwidth.size()) {
      spec.vcpus[i].bw_quota = c.bandwidth[i].first;
      spec.vcpus[i].bw_period = c.bandwidth[i].second;
    }
  }
  Vm vm(&sim, &machine, spec);
  std::unique_ptr<FaultInjector> fault;
  if (!c.fault_plan.empty()) {
    FaultPlan plan;
    EXPECT_TRUE(LookupFaultPlan(c.fault_plan, &plan));
    fault = std::make_unique<FaultInjector>(&sim, &machine, &vm, plan);
    vm.kernel().set_fault_injector(fault.get());
    fault->Start();
  }
  std::vector<std::unique_ptr<TaskBehavior>> behaviors;
  for (int cpu : c.hog_cpus) {
    behaviors.push_back(std::make_unique<HogBehavior>());
    Task* t = vm.kernel().CreateTask("hog" + std::to_string(cpu), TaskPolicy::kNormal,
                                     behaviors.back().get(), CpuMask::Single(cpu));
    vm.kernel().StartTask(t);
  }
  for (int cpu : c.churn_cpus) {
    behaviors.push_back(std::make_unique<PeriodicBehavior>(
        WorkAtCapacity(kCapacityScale, UsToNs(50)), UsToNs(30)));
    Task* t = vm.kernel().CreateTask("churn" + std::to_string(cpu), TaskPolicy::kNormal,
                                     behaviors.back().get(), CpuMask::Single(cpu));
    vm.kernel().StartTask(t);
  }
  sim.RunFor(c.warmup);

  const TimeNs t0 = sim.now();
  const TimeNs quantum = c.config.sample_quantum;
  auto apply = [&vm](const ScriptedSwitch& s) { vm.thread(s.cpu).SetPaused(s.pause); };
  std::vector<TimerId> timers;
  auto add_timers = [&](SwitchSource source) {
    for (const ScriptedSwitch& s : c.switches) {
      if (s.source == source) {
        timers.push_back(sim.CreateTimer([apply, s] { apply(s); }));
        sim.ArmTimerAt(timers.back(), t0 + s.k * quantum);
      }
    }
  };
  add_timers(SwitchSource::kTimerBefore);
  const size_t timers_before = timers.size();
  for (const ScriptedSwitch& s : c.switches) {
    if (s.source == SwitchSource::kHeap) {
      sim.At(t0 + s.k * quantum, [apply, s] { apply(s); });
    }
  }

  TwinOutcome out;
  out.results.resize(c.pairs.size());
  std::vector<std::unique_ptr<Probe>> probes;
  for (size_t i = 0; i < c.pairs.size(); ++i) {
    probes.push_back(std::make_unique<Probe>(&vm.kernel(), c.pairs[i].first, c.pairs[i].second,
                                             c.config, [&out, i](const PairProbeResult& r) {
                                               out.results[i] = r;
                                             }));
  }
  // Fresh ids are handed out in order, so the probes' sample timers sit
  // between the timers registered before and after them.
  const TimerId marker = sim.CreateTimer([] {});
  if (timers_before > 0) {
    EXPECT_EQ(marker, timers[timers_before - 1] + 1 + probes.size());
  }
  sim.DestroyTimer(marker);
  add_timers(SwitchSource::kTimerAfter);
  for (auto& probe : probes) {
    probe->Start();
  }

  std::vector<ScriptedSwitch> between;
  for (const ScriptedSwitch& s : c.switches) {
    if (s.source == SwitchSource::kBetweenRuns) {
      between.push_back(s);
    }
  }
  std::sort(between.begin(), between.end(),
            [](const ScriptedSwitch& x, const ScriptedSwitch& y) { return x.k < y.k; });
  for (const ScriptedSwitch& s : between) {
    sim.RunUntil(t0 + s.k * quantum);
    apply(s);
  }
  sim.RunUntil(t0 + c.horizon);
  for (auto& probe : probes) {
    EXPECT_TRUE(probe->done());
  }
  out.next_kernel_draw = vm.kernel().rng().NextDouble();
  out.next_sim_draw = sim.rng().NextDouble();
  for (int i = 0; i < vm.kernel().num_vcpus(); ++i) {
    out.busy_ns.push_back(vm.kernel().vcpu(i).busy_ns());
  }
  if (fault != nullptr) {
    out.faults_applied = fault->stats().total_applied();
    fault->Stop();
  }
  for (TimerId id : timers) {
    sim.DestroyTimer(id);
  }
  return out;
}

void ExpectTwinsAgree(const TwinCase& c) {
  TwinOutcome polled = RunTwin<PollingPairProbe>(c);
  TwinOutcome computed = RunTwin<PairProbe>(c);
  ASSERT_EQ(polled.results.size(), computed.results.size());
  for (size_t i = 0; i < polled.results.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    const PairProbeResult& p = polled.results[i];
    const PairProbeResult& r = computed.results[i];
    EXPECT_EQ(p.latency_ns, r.latency_ns);
    EXPECT_EQ(p.transfers, r.transfers);
    EXPECT_EQ(p.duration, r.duration);
    EXPECT_EQ(p.extensions, r.extensions);
    EXPECT_EQ(p.confidence, r.confidence);
    EXPECT_GT(p.duration, 0);
  }
  EXPECT_EQ(polled.next_kernel_draw, computed.next_kernel_draw);
  EXPECT_EQ(polled.next_sim_draw, computed.next_sim_draw);
  EXPECT_EQ(polled.busy_ns, computed.busy_ns);
  EXPECT_EQ(polled.faults_applied, computed.faults_applied);
}

// A probe long enough to see many run changes: the target is out of reach,
// so it ends on the timeout once enough transfers were seen.
PairProbeConfig LongProbe() {
  PairProbeConfig config;
  config.target_transfers = 1000000;
  return config;
}

TEST(PairProbeDifferentialTest, SmtSameSocketAndCrossSocketPairs) {
  for (HwThreadId tid_b : {1, 2, 4}) {
    SCOPED_TRACE("tid_b " + std::to_string(tid_b));
    TwinCase c;
    c.tids = {0, tid_b};
    ExpectTwinsAgree(c);
    c.config = LongProbe();
    ExpectTwinsAgree(c);
  }
}

TEST(PairProbeDifferentialTest, StackedPairUsesEveryExtension) {
  TwinCase c;
  c.tids = {0, 0};
  TwinOutcome r = RunTwin<PairProbe>(c);
  EXPECT_TRUE(std::isinf(r.results[0].latency_ns));
  EXPECT_EQ(r.results[0].extensions, PairProbeConfig{}.max_extensions);
  ExpectTwinsAgree(c);
  c.hog_cpus = {0, 1};
  ExpectTwinsAgree(c);
}

TEST(PairProbeDifferentialTest, PairsLoadedWithHogs) {
  for (HwThreadId tid_b : {1, 2, 4}) {
    SCOPED_TRACE("tid_b " + std::to_string(tid_b));
    TwinCase c;
    c.tids = {0, tid_b};
    c.hog_cpus = {0, 1};
    ExpectTwinsAgree(c);
    c.config = LongProbe();
    c.churn_cpus = {1};
    ExpectTwinsAgree(c);
  }
}

TEST(PairProbeDifferentialTest, LowDutyPairsWithDriftingPhases) {
  TwinCase c;
  c.tids = {0, 2};
  c.bandwidth = {{MsToNs(1), MsToNs(12)}, {MsToNs(1), MsToNs(14)}};
  ExpectTwinsAgree(c);
  c.hog_cpus = {0, 1};
  ExpectTwinsAgree(c);
  c.config = LongProbe();
  ExpectTwinsAgree(c);
}

TEST(PairProbeDifferentialTest, RobustMedianAndProbeChaos) {
  TwinCase c;
  c.tids = {0, 4, 2, 6};
  c.hog_cpus = {1, 2};
  c.pairs = {{0, 1}, {2, 3}};
  c.config.robust.enabled = true;
  ExpectTwinsAgree(c);
  c.fault_plan = "probe-chaos";
  ExpectTwinsAgree(c);
  c.config.robust.enabled = false;
  ExpectTwinsAgree(c);
}

TEST(PairProbeDifferentialTest, ConcurrentProbesShareTheKernelRng) {
  TwinCase c;
  c.tids = {0, 1, 2, 4, 5, 6};
  c.hog_cpus = {0, 3, 4};
  c.churn_cpus = {1, 5};
  c.pairs = {{0, 1}, {2, 3}, {4, 5}};
  c.config = LongProbe();
  ExpectTwinsAgree(c);
  c.fault_plan = "probe-chaos";
  ExpectTwinsAgree(c);
}

TEST(PairProbeDifferentialTest, RunChangesExactlyOnSampleInstants) {
  // Each source switches a prober's vCPU out and back in on sample
  // instants, in co-active and in spinning phases. A timer ordered before
  // the sample timer acts before that instant's sample; a later timer, a
  // heap event, or code between RunUntil calls acts after it.
  for (SwitchSource source : {SwitchSource::kTimerBefore, SwitchSource::kTimerAfter,
                              SwitchSource::kHeap, SwitchSource::kBetweenRuns}) {
    SCOPED_TRACE("source " + std::to_string(static_cast<int>(source)));
    TwinCase c;
    c.tids = {0, 4};
    c.config = LongProbe();
    c.switches = {{3, 0, true, source},   {6, 0, false, source},  {9, 1, true, source},
                  {10, 0, true, source},  {14, 1, false, source}, {15, 0, false, source},
                  {40, 0, true, source},  {1200, 0, false, source}};
    ExpectTwinsAgree(c);
    c.hog_cpus = {1};
    ExpectTwinsAgree(c);
  }
  // All sources at once, on the same instants.
  TwinCase c;
  c.tids = {0, 4};
  c.config = LongProbe();
  c.switches = {{5, 0, true, SwitchSource::kTimerBefore}, {5, 1, true, SwitchSource::kHeap},
                {7, 0, false, SwitchSource::kTimerAfter}, {7, 1, false, SwitchSource::kTimerBefore},
                {8, 1, true, SwitchSource::kBetweenRuns}, {8, 1, false, SwitchSource::kHeap}};
  ExpectTwinsAgree(c);
}

}  // namespace
}  // namespace vsched
