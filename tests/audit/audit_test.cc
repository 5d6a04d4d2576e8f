// Tests for the VSCHED_AUDIT runtime invariant auditor (src/base/audit.h).
//
// Strategy: install a recording violation handler (so the test binary
// survives), deliberately corrupt an EventQueue / Runqueue through the
// AuditTestAccess friend backdoor, and assert the audit layer notices — both
// when AuditVerify is called directly and when it fires from the real
// mutation hooks. Clean structures must stay violation-free, and a disabled
// auditor must never report.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/base/audit.h"
#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/core/config.h"
#include "src/guest/guest_kernel.h"
#include "src/guest/runqueue.h"
#include "src/guest/task.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/probe/pair_probe.h"
#include "src/probe/vact.h"
#include "src/probe/vcap.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {

// Deliberate-corruption backdoor; EventQueue and Runqueue declare this
// struct a friend precisely so these tests can break invariants that the
// public API makes unreachable.
struct AuditTestAccess {
  // Swaps the heap root with the last slot, repairing the heap_pos
  // back-pointers so that *only* the ordering invariant is violated.
  static void BreakHeapOrder(EventQueue& q) {
    ASSERT_GE(q.heap_.size(), 2u);
    size_t last = q.heap_.size() - 1;
    std::swap(q.heap_[0], q.heap_[last]);
    q.NodeAt(q.heap_[0].node).heap_pos = 0;
    q.NodeAt(q.heap_[last].node).heap_pos = static_cast<int32_t>(last);
  }

  static void BreakBackPointer(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty());
    q.NodeAt(q.heap_[0].node).heap_pos = 1 << 20;
  }

  // Pushes a live node onto the free list: the slot is now both pending and
  // recyclable — the double-use bug generation tags exist to prevent.
  static void CorruptFreeList(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty());
    q.free_.push_back(q.heap_[0].node);
  }

  static void SkewLoad(Runqueue& rq, double delta) { rq.load_ += delta; }

  static void BreakSortOrder(Runqueue& rq) {
    ASSERT_GE(rq.normal_.size(), 2u);
    std::swap(rq.normal_.front(), rq.normal_.back());
  }

  // ---- TimerWheel backdoors ----

  // Points an armed timer's position entry past its heap node.
  static void BreakWheelBackPointer(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.pos_[w.heap_.front().id] += 7;
  }

  // Drops a heap node without clearing its timer's position entry: the
  // timer still reads as armed but can never fire.
  static void LoseWheelTimer(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.heap_.pop_back();
  }

  // Pretends dispatch already passed an armed timer's deadline (monotone
  // dispatch violation).
  static void BreakWheelMonotoneDispatch(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.fired_any_ = true;
    w.last_fire_when_ = w.heap_.front().deadline + 1;
  }

  // Swaps the root with the last node, repairing both position entries so
  // that only the heap order is violated (requires >= 2 armed timers).
  static void BreakWheelHeapOrder(TimerWheel& w) {
    ASSERT_GE(w.heap_.size(), 2u);
    std::swap(w.heap_.front(), w.heap_.back());
    w.pos_[w.heap_.front().id] = 0;
    w.pos_[w.heap_.back().id] = static_cast<uint32_t>(w.heap_.size() - 1);
  }

  // Relabels `victim`'s heap node with `other`'s id: the node names the
  // wrong timer, and `victim`'s position entry no longer finds its node.
  static void RelabelWheelNode(TimerWheel& w, TimerId victim, TimerId other) {
    ASSERT_TRUE(w.IsArmed(victim));
    w.heap_[w.pos_[victim]].id = other;
  }

  // ---- PairProbe backdoor ----

  // Flips the probe's cached run flag for prober A: the stale state a
  // run-change site that stopped notifying would leave behind.
  static void FlipCachedRun(PairProbe& p) { p.a_running_ = !p.a_running_; }

  // ---- GuestKernel backdoor ----

  // Flips one vCPU's bit in the idle candidate mask: the stale state an
  // update site that stopped re-deriving the masks would leave behind.
  static void FlipIdleBit(GuestKernel& k, int cpu) { k.idle_.Assign(cpu, !k.idle_.Test(cpu)); }

  // Flips the cached asymmetric-capacity flag: the stale state an override
  // writer that skipped the recompute would leave behind.
  static void FlipAsymCapacityFlag(GuestKernel& k) {
    k.asym_capacity_known_ = !k.asym_capacity_known_;
  }

  // ---- Vcap / Vact backdoors ----

  // Feed one estimate a sample without dropping the median memo: the stale
  // median a writer outside EndWindow / OnWindowEnd would leave behind.
  static void AddCapacityBehindMemo(Vcap& v, int cpu, double sample) {
    v.capacity_ema_[static_cast<size_t>(cpu)].Add(sample);
  }
  static void AddLatencyBehindMemo(Vact& v, int cpu, double sample) {
    v.latency_ema_[static_cast<size_t>(cpu)].Add(sample);
  }

  // ---- ShardedFleet backdoor ----

  // The coordinator's books for one host, writable.
  static ClusterHost& FleetHost(ShardedFleet& fleet, int host_id) {
    return *fleet.MutableHost(host_id);
  }
};

namespace {

std::vector<std::string>& Violations() {
  static std::vector<std::string> v;
  return v;
}

void RecordViolation(const char* file, int line, const char* invariant, const char* detail) {
  (void)file;
  (void)line;
  Violations().push_back(detail != nullptr ? detail : invariant);
}

bool AnyViolationContains(const std::string& needle) {
  return std::any_of(Violations().begin(), Violations().end(), [&](const std::string& v) {
    return v.find(needle) != std::string::npos;
  });
}

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Violations().clear();
    audit::ResetViolationCount();
  }
  void TearDown() override { Violations().clear(); }

  audit::ScopedEnable enable_;
  audit::ScopedHandler handler_{&RecordViolation};

  // Runqueue task factory (tasks must outlive the queue operations).
  Task* Make(uint64_t id, double vruntime) {
    tasks_.push_back(std::make_unique<Task>(id, "t" + std::to_string(id), TaskPolicy::kNormal,
                                            &behavior_, CpuMask::FirstN(1)));
    TaskAccess::SetVruntime(tasks_.back().get(), vruntime);
    return tasks_.back().get();
  }

  HogBehavior behavior_;
  std::vector<std::unique_ptr<Task>> tasks_;
};

TEST_F(AuditTest, CleanEventQueueChurnReportsNothing) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(q.ScheduleAt(i * 10, [] {}));
  }
  for (int i = 0; i < 50; i += 3) {
    q.Cancel(ids[static_cast<size_t>(i)]);
  }
  while (q.RunOne()) {
  }
  q.AuditVerify();
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, HeapOrderCorruptionIsCaught) {
  EventQueue q;
  for (int i = 1; i <= 8; ++i) {
    q.ScheduleAt(i * 100, [] {});
  }
  AuditTestAccess::BreakHeapOrder(q);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("orders before its parent"));
}

TEST_F(AuditTest, HeapCorruptionFiresFromTheMutationHook) {
  EventQueue q;
  for (int i = 1; i <= 8; ++i) {
    q.ScheduleAt(i * 100, [] {});
  }
  AuditTestAccess::BreakHeapOrder(q);
  ASSERT_EQ(audit::ViolationCount(), 0u);
  // No direct AuditVerify call: the next mutation's built-in hook must fire.
  q.ScheduleAt(900, [] {});
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("orders before its parent"));
}

TEST_F(AuditTest, StaleBackPointerIsCaught) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.ScheduleAt(200, [] {});
  AuditTestAccess::BreakBackPointer(q);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("heap_pos disagrees"));
}

TEST_F(AuditTest, LiveNodeOnFreeListIsCaught) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  AuditTestAccess::CorruptFreeList(q);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("also live on the heap"));
}

TEST_F(AuditTest, CleanRunqueueChurnReportsNothing) {
  Runqueue rq;
  Task* a = Make(1, 10.0);
  Task* b = Make(2, 20.0);
  Task* c = Make(3, 5.0);
  rq.Enqueue(a);
  rq.Enqueue(b);
  rq.Enqueue(c);
  EXPECT_EQ(rq.Pick(), c);
  rq.Dequeue(b);
  rq.Dequeue(c);
  rq.Dequeue(a);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, RunqueueLoadDriftIsCaught) {
  Runqueue rq;
  rq.Enqueue(Make(1, 10.0));
  rq.Enqueue(Make(2, 20.0));
  AuditTestAccess::SkewLoad(rq, 1.0);
  rq.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("load diverged"));
}

TEST_F(AuditTest, RunqueueSortCorruptionFiresFromThePickHook) {
  Runqueue rq;
  rq.Enqueue(Make(1, 10.0));
  rq.Enqueue(Make(2, 20.0));
  rq.Enqueue(Make(3, 30.0));
  AuditTestAccess::BreakSortOrder(rq);
  ASSERT_EQ(audit::ViolationCount(), 0u);
  rq.Pick();  // the hook inside Pick must notice
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("out of (vruntime, id) order"));
}

TEST_F(AuditTest, CleanTimerWheelChurnReportsNothing) {
  // Deadlines armed out of order, cancels, and re-arms both earlier and
  // later, so every sift path moves nodes; audited after every step.
  TimerWheel w;
  std::vector<TimerId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(w.Register([] {}));
    w.Arm(ids.back(), ((i * 13) % 32 + 1) * UsToNs(700));
    w.AuditVerify();
  }
  for (int i = 0; i < 32; i += 3) {
    w.Cancel(ids[static_cast<size_t>(i)]);
    w.AuditVerify();
  }
  for (int i = 1; i < 32; i += 4) {
    w.Arm(ids[static_cast<size_t>(i)], i % 8 == 1 ? UsToNs(100 + i) : MsToNs(50) + i);
    w.AuditVerify();
  }
  for (;;) {
    TimeNs next = w.NextDeadlineAtMost(MsToNs(100));
    if (next == kTimeInfinity) {
      break;
    }
    w.RunOne(next);
    w.AuditVerify();
  }
  EXPECT_EQ(w.ArmedCount(), 0u);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, WheelBackPointerCorruptionIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakWheelBackPointer(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("position entry disagrees"));
  EXPECT_TRUE(AnyViolationContains("armed timer missing from the heap"));
}

TEST_F(AuditTest, WheelLostTimerIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::LoseWheelTimer(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("armed count out of sync"));
  EXPECT_TRUE(AnyViolationContains("armed timer missing from the heap"));
}

TEST_F(AuditTest, WheelMonotoneDispatchViolationIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakWheelMonotoneDispatch(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("precedes the last dispatch"));
}

// The name predates the heap, which now holds every armed timer.
TEST_F(AuditTest, WheelReadyOrderCorruptionIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(2));
  w.Arm(w.Register([] {}), MsToNs(2) + 100);
  ASSERT_EQ(w.NextDeadlineAtMost(MsToNs(3)), MsToNs(2));
  AuditTestAccess::BreakWheelHeapOrder(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("heap order violated"));
}

TEST_F(AuditTest, WheelCorruptionFiresFromTheRunLoopHook) {
  Simulation sim(/*seed=*/7);
  int near_fires = 0;
  // Periodic timers as production arms them: one registered slot, re-armed
  // from its own callback.
  TimerId near = kInvalidTimerId;
  near = sim.CreateTimer([&] {
    ++near_fires;
    sim.ArmTimerAfter(near, MsToNs(1));
  });
  sim.ArmTimerAfter(near, MsToNs(1));
  TimerId far = kInvalidTimerId;
  far = sim.CreateTimer([&] { sim.ArmTimerAfter(far, MsToNs(200)); });
  sim.ArmTimerAfter(far, MsToNs(200));
  sim.RunFor(MsToNs(1));
  ASSERT_EQ(audit::ViolationCount(), 0u);
  AuditTestAccess::RelabelWheelNode(sim.wheel(), far, near);
  // No direct AuditVerify call: the run loop's post-dispatch hook must fire
  // on the next near-timer dispatch.
  sim.RunFor(MsToNs(2));
  EXPECT_GT(near_fires, 1);
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("armed timer missing from the heap"));
}

TEST_F(AuditTest, SimulationClockStaysMonotone) {
  Simulation sim(/*seed=*/42);
  int fired = 0;
  sim.After(MsToNs(1), [&] { ++fired; });
  TimerId periodic = kInvalidTimerId;
  periodic = sim.CreateTimer([&] {
    ++fired;
    sim.ArmTimerAfter(periodic, MsToNs(2));
  });
  sim.ArmTimerAfter(periodic, MsToNs(2));
  sim.RunUntil(MsToNs(10));
  sim.RunFor(MsToNs(5));
  EXPECT_GT(fired, 0);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, DisabledAuditorNeverReports) {
  audit::SetEnabled(false);
  EventQueue q;
  for (int i = 1; i <= 4; ++i) {
    q.ScheduleAt(i * 100, [] {});
  }
  AuditTestAccess::BreakHeapOrder(q);
  q.ScheduleAt(900, [] {});  // hook is a no-op while disabled
  q.AuditVerify();           // explicit calls also gate every check
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, ViolationCountAccumulatesAcrossReports) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.ScheduleAt(200, [] {});
  AuditTestAccess::BreakBackPointer(q);
  q.AuditVerify();
  uint64_t first = audit::ViolationCount();
  EXPECT_GT(first, 0u);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), first);
}

TEST_F(AuditTest, StalePairProbeRunStateIsCaught) {
  Simulation sim(7);
  TopologySpec topo;
  topo.sockets = 2;
  topo.cores_per_socket = 2;
  HostMachine machine(&sim, topo);
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[1].tid = 4;  // cross-socket: the probe needs several co-active samples
  Vm vm(&sim, &machine, spec);
  PairProbe probe(&vm.kernel(), 0, 1, PairProbeConfig{}, [](const PairProbeResult&) {});
  probe.Start();
  sim.RunFor(UsToNs(25));  // two clean timer-driven samples
  ASSERT_FALSE(probe.done());
  ASSERT_EQ(audit::ViolationCount(), 0u);
  AuditTestAccess::FlipCachedRun(probe);
  sim.RunFor(UsToNs(10));  // the next timer-driven sample must notice
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("cached prober run state"));
}

TEST_F(AuditTest, StaleCandidateMaskIsCaught) {
  Simulation sim(11);
  TopologySpec topo;
  topo.sockets = 1;
  topo.cores_per_socket = 4;
  HostMachine machine(&sim, topo);
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 4));
  GuestKernel& kernel = vm.kernel();
  PeriodicBehavior periodic(WorkAtCapacity(kCapacityScale, UsToNs(200)), UsToNs(300));
  kernel.StartTask(kernel.CreateTask("p", TaskPolicy::kNormal, &periodic, CpuMask::Single(0)));
  sim.RunFor(MsToNs(5));
  kernel.AuditVerify();
  ASSERT_EQ(audit::ViolationCount(), 0u);

  AuditTestAccess::FlipIdleBit(kernel, 3);  // vCPU 3 never runs anything
  kernel.AuditVerify();
  const uint64_t direct = audit::ViolationCount();
  EXPECT_GT(direct, 0u);
  EXPECT_TRUE(AnyViolationContains("idle mask disagrees with the vCPUs"));
  // Every mask update re-verifies all four masks: the periodic task's next
  // switch on vCPU 0 notices the bit of vCPU 3.
  sim.RunFor(MsToNs(1));
  EXPECT_GT(audit::ViolationCount(), direct);
}

TEST_F(AuditTest, StaleAsymCapacityFlagIsCaught) {
  Simulation sim(14);
  TopologySpec topo;
  topo.sockets = 1;
  topo.cores_per_socket = 4;
  HostMachine machine(&sim, topo);
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 4));
  GuestKernel& kernel = vm.kernel();
  kernel.SetCapacityOverride(0, 0.3 * kCapacityScale);
  kernel.SetCapacityOverride(1, kCapacityScale);
  EXPECT_TRUE(kernel.AsymCapacityKnown());
  kernel.ClearCapacityOverrides();
  EXPECT_FALSE(kernel.AsymCapacityKnown());
  ASSERT_EQ(audit::ViolationCount(), 0u);

  AuditTestAccess::FlipAsymCapacityFlag(kernel);
  kernel.AsymCapacityKnown();
  const uint64_t direct = audit::ViolationCount();
  EXPECT_GT(direct, 0u);
  EXPECT_TRUE(AnyViolationContains("asymmetric-capacity flag is stale"));
  // MisfitCheck reads the flag on every active tick.
  PeriodicBehavior periodic(WorkAtCapacity(kCapacityScale, UsToNs(200)), UsToNs(300));
  kernel.StartTask(kernel.CreateTask("p", TaskPolicy::kNormal, &periodic, CpuMask::Single(0)));
  sim.RunFor(MsToNs(5));
  EXPECT_GT(audit::ViolationCount(), direct);
}

TEST_F(AuditTest, StaleMedianCapacityIsCaught) {
  Simulation sim(12);
  HostMachine machine(&sim, TopologySpec{});
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim.RunFor(MsToNs(150));  // one window: the estimate exists
  ASSERT_TRUE(vcap.has_results());
  const double median = vcap.MedianCapacity();
  EXPECT_EQ(vcap.MedianCapacity(), median);
  ASSERT_EQ(audit::ViolationCount(), 0u);

  // With one vCPU the median is its estimate, so any new sample moves it.
  AuditTestAccess::AddCapacityBehindMemo(vcap, 0, 0.0);
  vcap.MedianCapacity();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("vcap median capacity memo is stale"));
}

TEST_F(AuditTest, StaleMedianLatencyIsCaught) {
  Simulation sim(13);
  HostMachine machine(&sim, TopologySpec{});
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  Vact vact(&vm.kernel());
  vact.Start();
  sim.RunFor(MsToNs(1100));  // one window: the estimate exists
  ASSERT_TRUE(vact.has_results());
  const double median = vact.MedianLatency();
  EXPECT_EQ(vact.MedianLatency(), median);
  ASSERT_EQ(audit::ViolationCount(), 0u);

  AuditTestAccess::AddLatencyBehindMemo(vact, 0, 1e6);
  vact.MedianLatency();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("vact median latency memo is stale"));
  vact.Stop();
}

FleetSpec TinyFleet() {
  FleetSpec spec;
  EXPECT_TRUE(LookupFleetSpec("tiny", &spec));
  return spec;
}

TEST_F(AuditTest, CleanFleetBarriersReportNothing) {
  // Crowded, so arrivals queue and control ticks place tenants too.
  FleetSpec spec = TinyFleet();
  spec.vms = 40;
  spec.arrival_window = MsToNs(600);
  ShardedFleet fleet(spec, /*seed=*/0x5AA3D, VSchedOptions::Cfs(), /*shards=*/2);
  fleet.Run(MsToNs(1000));
  EXPECT_GT(fleet.totals().vms_departed, 0);
  EXPECT_GT(fleet.totals().migrations, 0u);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

// A host whose committed_vcpus drifts from the sum of its per-thread
// commits. A RunUntil deadline 1 ns later is a barrier with nothing planned
// before it, so its audit is the first thing to see the skew.
TEST_F(AuditTest, FleetCommitSkewIsCaughtAtTheNextBarrier) {
  ShardedFleet fleet(TinyFleet(), /*seed=*/7, VSchedOptions::Cfs(), /*shards=*/1);
  fleet.RunUntil(MsToNs(50));
  ASSERT_EQ(audit::ViolationCount(), 0u);
  ClusterHost& host = AuditTestAccess::FleetHost(fleet, 0);
  host.committed_vcpus += 1;
  fleet.RunUntil(MsToNs(50) + 1);
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("committed_vcpus disagrees with its thread commits"));
  host.committed_vcpus -= 1;  // teardown releases commits against honest books
}

// A thread that lost the commit behind one of its occupants: the commit
// moves to another thread, so the host total still agrees and only the
// per-thread bound can notice.
TEST_F(AuditTest, FleetOccupantWithoutCommitIsCaughtAtTheNextBarrier) {
  ShardedFleet fleet(TinyFleet(), /*seed=*/7, VSchedOptions::Cfs(), /*shards=*/1);
  fleet.RunUntil(MsToNs(50));
  ASSERT_EQ(audit::ViolationCount(), 0u);
  ClusterHost& host = AuditTestAccess::FleetHost(fleet, 0);
  // A thread whose every commit is occupied (an in-flight migration's
  // destination holds commits ahead of its occupants).
  size_t busy = 0;
  while (busy < host.occupants.size() &&
         (host.occupants[busy].empty() ||
          static_cast<int>(host.occupants[busy].size()) != host.thread_commits[busy])) {
    ++busy;
  }
  ASSERT_LT(busy, host.occupants.size()) << "host 0 has no fully occupied thread at 50 ms";
  size_t other = (busy + 1) % host.thread_commits.size();
  host.thread_commits[busy] -= 1;
  host.thread_commits[other] += 1;
  fleet.RunUntil(MsToNs(50) + 1);
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("more occupants than commits"));
  host.thread_commits[busy] += 1;
  host.thread_commits[other] -= 1;
}

}  // namespace
}  // namespace vsched
