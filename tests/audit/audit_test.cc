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
#include "src/host/cpu_sched.h"
#include "src/host/host_entity.h"
#include "src/host/machine.h"
#include "src/probe/pair_probe.h"
#include "src/probe/vact.h"
#include "src/probe/vcap.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {

// Deliberate-corruption backdoor; EventQueue and Runqueue declare this
// struct a friend precisely so these tests can break invariants that the
// public API makes unreachable.
struct AuditTestAccess {
  // ---- EventQueue backdoors: timers and one-shot events share the heap ----

  // Swaps the heap root with the last entry, repairing both back-pointers
  // so that *only* the ordering invariant is violated.
  static void BreakHeapOrder(EventQueue& q) {
    ASSERT_GE(q.heap_.size(), 2u);
    std::swap(q.heap_.front(), q.heap_.back());
    q.pos_[EventQueue::Cell(q.heap_.front().key)] = 0;
    q.pos_[EventQueue::Cell(q.heap_.back().key)] = static_cast<uint32_t>(q.heap_.size() - 1);
  }

  // Points the root entry's back-pointer past it.
  static void BreakBackPointer(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty());
    q.pos_[EventQueue::Cell(q.heap_.front().key)] += 7;
  }

  // Pushes the root event's slot onto the free list: the slot is now both
  // pending and recyclable — the double-use bug generation tags exist to
  // prevent.
  static void CorruptFreeList(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty());
    ASSERT_GE(q.heap_.front().key, EventQueue::kEventKind) << "the root is not an event";
    q.free_.push_back(static_cast<uint32_t>(q.heap_.front().key & EventQueue::kSlotMask));
  }

  // Drops the heap's last entry without clearing its back-pointer: the
  // entry still reads as pending but can never fire.
  static void LoseEntry(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty()) << "no entry to lose";
    q.heap_.pop_back();
  }

  // Moves the clock past the root entry (monotone dispatch violation).
  static void MoveClockPastRoot(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty()) << "no entry to pass";
    q.now_ = q.heap_.front().when + 1;
  }

  // Relabels `victim`'s heap entry with `other`'s id: the entry names the
  // wrong timer, and `victim`'s back-pointer no longer finds its entry.
  static void RelabelTimer(EventQueue& q, TimerId victim, TimerId other) {
    ASSERT_TRUE(q.IsArmed(victim));
    q.heap_[q.pos_[2 * size_t{victim}]].key = other;
  }

  static void SkewLoad(Runqueue& rq, double delta) { rq.load_ += delta; }

  static void BreakSortOrder(Runqueue& rq) {
    ASSERT_GE(rq.normal_.size(), 2u);
    std::swap(rq.normal_.front(), rq.normal_.back());
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
  EXPECT_TRUE(AnyViolationContains("back-pointer disagrees"));
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
  // later, with one-shot events among them, so every sift path moves both
  // kinds; audited after every step.
  EventQueue w;
  std::vector<TimerId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(w.Register([] {}));
    w.Arm(ids.back(), ((i * 13) % 32 + 1) * UsToNs(700));
    w.ScheduleAt(((i * 7) % 32 + 1) * UsToNs(700), [] {});
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
  while (w.RunOne()) {
    w.AuditVerify();
  }
  EXPECT_EQ(w.ArmedCount(), 0u);
  EXPECT_EQ(w.PendingCount(), 0u);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, WheelBackPointerCorruptionIsCaught) {
  EventQueue w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakBackPointer(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("back-pointer disagrees"));
  EXPECT_TRUE(AnyViolationContains("back-pointer names no entry"));
}

TEST_F(AuditTest, WheelLostTimerIsCaught) {
  EventQueue w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::LoseEntry(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("armed count out of sync"));
  EXPECT_TRUE(AnyViolationContains("back-pointer names no entry"));
}

TEST_F(AuditTest, WheelMonotoneDispatchViolationIsCaught) {
  EventQueue w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::MoveClockPastRoot(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("precedes now()"));
}

TEST_F(AuditTest, TimerHeapOrderCorruptionIsCaught) {
  EventQueue w;
  w.Arm(w.Register([] {}), MsToNs(2));
  w.Arm(w.Register([] {}), MsToNs(2) + 100);
  ASSERT_EQ(w.NextEventTime(), MsToNs(2));
  AuditTestAccess::BreakHeapOrder(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("orders before its parent"));
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
  AuditTestAccess::RelabelTimer(sim.queue(), far, near);
  // No direct AuditVerify call: the run loop's dispatch hook must fire on
  // the next near-timer dispatch.
  sim.RunFor(MsToNs(2));
  EXPECT_GT(near_fires, 1);
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("back-pointer names no entry"));
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

// Wakes `wakee` when scheduled in, as a vCPU thread does when its guest
// pulls a task onto a sibling vCPU whose thread shares its hardware thread.
class WakeOnScheduleIn : public HostEntity {
 public:
  explicit WakeOnScheduleIn(HostEntity* wakee) : HostEntity("waker"), wakee_(wakee) {}

 protected:
  void ScheduledIn(TimeNs now) override {
    (void)now;
    wakee_->SetWantsToRun(true);
  }

 private:
  HostEntity* wakee_;
};

// Detaching the running entity schedules its successor in before Detach
// returns; the successor's wake of a third entity audits the attached set,
// which must no longer hold the entity being detached (a fleet tenant
// teardown reshaping a running vCPU thread hit exactly this).
TEST_F(AuditTest, WakeFromDetachSuccessorSeesACleanAttachedSet) {
  Simulation sim(3);
  TopologySpec topo;
  topo.cores_per_socket = 1;
  topo.threads_per_core = 1;
  HostMachine machine(&sim, topo);
  HostEntity leaving("leaving");
  HostEntity sleeper("sleeper");
  WakeOnScheduleIn waker(&sleeper);
  machine.Attach(&leaving, 0);
  machine.Attach(&waker, 0);
  machine.Attach(&sleeper, 0);
  leaving.SetWantsToRun(true);
  waker.SetWantsToRun(true);
  ASSERT_TRUE(leaving.running());
  ASSERT_FALSE(sleeper.wants_to_run());

  machine.sched(0).Detach(&leaving);
  EXPECT_TRUE(waker.running());
  EXPECT_TRUE(sleeper.wants_to_run());
  EXPECT_EQ(machine.sched(0).attached_count(), 2u);
  EXPECT_EQ(audit::ViolationCount(), 0u) << (Violations().empty() ? "" : Violations().front());
  machine.sched(0).Detach(&waker);
  machine.sched(0).Detach(&sleeper);
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
