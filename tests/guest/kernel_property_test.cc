// Property tests on guest-kernel invariants under randomized workload soups:
// work conservation, runqueue membership consistency, vruntime monotonicity,
// ban enforcement, candidate-mask consistency under audit, and fair sharing
// across task/vCPU ratios.
#include <gtest/gtest.h>

#include "src/base/audit.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TopologySpec FlatSpec(int cores) {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = cores;
  spec.threads_per_core = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// Random workload soup: invariants hold at every sampled instant.
// ---------------------------------------------------------------------------

class WorkloadSoup : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkloadSoup, KernelInvariantsHold) {
  Simulation sim(GetParam());
  HostMachine machine(&sim, FlatSpec(6));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 6));
  GuestKernel& kernel = vm.kernel();
  Rng rng = sim.ForkRng();

  // A co-tenant on half the threads to exercise activity transitions.
  std::vector<std::unique_ptr<Stressor>> stressors;
  for (int c = 0; c < 3; ++c) {
    stressors.push_back(std::make_unique<Stressor>(&sim, "s"));
    stressors.back()->Start(&machine, c);
  }

  std::vector<std::unique_ptr<TaskBehavior>> behaviors;
  std::vector<Task*> tasks;
  for (int i = 0; i < 12; ++i) {
    double kind = rng.NextDouble();
    if (kind < 0.4) {
      behaviors.push_back(std::make_unique<HogBehavior>(
          WorkAtCapacity(kCapacityScale, static_cast<TimeNs>(rng.Uniform(0.2, 3) * kNsPerMs))));
    } else if (kind < 0.8) {
      behaviors.push_back(std::make_unique<PeriodicBehavior>(
          WorkAtCapacity(kCapacityScale, static_cast<TimeNs>(rng.Uniform(0.1, 2) * kNsPerMs)),
          static_cast<TimeNs>(rng.Uniform(0.5, 4) * kNsPerMs)));
    } else {
      behaviors.push_back(std::make_unique<HogBehavior>(
          WorkAtCapacity(kCapacityScale, UsToNs(300))));
    }
    TaskPolicy policy = rng.Bernoulli(0.25) ? TaskPolicy::kIdle : TaskPolicy::kNormal;
    Task* t = kernel.CreateTask("t" + std::to_string(i), policy, behaviors.back().get());
    kernel.StartTask(t);
    tasks.push_back(t);
  }

  std::vector<double> last_vruntime(tasks.size(), 0);
  for (int step = 0; step < 40; ++step) {
    sim.RunFor(MsToNs(25));
    // (1) Each task is in a consistent place: running on exactly the vCPU it
    // claims, or queued exactly once, never both.
    for (Task* t : tasks) {
      int queued_on = -1;
      int queued_count = 0;
      int running_on = -1;
      for (int c = 0; c < kernel.num_vcpus(); ++c) {
        if (kernel.vcpu(c).rq().Contains(t)) {
          queued_on = c;
          ++queued_count;
        }
        if (kernel.vcpu(c).current() == t) {
          running_on = c;
        }
      }
      EXPECT_LE(queued_count, 1) << t->name();
      switch (t->state()) {
        case TaskState::kRunning:
          EXPECT_EQ(running_on, t->cpu()) << t->name();
          EXPECT_EQ(queued_count, 0) << t->name();
          break;
        case TaskState::kRunnable:
          EXPECT_EQ(queued_on, t->cpu()) << t->name();
          EXPECT_EQ(running_on, -1) << t->name();
          break;
        default:
          EXPECT_EQ(queued_count, 0) << t->name();
          EXPECT_EQ(running_on, -1) << t->name();
          break;
      }
    }
    // (2) vruntime is monotone per task.
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_GE(tasks[i]->vruntime(), last_vruntime[i]) << tasks[i]->name();
      last_vruntime[i] = tasks[i]->vruntime();
    }
  }

  // (3) Work conservation: time attributed to tasks equals vCPU busy time.
  TimeNs task_total = 0;
  for (const auto& t : kernel.tasks()) {
    task_total += t->total_exec_ns();
  }
  TimeNs vcpu_total = 0;
  for (int c = 0; c < kernel.num_vcpus(); ++c) {
    vcpu_total += kernel.vcpu(c).busy_ns();
  }
  EXPECT_EQ(task_total, vcpu_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSoup, ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Ban enforcement holds continuously while bans are active.
// ---------------------------------------------------------------------------

class BanEnforcement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BanEnforcement, BannedVcpusNeverRunIneligibleTasks) {
  Simulation sim(GetParam());
  HostMachine machine(&sim, FlatSpec(6));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 6));
  GuestKernel& kernel = vm.kernel();
  std::vector<std::unique_ptr<HogBehavior>> behaviors;
  for (int i = 0; i < 8; ++i) {
    behaviors.push_back(std::make_unique<HogBehavior>(WorkAtCapacity(kCapacityScale, UsToNs(700))));
    Task* t = kernel.CreateTask("hog" + std::to_string(i),
                                i % 3 == 0 ? TaskPolicy::kIdle : TaskPolicy::kNormal,
                                behaviors.back().get());
    kernel.StartTask(t);
  }
  sim.RunFor(MsToNs(50));
  kernel.SetBans(/*straggler=*/CpuMask::Single(4), /*stack=*/CpuMask::Single(5));
  sim.RunFor(MsToNs(20));  // Allow evacuation to finish.
  int violations = 0;
  kernel.AddTickHook([&](GuestVcpu* v, TimeNs) {
    Task* curr = v->current();
    if (curr == nullptr) {
      return;
    }
    if (v->index() == 5 && !curr->exempt_all_bans()) {
      ++violations;
    }
    if (v->index() == 4 && curr->policy() == TaskPolicy::kNormal &&
        !curr->exempt_straggler_ban() && !curr->exempt_all_bans()) {
      ++violations;
    }
  });
  sim.RunFor(SecToNs(1));
  EXPECT_EQ(violations, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BanEnforcement, ::testing::Values(7, 17, 27));

// ---------------------------------------------------------------------------
// Candidate masks under audited churn: with auditing on, the kernel
// re-derives its four candidate masks from the vCPUs after every update, so
// any runqueue or current-task change that bypassed an update is reported.
// ---------------------------------------------------------------------------

// audit::ViolationCount() tallies every report; this handler only keeps
// the test running instead of aborting at the first one.
void ContinueAfterViolation(const char*, int, const char*, const char*) {}

class AuditedChurn : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AuditedChurn, CandidateMasksTrackEveryChange) {
  audit::ScopedEnable audit_on;
  audit::ScopedHandler keep_going(&ContinueAfterViolation);
  const uint64_t violations_before = audit::ViolationCount();

  Simulation sim(GetParam());
  HostMachine machine(&sim, FlatSpec(6));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 6));
  GuestKernel& kernel = vm.kernel();
  Rng rng = sim.ForkRng();
  std::vector<std::unique_ptr<Stressor>> stressors;
  for (int c = 0; c < 2; ++c) {
    stressors.push_back(std::make_unique<Stressor>(&sim, "s"));
    stressors.back()->Start(&machine, c);
  }

  // Normal and SCHED_IDLE tasks; a third of them re-pin themselves to a
  // random vCPU set at every burst end (sched_setaffinity from the task).
  std::vector<std::unique_ptr<TaskBehavior>> behaviors;
  std::vector<Task*> tasks;
  for (int i = 0; i < 14; ++i) {
    Work work =
        WorkAtCapacity(kCapacityScale, static_cast<TimeNs>(rng.Uniform(0.1, 1.5) * kNsPerMs));
    if (i % 3 == 0) {
      behaviors.push_back(std::make_unique<LambdaBehavior>(
          [work, &rng](TaskContext& ctx, RunReason reason) {
            if (reason == RunReason::kBurstComplete) {
              ctx.task->set_allowed(CpuMask(static_cast<uint64_t>(rng.UniformInt(1, 63))));
            }
            return rng.Bernoulli(0.3) ? TaskAction::Sleep(UsToNs(400)) : TaskAction::Run(work);
          }));
    } else if (i % 3 == 1) {
      behaviors.push_back(std::make_unique<PeriodicBehavior>(
          work, static_cast<TimeNs>(rng.Uniform(0.2, 2) * kNsPerMs)));
    } else {
      behaviors.push_back(std::make_unique<HogBehavior>(work));
    }
    TaskPolicy policy = i % 4 == 3 ? TaskPolicy::kIdle : TaskPolicy::kNormal;
    tasks.push_back(kernel.CreateTask("t" + std::to_string(i), policy, behaviors.back().get()));
    kernel.StartTask(tasks.back());
  }

  for (int step = 0; step < 40; ++step) {
    sim.RunFor(MsToNs(10));
    switch (step % 4) {
      case 0:  // Straggler and stack bans: evacuation migrates queued and running tasks.
        kernel.SetBans(CpuMask(static_cast<uint64_t>(rng.UniformInt(0, 63))) & CpuMask::FirstN(6),
                       CpuMask::Single(static_cast<int>(rng.UniformInt(0, 5))));
        break;
      case 1:  // Lift the bans.
        kernel.SetBans(CpuMask::None(), CpuMask::None());
        break;
      case 2:  // Asymmetric capacities switch on the misfit and capacity-greedy paths.
        for (int c = 0; c < kernel.num_vcpus(); ++c) {
          kernel.SetCapacityOverride(c, rng.Uniform(200, 1024));
        }
        break;
      default:  // Explicit queued-task migrations.
        for (Task* t : tasks) {
          if (t->state() == TaskState::kRunnable) {
            kernel.MigrateQueuedTask(t, static_cast<int>(rng.UniformInt(0, 5)));
          }
        }
        kernel.ClearCapacityOverrides();
        break;
    }
    kernel.AuditVerify();
  }

  EXPECT_GT(kernel.counters().migrations.value(), 0u);
  EXPECT_GT(kernel.counters().active_migrations.value(), 0u);
  EXPECT_EQ(audit::ViolationCount(), violations_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditedChurn, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Fair sharing across task/vCPU ratios: N hogs on M vCPUs each get ~M/N.
// ---------------------------------------------------------------------------

struct ShareCase {
  int tasks;
  int vcpus;
};

class FairShare : public ::testing::TestWithParam<ShareCase> {};

TEST_P(FairShare, HogsSplitCapacityEvenly) {
  ShareCase c = GetParam();
  Simulation sim(9);
  HostMachine machine(&sim, FlatSpec(c.vcpus));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", c.vcpus));
  std::vector<std::unique_ptr<HogBehavior>> behaviors;
  std::vector<Task*> tasks;
  for (int i = 0; i < c.tasks; ++i) {
    behaviors.push_back(std::make_unique<HogBehavior>());
    Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, behaviors.back().get());
    vm.kernel().StartTask(t);
    tasks.push_back(t);
  }
  sim.RunFor(SecToNs(3));
  double expected = std::min(1.0, static_cast<double>(c.vcpus) / c.tasks);
  for (Task* t : tasks) {
    double share = static_cast<double>(t->total_exec_ns()) / static_cast<double>(sim.now());
    EXPECT_NEAR(share, expected, 0.15 * expected + 0.02)
        << c.tasks << " tasks on " << c.vcpus << " vCPUs";
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, FairShare,
                         ::testing::Values(ShareCase{2, 4}, ShareCase{4, 4}, ShareCase{8, 4},
                                           ShareCase{6, 3}, ShareCase{12, 4}, ShareCase{3, 8}));

// ---------------------------------------------------------------------------
// PELT tracks duty cycles across a parameter sweep inside the live kernel.
// ---------------------------------------------------------------------------

class PeltDuty : public ::testing::TestWithParam<double> {};

TEST_P(PeltDuty, UtilConvergesToDuty) {
  double duty = GetParam();
  Simulation sim(3);
  HostMachine machine(&sim, FlatSpec(2));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 2));
  TimeNs run = static_cast<TimeNs>(duty * 8 * kNsPerMs);
  TimeNs sleep = MsToNs(8) - run;
  PeriodicBehavior b(WorkAtCapacity(kCapacityScale, run), sleep);
  Task* t = vm.kernel().CreateTask("p", TaskPolicy::kNormal, &b, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim.RunFor(SecToNs(2));
  EXPECT_NEAR(t->UtilAt(sim.now()) / kCapacityScale, duty, 0.12) << "duty " << duty;
}

INSTANTIATE_TEST_SUITE_P(Duties, PeltDuty, ::testing::Values(0.125, 0.25, 0.5, 0.75));

}  // namespace
}  // namespace vsched
