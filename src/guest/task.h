// Guest task model.
//
// A task alternates between run bursts (measured in work units), sleeps, and
// event waits, as directed by its TaskBehavior — the workload's logic. The
// guest kernel owns placement, runqueues, fairness, and migration; behaviors
// only decide what the task does next.
#ifndef SRC_GUEST_TASK_H_
#define SRC_GUEST_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/guest/cpumask.h"
#include "src/guest/pelt.h"

namespace vsched {

class GuestKernel;
class GuestVcpu;
class Simulation;
class Task;

// SCHED_NORMAL vs SCHED_IDLE (best-effort harvesting tasks, §2.3).
enum class TaskPolicy {
  kNormal,
  kIdle,
};

// CFS nice-to-weight table (kernel/sched/core.c sched_prio_to_weight).
// nice 0 → 1024; each step is ~1.25x.
double NiceToWeight(int nice);

enum class TaskState {
  kNew,       // created, not yet started
  kRunnable,  // on a runqueue
  kRunning,   // current on some vCPU
  kSleeping,  // timed sleep or event wait
  kFinished,
};

// What a task does next, returned by its behavior.
struct TaskAction {
  enum class Kind { kRun, kSleep, kWaitEvent, kExit };

  static TaskAction Run(Work work) { return {Kind::kRun, work, 0}; }
  static TaskAction Sleep(TimeNs dur) { return {Kind::kSleep, 0, dur}; }
  static TaskAction WaitEvent() { return {Kind::kWaitEvent, 0, 0}; }
  static TaskAction Exit() { return {Kind::kExit, 0, 0}; }

  Kind kind;
  Work work;
  TimeNs sleep_dur;
};

// Why the behavior is being asked for the next action.
enum class RunReason {
  kStarted,       // task's first action
  kBurstComplete, // previous run burst finished
  kSleepExpired,  // timed sleep ended
  kEventWake,     // another task/application woke it
};

struct TaskContext {
  Simulation* sim;
  GuestKernel* kernel;
  Task* task;
};

class TaskBehavior {
 public:
  virtual ~TaskBehavior() = default;
  virtual TaskAction Next(TaskContext& ctx, RunReason reason) = 0;
};

class Task {
 public:
  Task(uint64_t id, std::string name, TaskPolicy policy, TaskBehavior* behavior, CpuMask allowed);

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  TaskPolicy policy() const { return policy_; }
  TaskState state() const { return state_; }
  TaskBehavior* behavior() const { return behavior_; }

  // Scheduler weight: SCHED_IDLE gets the kernel's minimal weight (3);
  // normal tasks use the CFS nice-to-weight table.
  double weight() const { return policy_ == TaskPolicy::kIdle ? 3.0 : NiceToWeight(nice_); }

  // Nice level in [-20, 19]; affects the CFS weight of normal tasks.
  int nice() const { return nice_; }
  void set_nice(int nice);

  // Affinity the workload requested (cgroup bans are applied on top).
  CpuMask allowed() const { return allowed_; }
  void set_allowed(CpuMask mask) { allowed_ = mask; }

  // PELT utilization estimate in [0, kCapacityScale].
  double util() const { return pelt_.util(); }

  // Utilization decayed to `now` (read-only; sleeping/waiting counts as
  // inactive, running counts as active).
  double UtilAt(TimeNs now) const {
    return pelt_.UtilAt(now, state_ == TaskState::kRunning);
  }

  // CFS virtual runtime (read-only; the kernel maintains it).
  double vruntime() const { return vruntime_; }

  // EEVDF virtual deadline (maintained when the kernel runs in EEVDF mode).
  double vdeadline() const { return vdeadline_; }

  // vCPU currently hosting the task (running or queued), else last one.
  int cpu() const { return cpu_; }

  // Total time actually executed (vCPU active), i.e. excluding steal.
  TimeNs total_exec_ns() const { return total_exec_ns_; }

  // Execution time attributed to a given vCPU (Fig 11a's distribution).
  TimeNs exec_on(int cpu) const {
    return cpu < static_cast<int>(exec_per_cpu_.size()) ? exec_per_cpu_[cpu] : 0;
  }

  // Runqueue delay of the most recent dispatch (Table 3's "queue time").
  TimeNs last_queue_delay() const { return last_queue_delay_; }

  // Cumulative runqueue waiting time (workloads diff this around a request
  // to obtain the Table 3 queue-time breakdown).
  TimeNs queue_wait_total_ns() const { return queue_wait_total_ns_; }

  // How long the task has been running in its current stint (for ivh's
  // minimum-runtime threshold). Valid while kRunning.
  TimeNs stint_start() const { return stint_start_; }

  // Number of cross-runqueue migrations this task experienced.
  uint64_t migrations() const { return migrations_; }

  // Probe exemptions used by rwc (§3.4): vcap's light prober may still run on
  // straggler vCPUs; vtop's probers may run anywhere.
  bool exempt_straggler_ban() const { return exempt_straggler_ban_; }
  bool exempt_all_bans() const { return exempt_all_bans_; }
  void set_exempt_straggler_ban(bool v) { exempt_straggler_ban_ = v; }
  void set_exempt_all_bans(bool v) { exempt_all_bans_ = v; }

 private:
  friend class GuestKernel;
  friend class GuestVcpu;
  friend struct TaskAccess;

  const uint64_t id_;
  const std::string name_;
  const TaskPolicy policy_;
  TaskBehavior* const behavior_;
  CpuMask allowed_;

  TaskState state_ = TaskState::kNew;
  int nice_ = 0;
  int cpu_ = -1;
  int prev_cpu_ = -1;
  double vruntime_ = 0;
  double vdeadline_ = 0;
  PeltSignal pelt_;

  Work burst_remaining_ = 0;
  TimeNs enqueue_time_ = 0;
  TimeNs last_queue_delay_ = 0;
  TimeNs queue_wait_total_ns_ = 0;
  TimeNs stint_start_ = 0;
  TimeNs total_exec_ns_ = 0;
  std::vector<TimeNs> exec_per_cpu_;
  uint64_t migrations_ = 0;
  TimeNs last_migration_time_ = -1;

  bool exempt_straggler_ban_ = false;
  bool exempt_all_bans_ = false;

  // Pending timed-wake event id lives in the kernel.
  uint64_t sleep_token_ = 0;
};

// White-box access for tests and microbenches that drive runqueue orderings
// directly; the kernel owns these fields in real simulations.
struct TaskAccess {
  static void SetVruntime(Task* task, double v) { task->vruntime_ = v; }
  static void SetVdeadline(Task* task, double v) { task->vdeadline_ = v; }
};

}  // namespace vsched

#endif  // SRC_GUEST_TASK_H_
