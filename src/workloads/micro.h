// Micro-workloads: Hackbench (messaging storm), Fio (I/O-bound), and the
// self-migrating CPU-bound program from the Figure 3 motivating experiment.
// Sysbench and Matmul are TaskParallelApp instances (see catalog.cc).
#ifndef SRC_WORKLOADS_MICRO_H_
#define SRC_WORKLOADS_MICRO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/guest/cpumask.h"
#include "src/guest/task.h"
#include "src/sim/rng.h"
#include "src/workloads/workload.h"

namespace vsched {

class GuestKernel;
class Simulation;

// ---------------------------------------------------------------------------
// Hackbench: G groups of S senders and S receivers exchanging messages.
// Stresses wakeups and cross-vCPU communication (IPIs, Fig 13).
// ---------------------------------------------------------------------------

struct HackbenchParams {
  std::string name = "hackbench";
  int groups = 2;
  int pairs_per_group = 4;  // senders == receivers per group
  TimeNs send_work = UsToNs(60);
  TimeNs recv_work = UsToNs(10);
  int comm_lines = 250;
  CpuMask allowed = CpuMask(~0ULL);
};

class Hackbench : public Workload {
 public:
  Hackbench(GuestKernel* kernel, HackbenchParams params);

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

 private:
  class SenderBehavior;
  class ReceiverBehavior;

  GuestKernel* kernel_;
  Simulation* sim_;
  HackbenchParams params_;
  Rng rng_;
  bool running_ = false;

  std::vector<std::unique_ptr<TaskBehavior>> behaviors_;
  std::vector<std::vector<Task*>> group_receivers_;
  std::vector<std::vector<int>> group_inbox_;  // per group: sender cpus of queued msgs
  std::vector<std::vector<int>> group_idle_;   // per group: idle receiver flat indices
  std::vector<Task*> receivers_flat_;
  std::vector<Task*> senders_;
  uint64_t messages_done_ = 0;
  TimeNs measure_start_ = 0;
};

// ---------------------------------------------------------------------------
// Fio: I/O-bound threads — a tiny CPU burst per operation, then an I/O wait.
// ---------------------------------------------------------------------------

struct FioParams {
  std::string name = "fio";
  int threads = 4;
  TimeNs cpu_per_op = UsToNs(30);
  TimeNs io_latency_mean = UsToNs(400);
  CpuMask allowed = CpuMask(~0ULL);
};

class Fio : public Workload {
 public:
  Fio(GuestKernel* kernel, FioParams params);

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

 private:
  class OpBehavior;

  GuestKernel* kernel_;
  Simulation* sim_;
  FioParams params_;
  Rng rng_;
  bool running_ = false;
  std::vector<std::unique_ptr<TaskBehavior>> behaviors_;
  std::vector<Task*> tasks_;
  uint64_t ops_done_ = 0;
  TimeNs measure_start_ = 0;
};

// ---------------------------------------------------------------------------
// SelfMigratingTask: the Fig 3 synthetic single-threaded CPU-bound program.
// In migration mode it re-pins itself to the next vCPU every `hop_period`.
// ---------------------------------------------------------------------------

struct SelfMigratingParams {
  std::string name = "selfmig";
  bool migrate = false;     // default mode vs migration mode
  TimeNs hop_period = MsToNs(4);
  CpuMask allowed = CpuMask(~0ULL);
};

class SelfMigratingTask : public Workload {
 public:
  SelfMigratingTask(GuestKernel* kernel, SelfMigratingParams params);

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

  Task* task() const { return task_; }

 private:
  class Behavior;

  GuestKernel* kernel_;
  Simulation* sim_;
  SelfMigratingParams params_;
  bool running_ = false;
  std::unique_ptr<TaskBehavior> behavior_;
  Task* task_ = nullptr;
  TimeNs exec_at_reset_ = 0;
  TimeNs measure_start_ = 0;
};

}  // namespace vsched

#endif  // SRC_WORKLOADS_MICRO_H_
