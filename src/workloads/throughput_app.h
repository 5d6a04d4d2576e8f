// Throughput-oriented application models: barrier-synchronized data
// parallelism (most Parsec/Splash-2x analogues), pipeline parallelism
// (dedup, ferret, pbzip2, x264), and independent task parallelism
// (blackscholes, swaptions, raytrace).
//
// Communication cost is modelled explicitly: synchronizing or handing an
// item to another thread charges the receiver extra work proportional to
// the cache-line transfer latency between the two vCPUs' current hardware
// threads (the Fig 13 LLC effect).
#ifndef SRC_WORKLOADS_THROUGHPUT_APP_H_
#define SRC_WORKLOADS_THROUGHPUT_APP_H_

#include <deque>
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
// BarrierApp: iterations of (chunk, barrier) across T threads.
// ---------------------------------------------------------------------------

struct BarrierAppParams {
  std::string name = "barrier-app";
  int threads = 4;
  // Mean exclusive execution per thread per iteration, and its imbalance.
  TimeNs chunk_mean = MsToNs(1);
  double chunk_cv = 0.2;
  // Cache lines exchanged with the barrier master at each barrier.
  int comm_lines = 0;
  // Stop after this many iterations (0 → run until Stop()).
  int max_iterations = 0;
  CpuMask allowed = CpuMask(~0ULL);
  TaskPolicy policy = TaskPolicy::kNormal;
};

class BarrierApp : public Workload {
 public:
  BarrierApp(GuestKernel* kernel, BarrierAppParams params);
  ~BarrierApp() override;

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

  int iterations_done() const { return iterations_done_; }
  bool finished() const { return finished_; }
  TimeNs finish_time() const { return finish_time_; }

 private:
  class ThreadBehavior;

  GuestKernel* kernel_;
  Simulation* sim_;
  BarrierAppParams params_;
  Rng rng_;
  bool running_ = false;
  bool finished_ = false;

  std::vector<std::unique_ptr<ThreadBehavior>> behaviors_;
  std::vector<Task*> tasks_;
  int arrived_ = 0;
  int iterations_done_ = 0;
  int iterations_at_reset_ = 0;
  TimeNs measure_start_ = 0;
  TimeNs finish_time_ = 0;
};

// ---------------------------------------------------------------------------
// PipelineApp: stages with queues; items flow source → ... → sink.
// ---------------------------------------------------------------------------

struct PipelineStageParams {
  int workers = 1;
  TimeNs work_mean = MsToNs(1);
  double work_cv = 0.2;
};

struct PipelineAppParams {
  std::string name = "pipeline-app";
  std::vector<PipelineStageParams> stages;
  // Items in flight at once (closed loop): the source injects a new item
  // whenever one leaves the pipeline, keeping `window` outstanding.
  int window = 8;
  // Cache lines handed over between stages.
  int comm_lines = 16;
  int max_items = 0;  // 0 → run until Stop()
  CpuMask allowed = CpuMask(~0ULL);
  TaskPolicy policy = TaskPolicy::kNormal;
};

class PipelineApp : public Workload {
 public:
  PipelineApp(GuestKernel* kernel, PipelineAppParams params);
  ~PipelineApp() override;

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

 private:
  class StageWorkerBehavior;
  struct Item {
    int from_cpu = -1;  // vCPU of the producing stage worker
  };

  void Inject();
  void Deliver(int stage, Item item);

  GuestKernel* kernel_;
  Simulation* sim_;
  PipelineAppParams params_;
  Rng rng_;
  bool running_ = false;

  std::vector<std::unique_ptr<StageWorkerBehavior>> behaviors_;
  // Per stage: worker tasks, idle worker list, input queue.
  std::vector<std::vector<Task*>> stage_tasks_;
  std::vector<Task*> all_tasks_;  // indexed by global behavior index
  std::vector<std::vector<int>> stage_idle_;  // global behavior indices
  std::vector<std::deque<Item>> stage_queue_;

  uint64_t items_done_ = 0;
  uint64_t injected_ = 0;
  TimeNs measure_start_ = 0;
};

// ---------------------------------------------------------------------------
// TaskParallelApp: independent chunks from a shared pool, no sync.
// ---------------------------------------------------------------------------

struct TaskParallelParams {
  std::string name = "taskparallel-app";
  int threads = 4;
  TimeNs chunk_mean = MsToNs(5);
  double chunk_cv = 0.3;
  int max_chunks = 0;  // 0 → unbounded until Stop()
  CpuMask allowed = CpuMask(~0ULL);
  TaskPolicy policy = TaskPolicy::kNormal;
};

class TaskParallelApp : public Workload {
 public:
  TaskParallelApp(GuestKernel* kernel, TaskParallelParams params);
  ~TaskParallelApp() override;

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

  uint64_t chunks_done() const { return chunks_done_; }
  const std::vector<Task*>& tasks() const { return tasks_; }

 private:
  class ThreadBehavior;

  GuestKernel* kernel_;
  Simulation* sim_;
  TaskParallelParams params_;
  Rng rng_;
  bool running_ = false;

  std::vector<std::unique_ptr<ThreadBehavior>> behaviors_;
  std::vector<Task*> tasks_;
  uint64_t chunks_done_ = 0;
  uint64_t chunks_issued_ = 0;
  TimeNs measure_start_ = 0;
};

}  // namespace vsched

#endif  // SRC_WORKLOADS_THROUGHPUT_APP_H_
