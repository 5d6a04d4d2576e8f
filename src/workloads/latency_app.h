// Open-loop latency-sensitive request/response application — the Tailbench
// and Nginx analogue.
//
// Requests arrive by a Poisson process into a dispatch queue; a pool of
// worker tasks serves them (event-wait when idle). End-to-end latency is
// arrival → completion; the Table 3 breakdown separately accounts runqueue
// waiting (queue time) and execution (service time).
#ifndef SRC_WORKLOADS_LATENCY_APP_H_
#define SRC_WORKLOADS_LATENCY_APP_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/guest/cpumask.h"
#include "src/guest/task.h"
#include "src/sim/rng.h"
#include "src/sim/timer_wheel.h"
#include "src/stats/stats.h"
#include "src/workloads/workload.h"

namespace vsched {

class GuestKernel;
class Simulation;

struct LatencyAppParams {
  std::string name = "latency-app";
  int workers = 4;
  double arrival_rate_per_sec = 100.0;
  // Per-request service demand: exclusive full-capacity execution time.
  TimeNs service_mean = UsToNs(500);
  double service_cv = 0.3;
  CpuMask allowed = CpuMask(~0ULL);
  // Report live throughput into a TimeSeries every `report_interval` (0 →
  // no live series). Used by the Nginx experiments (Fig 16/17).
  TimeNs report_interval = 0;
  // Connection model: consecutive requests of a connection carry state; a
  // worker serving a request pays a cache-transfer penalty from the vCPU
  // that served the connection's previous request (0 connections → off).
  int connections = 0;
  int comm_lines = 0;
  // Closed-loop client: `connections` outstanding requests, each re-issued
  // immediately upon completion (wrk-style). Throughput then reflects
  // latency, as in the live-throughput experiments (Fig 16/17).
  bool closed_loop = false;
};

class LatencyApp : public Workload {
 public:
  LatencyApp(GuestKernel* kernel, LatencyAppParams params);
  ~LatencyApp() override;

  const std::string& name() const override { return params_.name; }
  void Start() override;
  void Stop() override;
  void ResetStats() override;
  WorkloadResult Result() const override;

  // Table 3 breakdown (ns).
  const Distribution& end_to_end() const { return end_to_end_; }
  const Distribution& queue_time() const { return queue_time_; }
  const Distribution& service_time() const { return service_time_; }

  // Live throughput (requests/s per report interval).
  const TimeSeries& live_throughput() const { return live_; }

 private:
  class WorkerBehavior;
  struct Request {
    TimeNs arrival;
    int connection = -1;
  };

  void ScheduleNextArrival();
  void OnArrival();
  void InjectRequest(int connection, int waker_hint);
  void OnReport();

  GuestKernel* kernel_;
  Simulation* sim_;
  LatencyAppParams params_;
  Rng rng_;
  bool running_ = false;

  std::vector<std::unique_ptr<WorkerBehavior>> behaviors_;
  std::vector<Task*> workers_;
  std::deque<Request> queue_;
  std::vector<int> idle_workers_;  // indices into workers_
  std::vector<int> conn_last_cpu_;  // per connection: vCPU of previous request

  Distribution end_to_end_;
  Distribution queue_time_;
  Distribution service_time_;
  TimeSeries live_;
  uint64_t completed_ = 0;
  uint64_t completed_at_last_report_ = 0;
  TimeNs measure_start_ = 0;
  // Open-loop arrivals and live-throughput reports both re-post themselves
  // for the app's whole life: wheel timers re-armed in place, not fresh heap
  // events (a fleet runs thousands of these generators concurrently).
  TimerId arrival_timer_ = kInvalidTimerId;
  TimerId report_timer_ = kInvalidTimerId;

  // Liveness token for posted event closures (the PR-6 pattern, enforced by
  // vsched-lint's event-lifetime rule). Must be the last member so it
  // expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_WORKLOADS_LATENCY_APP_H_
