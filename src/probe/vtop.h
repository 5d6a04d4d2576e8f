// vtop: the vCPU topology prober (§3.1).
//
// Builds the full vCPU distance matrix with pairwise cache-line probes
// (PairProbe), using the paper's three optimizations: (1) inference —
// relations of a stacked vCPU are copied from its partner instead of probed;
// (2) socket-first ordering — sockets are discovered with one probe chain,
// then intra-socket structure is probed in parallel across sockets; (3) a
// lightweight periodic validation that re-checks only representative pairs
// and triggers a full re-probe on mismatch.
#ifndef SRC_PROBE_VTOP_H_
#define SRC_PROBE_VTOP_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/time.h"
#include "src/guest/guest_topology.h"
#include "src/probe/pair_probe.h"
#include "src/probe/robust.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/stats/stats.h"

namespace vsched {

class GuestKernel;
class Simulation;

struct VtopConfig {
  TimeNs probe_interval = SecToNs(2);  // validation cadence (Table 1)
  // Classification thresholds on observed transfer latency (ns).
  double smt_threshold_ns = 20.0;
  double socket_threshold_ns = 80.0;
  PairProbeConfig pair;
  // Robust operation under fault injection: topology confidence scoring and
  // bounded re-probe backoff after failed validations. When enabled, the
  // robust settings are also propagated into the pair-probe config so
  // individual probes report per-probe confidence. Disabled by default.
  ProbeRobustConfig robust;
};

// Distance class derived from a measured latency.
enum class VcpuRelation { kUnknown, kStacked, kSmtSibling, kSameSocket, kCrossSocket };

class Vtop {
 public:
  Vtop(GuestKernel* kernel, VtopConfig config = VtopConfig{});
  ~Vtop();

  Vtop(const Vtop&) = delete;
  Vtop& operator=(const Vtop&) = delete;

  // Starts the periodic probe loop: one full probe, then validations that
  // escalate to full probes on mismatch.
  void Start();
  void Stop();

  // One-shot entry points (also used by the benches).
  void RunFullProbe(std::function<void()> done);
  void RunValidation(std::function<void(bool ok)> done);

  bool busy() const { return busy_; }
  bool has_topology() const { return has_topology_; }
  const GuestTopology& probed_topology() const { return topology_; }

  // Latency matrix (ns); kInfiniteLatency → stacked; <0 → never probed.
  double MatrixAt(int a, int b) const;
  VcpuRelation Classify(double latency_ns) const;

  TimeNs last_full_duration() const { return last_full_duration_; }
  TimeNs last_validate_duration() const { return last_validate_duration_; }
  int full_probes_run() const { return full_probes_run_; }
  int validations_run() const { return validations_run_; }
  int pair_probes_run() const { return pair_probes_run_; }
  int pairs_inferred() const { return pairs_inferred_; }

  // Confidence in the current topology, in [0, 1]; 1.0 while the robust
  // layer is disabled. Fed by per-probe sample survival and by validation
  // outcomes (a failed validation scores 0, a passed one scores 1).
  double TopologyConfidence() const;
  // Backoff re-probes scheduled so far (for tests/metrics).
  int reprobes_scheduled() const { return reprobes_scheduled_; }

  // Invoked whenever a full probe produced a (possibly changed) topology.
  void SetTopologyCallback(std::function<void(const GuestTopology&)> cb) {
    topology_callback_ = std::move(cb);
  }

 private:
  struct Expectation {
    int a;
    int b;
    VcpuRelation expect;
  };

  void ProbePair(int a, int b, std::function<void(double)> cont);
  void SweepFinishedProbes();

  void Record(int a, int b, double latency);
  bool TryInferFromStacking(int a, int b);

  // Full-probe phases.
  void PhaseAStep(int next_vcpu, int rep_index);
  void StartPhaseB();
  void PhaseBGroupStep(int group);
  void FinalizeFullProbe();

  // Validation.
  void BuildExpectations();
  void ValidationBatchStep(size_t batch_index);

  void ScheduleNextCycle();
  void OnCycle();
  void OnValidationFailed();

  GuestKernel* kernel_;
  Simulation* sim_;
  VtopConfig config_;
  int n_;

  bool running_ = false;
  bool busy_ = false;
  bool has_topology_ = false;
  GuestTopology topology_;
  std::vector<std::vector<double>> matrix_;

  // Full-probe working state.
  std::vector<int> socket_of_;          // group id per vCPU
  std::vector<std::vector<int>> groups_;  // socket groups
  std::function<void()> full_done_;
  TimeNs full_started_ = 0;
  int groups_outstanding_ = 0;
  std::vector<std::vector<std::pair<int, int>>> group_pending_;

  // Validation working state.
  std::vector<std::vector<Expectation>> validation_batches_;
  bool validation_ok_ = false;
  std::function<void(bool)> validate_done_;
  TimeNs validate_started_ = 0;

  std::vector<std::unique_ptr<PairProbe>> live_probes_;
  std::function<void(const GuestTopology&)> topology_callback_;
  EventId cycle_event_;

  TimeNs last_full_duration_ = 0;
  TimeNs last_validate_duration_ = 0;
  int full_probes_run_ = 0;
  int validations_run_ = 0;
  int pair_probes_run_ = 0;
  int pairs_inferred_ = 0;

  // Robust-layer state: smoothed topology confidence and bounded re-probe
  // backoff after consecutive validation failures. The RNG (cycle jitter)
  // is forked only when the robust layer is on, so clean runs keep the
  // simulation's fork order byte-identical.
  Ema confidence_ema_ = Ema::WithHalfLife(8.0);
  int reprobe_count_ = 0;
  int reprobes_scheduled_ = 0;
  std::optional<Rng> rng_;

  // Liveness token for posted event closures (the PR-6 pattern, enforced by
  // vsched-lint's event-lifetime rule). Must be the last member so it
  // expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_PROBE_VTOP_H_
