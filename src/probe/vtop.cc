#include "src/probe/vtop.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/guest/guest_kernel.h"
#include "src/sim/simulation.h"

namespace vsched {

Vtop::Vtop(GuestKernel* kernel, VtopConfig config)
    : kernel_(kernel), sim_(kernel->sim()), config_(config), n_(kernel->num_vcpus()) {
  if (config_.robust.enabled) {
    // Individual pair probes inherit the robust settings so they report
    // per-probe confidence and use the median latency estimator.
    config_.pair.robust = config_.robust;
    // Forked only on the robust path: clean runs must not perturb the
    // simulation's RNG fork order (byte-identity with pre-robust builds).
    rng_.emplace(sim_->ForkRng());
  }
  matrix_.assign(n_, std::vector<double>(n_, -1.0));
  for (int i = 0; i < n_; ++i) {
    matrix_[i][i] = 0.0;
  }
  topology_ = GuestTopology::FlatUma(n_);
}

Vtop::~Vtop() { Stop(); }

void Vtop::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  OnCycle();
}

void Vtop::Stop() {
  running_ = false;
  sim_->Cancel(cycle_event_);
  cycle_event_.Invalidate();
}

void Vtop::ScheduleNextCycle() {
  if (!running_) {
    return;
  }
  TimeNs delay = config_.probe_interval;
  if (rng_.has_value() && config_.robust.window_jitter > 0) {
    // Anti-evasion jitter: a co-tenant that has learned the validation
    // cadence cannot stay quiet through a jittered cycle grid.
    delay += rng_->UniformInt(0, config_.robust.window_jitter);
  }
  cycle_event_ = sim_->After(delay, [this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    OnCycle();
  });
}

void Vtop::OnCycle() {
  if (busy_) {
    ScheduleNextCycle();
    return;
  }
  if (!has_topology_) {
    RunFullProbe([this] { ScheduleNextCycle(); });
    return;
  }
  RunValidation([this](bool ok) {
    if (ok) {
      ScheduleNextCycle();
      return;
    }
    OnValidationFailed();
  });
}

void Vtop::OnValidationFailed() {
  if (!config_.robust.enabled) {
    RunFullProbe([this] { ScheduleNextCycle(); });
    return;
  }
  // Bounded re-probe: escalate to a full probe only after an exponentially
  // growing backoff, and give up escalating once the budget is exhausted —
  // the (low-confidence) topology is kept and TopologyConfidence() lets the
  // core degrade to topology-agnostic placement instead.
  if (reprobe_count_ > config_.robust.max_reprobes) {
    ScheduleNextCycle();
    return;
  }
  ++reprobes_scheduled_;
  double scale = 1.0;
  for (int k = 1; k < reprobe_count_; ++k) {
    scale *= config_.robust.backoff_multiplier;
  }
  TimeNs delay = static_cast<TimeNs>(static_cast<double>(config_.robust.reprobe_backoff) * scale);
  cycle_event_ = sim_->After(
      delay, [this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired() || !running_) {
      return;
    }
    if (busy_) {
      ScheduleNextCycle();
      return;
    }
    RunFullProbe([this] { ScheduleNextCycle(); });
  });
}

VcpuRelation Vtop::Classify(double latency_ns) const {
  if (latency_ns < 0) {
    return VcpuRelation::kUnknown;
  }
  if (std::isinf(latency_ns)) {
    return VcpuRelation::kStacked;
  }
  if (latency_ns < config_.smt_threshold_ns) {
    return VcpuRelation::kSmtSibling;
  }
  if (latency_ns < config_.socket_threshold_ns) {
    return VcpuRelation::kSameSocket;
  }
  return VcpuRelation::kCrossSocket;
}

double Vtop::MatrixAt(int a, int b) const {
  VSCHED_CHECK(a >= 0 && a < n_ && b >= 0 && b < n_);
  return matrix_[a][b];
}

double Vtop::TopologyConfidence() const {
  if (!config_.robust.enabled) {
    return 1.0;
  }
  return confidence_ema_.has_value() ? confidence_ema_.value() : 1.0;
}

void Vtop::Record(int a, int b, double latency) {
  matrix_[a][b] = latency;
  matrix_[b][a] = latency;
}

void Vtop::SweepFinishedProbes() {
  live_probes_.erase(std::remove_if(live_probes_.begin(), live_probes_.end(),
                                    [](const std::unique_ptr<PairProbe>& p) {
                                      return p->CanDestroy();
                                    }),
                     live_probes_.end());
}

void Vtop::ProbePair(int a, int b, std::function<void(double)> cont) {
  ++pair_probes_run_;
  auto probe = std::make_unique<PairProbe>(
      kernel_, a, b, config_.pair,
      [this, a, b, cont = std::move(cont)](const PairProbeResult& result) {
        Record(a, b, result.latency_ns);
        confidence_ema_.Add(result.confidence);
        SweepFinishedProbes();
        cont(result.latency_ns);
      });
  PairProbe* raw = probe.get();
  live_probes_.push_back(std::move(probe));
  raw->Start();
}

// ---------------------------------------------------------------------------
// Full probe
// ---------------------------------------------------------------------------

void Vtop::RunFullProbe(std::function<void()> done) {
  VSCHED_CHECK(!busy_);
  busy_ = true;
  full_done_ = std::move(done);
  full_started_ = sim_->now();
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      matrix_[i][j] = (i == j) ? 0.0 : -1.0;
    }
  }
  socket_of_.assign(n_, -1);
  groups_.clear();
  if (n_ == 1) {
    FinalizeFullProbe();
    return;
  }
  socket_of_[0] = 0;
  groups_.push_back({0});
  PhaseAStep(1, 0);
}

// Phase A: discover socket membership. Each new vCPU is probed against one
// representative per known socket group until it matches (stacked / SMT /
// same-socket), else it founds a new group.
void Vtop::PhaseAStep(int next_vcpu, int rep_index) {
  if (next_vcpu >= n_) {
    StartPhaseB();
    return;
  }
  // Inference: if this vCPU is known to stack with an already-classified
  // vCPU, copy its socket without probing.
  for (int other = 0; other < next_vcpu; ++other) {
    if (Classify(matrix_[next_vcpu][other]) == VcpuRelation::kStacked &&
        socket_of_[other] >= 0) {
      socket_of_[next_vcpu] = socket_of_[other];
      groups_[socket_of_[other]].push_back(next_vcpu);
      ++pairs_inferred_;
      PhaseAStep(next_vcpu + 1, 0);
      return;
    }
  }
  if (rep_index >= static_cast<int>(groups_.size())) {
    // No group matched: this vCPU founds a new socket group.
    socket_of_[next_vcpu] = static_cast<int>(groups_.size());
    groups_.push_back({next_vcpu});
    PhaseAStep(next_vcpu + 1, 0);
    return;
  }
  int rep = groups_[rep_index][0];
  ProbePair(rep, next_vcpu, [this, next_vcpu, rep_index](double latency) {
    VcpuRelation rel = Classify(latency);
    if (rel == VcpuRelation::kCrossSocket) {
      PhaseAStep(next_vcpu, rep_index + 1);
      return;
    }
    socket_of_[next_vcpu] = rep_index;
    groups_[rep_index].push_back(next_vcpu);
    PhaseAStep(next_vcpu + 1, 0);
  });
}

// Phase B: probe remaining intra-socket pairs, in parallel across sockets,
// sequentially within each socket, skipping pairs inferable from stacking.
void Vtop::StartPhaseB() {
  group_pending_.assign(groups_.size(), {});
  for (size_t g = 0; g < groups_.size(); ++g) {
    const std::vector<int>& members = groups_[g];
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (matrix_[members[i]][members[j]] < 0) {
          group_pending_[g].emplace_back(members[i], members[j]);
        }
      }
    }
  }
  groups_outstanding_ = static_cast<int>(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    PhaseBGroupStep(static_cast<int>(g));
  }
}

bool Vtop::TryInferFromStacking(int a, int b) {
  for (int c = 0; c < n_; ++c) {
    if (c == a || c == b) {
      continue;
    }
    if (Classify(matrix_[a][c]) == VcpuRelation::kStacked && matrix_[c][b] >= 0) {
      Record(a, b, matrix_[c][b]);
      ++pairs_inferred_;
      return true;
    }
    if (Classify(matrix_[b][c]) == VcpuRelation::kStacked && matrix_[c][a] >= 0) {
      Record(a, b, matrix_[c][a]);
      ++pairs_inferred_;
      return true;
    }
  }
  return false;
}

void Vtop::PhaseBGroupStep(int group) {
  auto& pending = group_pending_[group];
  while (!pending.empty()) {
    auto [a, b] = pending.back();
    if (matrix_[a][b] >= 0 || std::isinf(matrix_[a][b])) {
      pending.pop_back();
      continue;
    }
    if (TryInferFromStacking(a, b)) {
      pending.pop_back();
      continue;
    }
    pending.pop_back();
    ProbePair(a, b, [this, group](double) { PhaseBGroupStep(group); });
    return;
  }
  if (--groups_outstanding_ == 0) {
    FinalizeFullProbe();
  }
}

namespace {

// Tiny union-find for grouping vCPUs.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) {
      parent_[i] = i;
    }
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

void Vtop::FinalizeFullProbe() {
  // Derive the guest topology from the matrix + socket groups.
  UnionFind cores(n_);
  UnionFind stacks(n_);
  for (int a = 0; a < n_; ++a) {
    for (int b = a + 1; b < n_; ++b) {
      VcpuRelation rel = Classify(matrix_[a][b]);
      if (rel == VcpuRelation::kStacked) {
        stacks.Union(a, b);
        cores.Union(a, b);
      } else if (rel == VcpuRelation::kSmtSibling) {
        cores.Union(a, b);
      }
    }
  }
  GuestTopology topo;
  topo.smt_mask.assign(n_, CpuMask::None());
  topo.llc_mask.assign(n_, CpuMask::None());
  topo.stack_mask.assign(n_, CpuMask::None());
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (cores.Find(i) == cores.Find(j)) {
        topo.smt_mask[i].Set(j);
      }
      if (stacks.Find(i) == stacks.Find(j)) {
        topo.stack_mask[i].Set(j);
      }
      if (socket_of_[i] >= 0 && socket_of_[i] == socket_of_[j]) {
        topo.llc_mask[i].Set(j);
      }
    }
    if (topo.llc_mask[i].Empty()) {
      topo.llc_mask[i].Set(i);
    }
  }
  // Backfill skipped pairs with the distance implied by the discovered
  // structure (a representative measured latency of that class), so the
  // exported matrix is fully populated like Fig 10(b).
  double cross_rep = -1;
  for (int a = 0; a < n_; ++a) {
    for (int b = 0; b < n_; ++b) {
      if (Classify(matrix_[a][b]) == VcpuRelation::kCrossSocket) {
        cross_rep = matrix_[a][b];
      }
    }
  }
  if (cross_rep > 0) {
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) {
        if (matrix_[a][b] < 0 && socket_of_[a] >= 0 && socket_of_[b] >= 0 &&
            socket_of_[a] != socket_of_[b]) {
          Record(a, b, cross_rep);
          ++pairs_inferred_;
        }
      }
    }
  }
  topology_ = topo;
  has_topology_ = true;
  last_full_duration_ = sim_->now() - full_started_;
  ++full_probes_run_;
  busy_ = false;
  if (topology_callback_) {
    topology_callback_(topology_);
  }
  if (full_done_) {
    auto done = std::move(full_done_);
    full_done_ = nullptr;
    done();
  }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void Vtop::BuildExpectations() {
  validation_batches_.clear();

  // Batch 1: one pair per stacking group — the expensive stacking
  // confirmation (explains why rcvm validates slower than hpvm, Table 2).
  std::vector<Expectation> stack_batch;
  std::vector<bool> seen(n_, false);
  for (int i = 0; i < n_; ++i) {
    if (seen[i]) {
      continue;
    }
    CpuMask group = topology_.stack_mask[i];
    for (int m : group) {
      seen[m] = true;
    }
    if (group.Count() >= 2) {
      int a = group.First();
      int b = group.NextFrom(a + 1);
      stack_batch.push_back({a, b, VcpuRelation::kStacked});
    }
  }
  if (!stack_batch.empty()) {
    validation_batches_.push_back(std::move(stack_batch));
  }

  // Batch 2: one SMT pair per core group (one representative per stack
  // subgroup; validated in parallel — groups are disjoint).
  std::vector<Expectation> smt_batch;
  std::vector<int> core_rep;  // one representative per core group
  seen.assign(n_, false);
  for (int i = 0; i < n_; ++i) {
    if (seen[i]) {
      continue;
    }
    CpuMask core_group = topology_.smt_mask[i];
    for (int m : core_group) {
      seen[m] = true;
    }
    // Representatives: one vCPU per stack subgroup within the core.
    std::vector<int> reps;
    std::vector<bool> sub_seen(n_, false);
    for (int m : core_group) {
      if (sub_seen[m]) {
        continue;
      }
      for (int s : topology_.stack_mask[m]) {
        sub_seen[s] = true;
      }
      reps.push_back(m);
    }
    if (reps.size() >= 2) {
      smt_batch.push_back({reps[0], reps[1], VcpuRelation::kSmtSibling});
    }
    core_rep.push_back(reps[0]);
  }
  if (!smt_batch.empty()) {
    validation_batches_.push_back(std::move(smt_batch));
  }

  // Batches 3/4: socket chains over core representatives, two rounds of
  // disjoint pairs (even then odd), each expecting same-socket distance.
  std::vector<std::vector<int>> socket_reps;
  for (size_t g = 0; g < groups_.size(); ++g) {
    std::vector<int> reps;
    for (int r : core_rep) {
      if (socket_of_[r] == static_cast<int>(g)) {
        reps.push_back(r);
      }
    }
    if (!reps.empty()) {
      socket_reps.push_back(std::move(reps));
    }
  }
  std::vector<Expectation> even_batch;
  std::vector<Expectation> odd_batch;
  for (const auto& reps : socket_reps) {
    for (size_t k = 0; k + 1 < reps.size(); k += 2) {
      even_batch.push_back({reps[k], reps[k + 1], VcpuRelation::kSameSocket});
    }
    for (size_t k = 1; k + 1 < reps.size(); k += 2) {
      odd_batch.push_back({reps[k], reps[k + 1], VcpuRelation::kSameSocket});
    }
  }
  if (!even_batch.empty()) {
    validation_batches_.push_back(std::move(even_batch));
  }
  if (!odd_batch.empty()) {
    validation_batches_.push_back(std::move(odd_batch));
  }

  // Batch 5: consecutive socket representatives expect cross-socket.
  std::vector<Expectation> cross_batch;
  for (size_t g = 0; g + 1 < socket_reps.size(); ++g) {
    cross_batch.push_back({socket_reps[g][0], socket_reps[g + 1][0], VcpuRelation::kCrossSocket});
  }
  if (!cross_batch.empty()) {
    validation_batches_.push_back(std::move(cross_batch));
  }
}

void Vtop::RunValidation(std::function<void(bool)> done) {
  VSCHED_CHECK(!busy_);
  VSCHED_CHECK(has_topology_);
  busy_ = true;
  validate_done_ = std::move(done);
  validate_started_ = sim_->now();
  validation_ok_ = true;
  BuildExpectations();
  ValidationBatchStep(0);
}

void Vtop::ValidationBatchStep(size_t batch_index) {
  if (batch_index >= validation_batches_.size() || !validation_ok_) {
    last_validate_duration_ = sim_->now() - validate_started_;
    ++validations_run_;
    busy_ = false;
    auto done = std::move(validate_done_);
    validate_done_ = nullptr;
    bool ok = validation_ok_;
    confidence_ema_.Add(ok ? 1.0 : 0.0);
    if (ok) {
      reprobe_count_ = 0;
    } else {
      ++reprobe_count_;
    }
    if (done) {
      done(ok);
    }
    return;
  }
  const std::vector<Expectation>& batch = validation_batches_[batch_index];
  auto outstanding = std::make_shared<int>(static_cast<int>(batch.size()));
  for (const Expectation& e : batch) {
    VcpuRelation expect = e.expect;
    ProbePair(e.a, e.b, [this, expect, outstanding, batch_index](double lat) {
      if (Classify(lat) != expect) {
        validation_ok_ = false;
      }
      if (--*outstanding == 0) {
        ValidationBatchStep(batch_index + 1);
      }
    });
  }
}

}  // namespace vsched
