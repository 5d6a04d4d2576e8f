// Experiment harness shared by the benches: the paper's two reference VM
// configurations (§5.1), result accounting, and table formatting.
#ifndef SRC_METRICS_EXPERIMENT_H_
#define SRC_METRICS_EXPERIMENT_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/core/config.h"
#include "src/guest/vm.h"
#include "src/host/stressor.h"
#include "src/host/topology.h"

namespace vsched {

class GuestKernel;
class HostMachine;
class Simulation;

// ---------------------------------------------------------------------------
// Reference VMs (§5.1)
// ---------------------------------------------------------------------------

// Host topology able to hold rcvm: one socket, 8 SMT cores.
TopologySpec RcvmHostTopology();

// The resource-constrained VM: 12 vCPUs. vCPU0–9 pinned to 5 SMT sibling
// pairs; vCPU10/11 stacked on one hardware thread. vCPU0/1 hchl, 2/3 hcll,
// 4/5 lchl, 6/7 lcll (capacity ratio 2×, latency ratio 3×), vCPU8/9
// stragglers (~5% capacity).
VmSpec MakeRcvmSpec(GuestParams guest_params = GuestParams{});

// Host topology able to hold hpvm: 4 sockets × 5 SMT cores.
TopologySpec HpvmHostTopology();

// The high-performance VM: 32 vCPUs in 4 groups of 8, each group on 4 SMT
// pairs of its own socket. Groups 0–2 mirror rcvm's four vCPU classes
// (2× hchl, hcll, lchl, lcll per group); group 3 is dedicated.
VmSpec MakeHpvmSpec(GuestParams guest_params = GuestParams{});

// Per-class shaping used by the reference VMs: a co-located competitor of
// the given host weight time-shares the hardware thread (capacity =
// 1024/(1024+weight)), and the host granularities set the slice length and
// hence the vCPU latency. Weight 0 → dedicated.
struct VcpuClassShape {
  double competitor_weight;
  TimeNs granularity;
};
VcpuClassShape HchlShape();
VcpuClassShape HcllShape();
VcpuClassShape LchlShape();
VcpuClassShape LcllShape();
VcpuClassShape StragglerShape();

// Installs the competitors and host-scheduler knobs that give rcvm/hpvm
// their vCPU quality classes. Competitors are appended to `stressors`.
void ShapeRcvmHost(Simulation* sim, HostMachine* machine,
                   std::vector<std::unique_ptr<Stressor>>& stressors);
void ShapeHpvmHost(Simulation* sim, HostMachine* machine,
                   std::vector<std::unique_ptr<Stressor>>& stressors);

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

// Total work units executed by the VM (all vCPUs) — the Fig 20 "cycles".
Work TotalWorkDone(const GuestKernel& kernel);

// Geometric mean; entries must be positive.
double GeoMean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Table formatting for bench output
// ---------------------------------------------------------------------------

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Renders with aligned columns to `out`.
  void Print(std::FILE* out = stdout) const;

  static std::string Fmt(double value, int precision = 2);
  static std::string Pct(double value, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner for a figure/table reproduction.
void PrintBanner(const std::string& id, const std::string& title, std::FILE* out = stdout);

}  // namespace vsched

#endif  // SRC_METRICS_EXPERIMENT_H_
