#include "src/metrics/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <cstdio>

#include "src/base/check.h"
#include "src/guest/guest_kernel.h"
#include "src/host/machine.h"

namespace vsched {

// Class shaping: hc = 70% capacity (competitor weight 439), lc = 35%
// (weight 1902), 2x apart; granularities give hl ≈ 6 ms inactive periods
// and ll ≈ 2 ms (3x apart). The inactive period is `gran` when our vCPU
// outweighs the competitor and `gran * weight/1024` otherwise.
VcpuClassShape HchlShape() { return {439.0, MsToNs(6)}; }
VcpuClassShape HcllShape() { return {439.0, MsToNs(2)}; }
VcpuClassShape LchlShape() { return {1902.0, UsToNs(3200)}; }
VcpuClassShape LcllShape() { return {1902.0, UsToNs(1080)}; }
VcpuClassShape StragglerShape() { return {39936.0, MsToNs(1)}; }

namespace {

void ApplyThreadShape(Simulation* sim, HostMachine* machine,
                      std::vector<std::unique_ptr<Stressor>>& stressors, HwThreadId tid,
                      VcpuClassShape shape) {
  // Only the granularities are the class's; every other knob stays the
  // machine's.
  HostSchedParams params = machine->sched(tid).params();
  params.min_granularity = shape.granularity;
  params.wakeup_granularity = shape.granularity;
  machine->sched(tid).set_params(params);
  if (shape.competitor_weight > 0) {
    stressors.push_back(
        std::make_unique<Stressor>(sim, "cotenant", shape.competitor_weight));
    stressors.back()->Start(machine, tid);
  }
}

}  // namespace

void ShapeRcvmHost(Simulation* sim, HostMachine* machine,
                   std::vector<std::unique_ptr<Stressor>>& stressors) {
  const VcpuClassShape classes[4] = {HchlShape(), HcllShape(), LchlShape(), LcllShape()};
  for (int t = 0; t < 8; ++t) {
    ApplyThreadShape(sim, machine, stressors, t, classes[t / 2]);
  }
  ApplyThreadShape(sim, machine, stressors, 8, StragglerShape());
  ApplyThreadShape(sim, machine, stressors, 9, StragglerShape());
  // Thread 10 hosts the stacked pair: contended only by the two vCPUs.
}

void ShapeHpvmHost(Simulation* sim, HostMachine* machine,
                   std::vector<std::unique_ptr<Stressor>>& stressors) {
  const VcpuClassShape classes[4] = {HchlShape(), HcllShape(), LchlShape(), LcllShape()};
  const int threads_per_socket = 10;
  for (int group = 0; group < 3; ++group) {
    for (int i = 0; i < 8; ++i) {
      ApplyThreadShape(sim, machine, stressors, group * threads_per_socket + i, classes[i / 2]);
    }
  }
  // Group 3 (socket 3): dedicated, default knobs, no competitors.
}

TopologySpec RcvmHostTopology() {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 8;
  spec.threads_per_core = 2;
  return spec;
}

VmSpec MakeRcvmSpec(GuestParams guest_params) {
  VmSpec spec;
  spec.name = "rcvm";
  spec.guest_params = std::make_shared<const GuestParams>(guest_params);
  spec.vcpus.resize(12);
  // vCPU0–9 on five SMT pairs (hardware threads 0..9).
  for (int i = 0; i < 10; ++i) {
    spec.vcpus[i].tid = i;
  }
  // vCPU10/11 stacked on hardware thread 10 (core 5, first thread).
  spec.vcpus[10].tid = 10;
  spec.vcpus[11].tid = 10;
  // Quality classes come from host-side competitors: see ShapeRcvmHost.
  return spec;
}

TopologySpec HpvmHostTopology() {
  TopologySpec spec;
  spec.sockets = 4;
  spec.cores_per_socket = 5;
  spec.threads_per_core = 2;
  return spec;
}

VmSpec MakeHpvmSpec(GuestParams guest_params) {
  VmSpec spec;
  spec.name = "hpvm";
  spec.guest_params = std::make_shared<const GuestParams>(guest_params);
  spec.vcpus.resize(32);
  const int threads_per_socket = 10;  // 5 cores × 2 threads
  for (int group = 0; group < 4; ++group) {
    for (int i = 0; i < 8; ++i) {
      int vcpu = group * 8 + i;
      // 4 SMT pairs per group → hardware threads 0..7 of the socket.
      spec.vcpus[vcpu].tid = group * threads_per_socket + i;
      // Quality classes come from host-side competitors: see ShapeHpvmHost.
    }
  }
  return spec;
}

Work TotalWorkDone(const GuestKernel& kernel) {
  Work total = 0;
  for (int i = 0; i < kernel.num_vcpus(); ++i) {
    total += kernel.vcpu(i).work_done();
  }
  return total;
}

double GeoMean(const std::vector<double>& values) {
  VSCHED_CHECK(!values.empty());
  double log_sum = 0;
  for (double v : values) {
    VSCHED_CHECK(v > 0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  VSCHED_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::FILE* out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%-*s", static_cast<int>(widths[c] + 2), row[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  for (size_t i = 0; i < total; ++i) {
    std::fputc('-', out);
  }
  std::fprintf(out, "\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string TablePrinter::Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::Pct(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, value);
  return buf;
}

void PrintBanner(const std::string& id, const std::string& title, std::FILE* out) {
  std::fprintf(out, "\n==============================================================\n");
  std::fprintf(out, "%s — %s\n", id.c_str(), title.c_str());
  std::fprintf(out, "==============================================================\n");
}

}  // namespace vsched
