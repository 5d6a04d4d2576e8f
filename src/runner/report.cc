#include "src/runner/report.h"

#include <algorithm>
#include <map>

#include "src/metrics/experiment.h"
#include "src/workloads/catalog.h"

namespace vsched {

void PrintOverallReport(const std::string& banner_id, const std::vector<RunResult>& results,
                        std::FILE* out) {
  // Group by workload, preserving first-appearance order.
  std::vector<std::string> order;
  std::map<std::string, std::map<std::string, double>> perf;  // workload -> config -> perf
  for (const RunResult& result : results) {
    if (!result.ok) {
      continue;
    }
    if (perf.find(result.spec.workload) == perf.end()) {
      order.push_back(result.spec.workload);
    }
    perf[result.spec.workload][result.spec.config] = result.metrics.Get("perf");
  }

  TablePrinter table({"Workload", "kind", "CFS", "Enhanced CFS", "vSched"});
  std::vector<double> tput_enh, tput_full, lat_enh, lat_full;
  for (const std::string& name : order) {
    const auto& by_config = perf[name];
    auto value = [&](const char* config) {
      auto it = by_config.find(config);
      return it == by_config.end() ? 0.0 : it->second;
    };
    double cfs = value("cfs"), enhanced = value("enhanced"), full = value("vsched");
    bool latency_sensitive = MetricFor(name) == MetricKind::kP95Latency;
    double enh_pct = cfs > 0 ? 100.0 * enhanced / cfs : 0;
    double full_pct = cfs > 0 ? 100.0 * full / cfs : 0;
    table.AddRow({name, latency_sensitive ? "p95" : "tput", TablePrinter::Pct(100.0, 0),
                  TablePrinter::Pct(enh_pct, 0), TablePrinter::Pct(full_pct, 0)});
    if (cfs > 0 && enhanced > 0 && full > 0) {
      (latency_sensitive ? lat_enh : tput_enh).push_back(enhanced / cfs);
      (latency_sensitive ? lat_full : tput_full).push_back(full / cfs);
    }
  }
  table.Print(out);
  std::fprintf(out,
               "\n%s summary (normalized performance vs CFS, higher is better; for\n"
               "latency-sensitive apps the metric is 1/p95):\n",
               banner_id.c_str());
  if (!tput_enh.empty()) {
    std::fprintf(out, "  throughput-oriented: enhanced CFS %.0f%%, vSched %.0f%%\n",
                 100.0 * GeoMean(tput_enh), 100.0 * GeoMean(tput_full));
  }
  if (!lat_enh.empty()) {
    std::fprintf(out,
                 "  latency-sensitive:   enhanced CFS %.0f%% (%.2fx p95 reduction), vSched %.0f%%"
                 " (%.2fx p95 reduction)\n",
                 100.0 * GeoMean(lat_enh), GeoMean(lat_enh), 100.0 * GeoMean(lat_full),
                 GeoMean(lat_full));
  }
}

void PrintVcpuLatencyReport(const std::vector<RunResult>& results, std::FILE* out) {
  for (bool best_effort : {false, true}) {
    // app -> vcpu latency -> p95
    std::vector<std::string> order;
    std::map<std::string, std::map<TimeNs, double>> p95;
    for (const RunResult& result : results) {
      if (!result.ok || result.spec.best_effort != best_effort) {
        continue;
      }
      if (p95.find(result.spec.workload) == p95.end()) {
        order.push_back(result.spec.workload);
      }
      p95[result.spec.workload][result.spec.vcpu_latency] = result.metrics.Get("p95_ns");
    }
    if (order.empty()) {
      continue;
    }
    std::fprintf(out, "\n%s best-effort tasks:\n", best_effort ? "With" : "Without");
    TablePrinter table({"App", "2 ms", "4 ms", "8 ms", "16 ms", "p95@2ms", "p95@16ms"});
    for (const std::string& app : order) {
      auto& by_latency = p95[app];
      double base = by_latency[MsToNs(16)];
      if (base <= 0) {
        continue;
      }
      table.AddRow({app, TablePrinter::Pct(100 * by_latency[MsToNs(2)] / base),
                    TablePrinter::Pct(100 * by_latency[MsToNs(4)] / base),
                    TablePrinter::Pct(100 * by_latency[MsToNs(8)] / base), TablePrinter::Pct(100.0),
                    TablePrinter::Fmt(NsToMs(static_cast<TimeNs>(by_latency[MsToNs(2)])), 2) +
                        " ms",
                    TablePrinter::Fmt(NsToMs(static_cast<TimeNs>(base)), 2) + " ms"});
    }
    table.Print(out);
  }
}

void PrintRunSummary(const std::vector<RunResult>& results, TimeNs elapsed_ns, std::FILE* out) {
  int failures = 0, retried = 0, timeouts = 0, degraded = 0;
  TimeNs summed = 0;
  for (const RunResult& result : results) {
    summed += result.wall_ns;
    if (!result.ok) {
      ++failures;
    }
    if (result.attempts > 1) {
      ++retried;
    }
    if (result.status == RunStatus::kTimeout) {
      ++timeouts;
    }
    if (result.status == RunStatus::kDegraded) {
      ++degraded;
    }
  }

  std::vector<const RunResult*> by_wall;
  by_wall.reserve(results.size());
  for (const RunResult& result : results) {
    by_wall.push_back(&result);
  }
  std::stable_sort(by_wall.begin(), by_wall.end(),
                   [](const RunResult* a, const RunResult* b) { return a->wall_ns > b->wall_ns; });

  std::fprintf(out, "\nruns: %zu ok: %zu failed: %d retried: %d", results.size(),
               results.size() - failures, failures, retried);
  if (timeouts > 0) {
    std::fprintf(out, " timeout: %d", timeouts);
  }
  if (degraded > 0) {
    std::fprintf(out, " degraded: %d", degraded);
  }
  std::fprintf(out, "\n");
  // Per-run wall times: all of them when the sweep is small, else the tail
  // that dominates the wall clock.
  size_t shown = results.size() <= 24 ? by_wall.size() : std::min<size_t>(5, by_wall.size());
  const char* label = results.size() <= 24 ? "per-run wall time" : "slowest runs";
  std::fprintf(out, "%s:\n", label);
  for (size_t i = 0; i < shown; ++i) {
    std::fprintf(out, "  %8.1f ms  %s%s\n", static_cast<double>(by_wall[i]->wall_ns) / 1e6,
                 by_wall[i]->spec.Id().c_str(), by_wall[i]->ok ? "" : "  [FAILED]");
  }
  double elapsed_s = static_cast<double>(elapsed_ns) / 1e9;
  double summed_s = static_cast<double>(summed) / 1e9;
  std::fprintf(out, "total wall time: %.2f s elapsed (%.2f s summed across runs, %.2fx)\n",
               elapsed_s, summed_s, elapsed_s > 0 ? summed_s / elapsed_s : 0.0);
}

}  // namespace vsched
