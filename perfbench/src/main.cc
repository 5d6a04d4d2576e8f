// perfbench_measure: the repository benchmark's measuring program.
//
//   perfbench_measure --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 runs the workload's closed batch repeatedly for --seconds (at
// least a fixed minimum of passes) through the public Runner, with tracing
// off, and reports the end-to-end metrics. --trace 1 runs one untraced pass,
// one traced pass that replays every cell from the public pieces with spans,
// the isolation probes and the marginal-cost runs, and reports the per-layer
// metrics; spans go to DIR/<workload>_seed<n>.trace.json.
//
// Both modes check the simulated output: every cell ok with finite metrics,
// identical row digests across passes and execution settings, and (traced)
// replayed rows identical to ExecuteRun's. The last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// perfbench/run.py builds this program and wraps it; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/base/thread_pool.h"
#include "src/cluster/fleet_spec.h"
#include "src/metrics/experiment.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"

namespace perfbench {
namespace {

using vsched::ExperimentFamily;
using vsched::ExperimentSpec;
using vsched::RunResult;
using vsched::RunSpec;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

// Operations attempted and failed; a failure is a cell that is not ok, a
// non-finite metric, or a determinism or replay mismatch.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
};

// Ordered (name, value, unit) triples of the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  const std::vector<std::tuple<std::string, double, std::string>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> entries_;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The digest as a JSON-exact number: the top 53 bits of FNV-1a-64 over the
// JSONL bytes.
double DigestValue(const std::string& jsonl) { return static_cast<double>(Fnv1a(jsonl) >> 11); }

// JSONL rows exactly as vsched_run writes them without --timings (so no
// wall_ms). Each Write is a span when tracing.
std::string Rows(const std::vector<RunResult>& results, Tracer* tracer, int parent,
                 int64_t* sink_ns) {
  std::ostringstream out;
  vsched::ResultSink sink(&out);
  for (const RunResult& r : results) {
    SpanScope span(tracer, "runner.sink", "runner", parent, r.spec.Id());
    int64_t start = NowNs();
    sink.Write(r);
    if (sink_ns != nullptr) {
      *sink_ns += NowNs() - start;
    }
  }
  return out.str();
}

bool CellOk(const RunResult& r) {
  if (!r.ok || r.status != vsched::RunStatus::kOk) {
    return false;
  }
  for (const auto& [key, value] : r.metrics.values) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  // Every cell must have produced output.
  return r.metrics.Get("completed", 0) > 0 || r.metrics.Get("work_done", 0) > 0;
}

void CheckCells(const std::vector<RunResult>& results, const std::string& what, Tally* tally) {
  for (const RunResult& r : results) {
    tally->Check(CellOk(r), what + " cell " + r.spec.Id() + (r.ok ? "" : ": " + r.error));
  }
}

std::vector<RunResult> RunBatch(const ExperimentSpec& batch, int jobs) {
  vsched::RunnerOptions options;
  options.jobs = jobs;
  options.max_attempts = 1;  // a failure is a failure, not a retry
  return vsched::Runner(options).Run(batch);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string MachineJson(const WorkloadDef& def, const Args& args) {
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency() << ",\"compiler\":\""
    << vsched::JsonEscape(PERFBENCH_COMPILER) << "\",\"build_type\":\""
    << vsched::JsonEscape(PERFBENCH_BUILD_TYPE) << "\",\"git_sha\":\""
    << vsched::JsonEscape(args.git_sha) << "\",\"thread_cap\":" << BenchThreads()
    << ",\"jobs\":" << def.jobs << ",\"measured_shards\":" << def.measured_shards
    << ",\"shards\":" << def.shards << ",\"seed\":" << args.seed
    << ",\"workload\":\"" << def.name << "\",\"why\":\"" << vsched::JsonEscape(def.why)
    << "\",\"trace\":" << (args.trace ? 1 : 0) << "}";
  return o.str();
}

// The determinism check across execution settings: jobs 1 vs jobs N on a
// short sweep slice, shards 1 vs shards N on a short dc horizon.
void CheckExecutionSettings(const WorkloadDef& def, uint64_t seed, Tally* tally) {
  ExperimentSpec slice = BuildCheckSlice(def, seed);
  std::vector<RunResult> a;
  std::vector<RunResult> b;
  std::string setting;
  if (def.kind == WorkloadKind::kFleet) {
    for (RunSpec& run : slice.runs) {
      run.shards = 1;
    }
    a = RunBatch(slice, 1);
    for (RunSpec& run : slice.runs) {
      run.shards = def.shards;
    }
    b = RunBatch(slice, 1);
    setting = "shards 1 vs shards " + std::to_string(def.shards);
  } else {
    a = RunBatch(slice, 1);
    b = RunBatch(slice, BenchThreads());
    setting = "jobs 1 vs jobs " + std::to_string(BenchThreads());
  }
  CheckCells(a, "check-slice", tally);
  CheckCells(b, "check-slice", tally);
  tally->Check(Rows(a, nullptr, -1, nullptr) == Rows(b, nullptr, -1, nullptr),
               "determinism across " + setting);
  std::fprintf(stderr, "perfbench: determinism across %s on %zu cells checked\n",
               setting.c_str(), slice.runs.size());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

Metrics RunMeasured(const WorkloadDef& def, const Args& args, Tally* tally) {
  ExperimentSpec batch = BuildBatch(def, args.seed);
  const size_t cells = batch.runs.size();
  CheckExecutionSettings(def, args.seed, tally);

  // Setup, timed on its own: three times up front, then once after every
  // pass so the samples spread over the run; the median is setup_s.
  std::vector<double> setup_s;
  auto time_setup = [&] {
    int64_t total = 0;
    for (const RunSpec& run : batch.runs) {
      total += TimeCellSetup(run);
    }
    setup_s.push_back(static_cast<double>(total) / 1e9);
  };
  for (int rep = 0; rep < 3; ++rep) {
    time_setup();
  }

  // Closed-batch passes until --seconds have elapsed. Sweeps run enough
  // passes that at least ten cells lie beyond the reported p90; the fleet
  // runs at least three.
  const int min_passes =
      def.kind == WorkloadKind::kFleet
          ? 3
          : std::max(3, static_cast<int>((100 + cells - 1) / cells));
  std::vector<double> pass_wall_s;
  std::vector<double> pass_rate;
  std::vector<double> cell_ms;
  std::vector<double> pass_mean_run_ms;  // fleet only, like pass_max_run_ms
  std::vector<double> pass_max_run_ms;
  std::vector<double> stepping_s;  // Σ cell host time per pass, setup included
  std::vector<double> sim_s_per_pass;
  std::string first_rows;
  const int64_t t_begin = NowNs();
  for (int pass = 0;; ++pass) {
    if (pass >= min_passes &&
        static_cast<double>(NowNs() - t_begin) / 1e9 >= args.seconds) {
      break;
    }
    int64_t start = NowNs();
    std::vector<RunResult> results = RunBatch(batch, def.jobs);
    std::string rows = Rows(results, nullptr, -1, nullptr);
    int64_t wall = NowNs() - start;
    pass_wall_s.push_back(static_cast<double>(wall) / 1e9);
    CheckCells(results, "pass " + std::to_string(pass), tally);
    if (pass == 0) {
      first_rows = rows;
    } else {
      tally->Check(rows == first_rows, "row digest of pass " + std::to_string(pass) +
                                           " equals pass 0");
    }
    double sim_s = 0;
    double cell_sum_s = 0;
    for (const RunResult& r : results) {
      sim_s += SimSecondsOf(r.spec);
      cell_sum_s += static_cast<double>(r.wall_ns) / 1e9;
      cell_ms.push_back(static_cast<double>(r.wall_ns) / 1e6);
    }
    pass_mean_run_ms.push_back(cell_sum_s * 1e3 / static_cast<double>(results.size()));
    pass_max_run_ms.push_back(
        *std::max_element(cell_ms.end() - static_cast<std::ptrdiff_t>(results.size()),
                          cell_ms.end()));
    stepping_s.push_back(cell_sum_s);
    sim_s_per_pass.push_back(sim_s);
    time_setup();
  }
  const double setup_median = Median(setup_s);
  for (size_t i = 0; i < stepping_s.size(); ++i) {
    pass_rate.push_back(sim_s_per_pass[i] / std::max(stepping_s[i] - setup_median, 1e-9));
  }

  Metrics m;
  m.Set("wall_s", Median(pass_wall_s), "s");
  m.Set("sim_s_per_host_s", Median(pass_rate), "s/s");
  m.Set("setup_s", setup_median, "s");
  double p50 = 0;
  double tail = 0;
  std::string tail_label;
  if (def.kind == WorkloadKind::kFleet) {
    // Two runs per pass ({cfs, vsched}) cannot put ten runs beyond any
    // percentile: report the medians over passes of the mean run time and
    // of the slower run.
    p50 = Median(pass_mean_run_ms);
    tail = Median(pass_max_run_ms);
    tail_label = "median per-pass slowest run";
  } else {
    p50 = Percentile(cell_ms, 0.5);
    tail = Percentile(cell_ms, 0.9);
    tail_label = "p90";
  }
  m.Set("run_ms_p50", p50, "ms");
  m.Set("run_ms_tail", tail, "ms");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr, "perfbench: pass wall_s:");
  for (double w : pass_wall_s) {
    std::fprintf(stderr, " %.3f", w);
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu passes x %zu cells; run_ms_tail is the %s of %zu "
               "cell times; setup_s is the median of %zu setups; fail_frac %llu/%llu\n",
               def.name.c_str(), static_cast<unsigned long long>(args.seed), pass_wall_s.size(),
               cells, tail_label.c_str(), cell_ms.size(), setup_s.size(),
               static_cast<unsigned long long>(tally->failed),
               static_cast<unsigned long long>(tally->attempted));
  return m;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

// Option sets of the marginal-cost runs, by label: "cfs" or "+"-joined
// use_* flags.
vsched::VSchedOptions OptionsFor(const std::string& label) {
  vsched::VSchedOptions o = vsched::VSchedOptions::Cfs();
  std::stringstream flags(label);
  std::string flag;
  while (std::getline(flags, flag, '+')) {
    o.use_vcap |= flag == "vcap";
    o.use_vact |= flag == "vact";
    o.use_vtop |= flag == "vtop";
    o.use_bvs |= flag == "bvs";
    o.use_ivh |= flag == "ivh";
    o.use_rwc |= flag == "rwc";
  }
  return o;
}

// A probe flag is measured against stock CFS; a core policy needs its
// probers (bvs/ivh: vcap + vact, rwc: vcap), so it is measured against those
// probers alone.
struct MarginalPair {
  const char* metric;
  const char* with;
  const char* without;
};
constexpr MarginalPair kMarginalPairs[] = {
    {"probe.vcap_marginal_ms", "vcap", "cfs"},
    {"probe.vact_marginal_ms", "vact", "cfs"},
    {"probe.vtop_marginal_ms", "vtop", "cfs"},
    {"core.bvs_marginal_ms", "vcap+vact+bvs", "vcap+vact"},
    {"core.ivh_marginal_ms", "vcap+vact+ivh", "vcap+vact"},
    {"core.rwc_marginal_ms", "vcap+rwc", "vcap"},
};

// Host ms of the sampled cells under `options` (the minimum of two runs, to
// damp scheduling noise on the host).
double SampledCellsMs(const std::vector<RunSpec>& sample, const WorkloadDef& def,
                      const vsched::VSchedOptions& options, Tracer* tracer, int parent) {
  double total = 0;
  for (const RunSpec& spec : sample) {
    double best = 0;
    for (int rep = 0; rep < 2; ++rep) {
      ReplayedCell cell = def.kind == WorkloadKind::kFleet
                              ? ReplayFleetCell(spec, options, spec.shards, 0, tracer, parent)
                              : ReplaySweepCell(spec, options, 0, tracer, parent);
      double ms = static_cast<double>(cell.result.wall_ns) / 1e6;
      best = rep == 0 ? ms : std::min(best, ms);
    }
    total += best;
  }
  return total;
}

// Geometric mean of ratio(vsched row, cfs row) over cells run under both.
template <typename Fn>
double GeoMeanVschedOverCfs(const std::vector<RunResult>& rows, Fn&& ratio) {
  std::map<std::string, const RunResult*> by_id;
  for (const RunResult& r : rows) {
    by_id[r.spec.Id()] = &r;
  }
  std::vector<double> ratios;
  for (const RunResult& r : rows) {
    if (r.spec.config != "vsched") {
      continue;
    }
    RunSpec other = r.spec;
    other.config = "cfs";
    auto it = by_id.find(other.Id());
    if (it != by_id.end()) {
      double v = ratio(r, *it->second);
      if (v > 0 && std::isfinite(v)) {
        ratios.push_back(v);
      }
    }
  }
  return ratios.empty() ? 0 : vsched::GeoMean(ratios);
}

Metrics RunTraced(const WorkloadDef& def, const Args& args, Tally* tally,
                  std::string* trace_path) {
  Tracer tracer(true);
  const bool fleet = def.kind == WorkloadKind::kFleet;
  const int root = tracer.Begin("perfbench", "runner", -1, def.name);

  // Spec build.
  ExperimentSpec batch;
  int64_t spec_ns = 0;
  {
    SpanScope span(&tracer, "runner.spec", "runner", root, def.name);
    int64_t start = NowNs();
    batch = BuildBatch(def, args.seed);
    spec_ns = NowNs() - start;
  }

  // Untraced pass: the reference rows and counters.
  int64_t untraced_start = NowNs();
  std::vector<RunResult> ref = RunBatch(batch, def.jobs);
  std::string ref_rows = Rows(ref, nullptr, -1, nullptr);
  const int64_t untraced_ns = NowNs() - untraced_start;
  CheckCells(ref, "untraced pass", tally);

  // Traced pass: every cell replayed from the public pieces, with spans.
  std::vector<ReplayedCell> replayed(batch.runs.size());
  int64_t sink_ns = 0;
  std::string replay_rows;
  int64_t traced_ns = 0;
  int pass_span = -1;
  {
    SpanScope pass(&tracer, "pass.traced", "runner", root, def.name);
    pass_span = pass.id();
    int64_t start = NowNs();
    auto replay = [&](size_t i) {
      const RunSpec& spec = batch.runs[i];
      vsched::VSchedOptions options = vsched::OptionsForConfig(spec.config);
      replayed[i] = fleet ? ReplayFleetCell(spec, options, def.shards, static_cast<int>(i),
                                            &tracer, pass.id())
                          : ReplaySweepCell(spec, options, static_cast<int>(i), &tracer,
                                            pass.id());
    };
    if (def.jobs <= 1) {
      for (size_t i = 0; i < batch.runs.size(); ++i) {
        replay(i);
      }
    } else {
      vsched::ThreadPool pool(def.jobs);
      std::vector<std::future<void>> done;
      for (size_t i = 0; i < batch.runs.size(); ++i) {
        done.push_back(pool.Submit([&replay, i] { replay(i); }));
      }
      for (auto& f : done) {
        f.get();
      }
    }
    std::vector<RunResult> results;
    for (const ReplayedCell& c : replayed) {
      results.push_back(c.result);
    }
    replay_rows = Rows(results, &tracer, pass.id(), &sink_ns);
    traced_ns = NowNs() - start;
  }
  // Replay equivalence, cell by cell: same row bytes and same counters.
  for (size_t i = 0; i < batch.runs.size(); ++i) {
    std::string a = vsched::ResultRowJson(ref[i]);
    std::string b = vsched::ResultRowJson(replayed[i].result);
    tally->Check(a == b && SameCounters(ref[i].counters, replayed[i].result.counters),
                 "replay of " + batch.runs[i].Id() + " reproduces ExecuteRun");
  }
  tally->Check(replay_rows == ref_rows, "replayed row digest equals the Runner's");

  Metrics m;
  // runner
  double cell_sum_ns = 0;
  for (const RunResult& r : ref) {
    cell_sum_ns += static_cast<double>(r.wall_ns);
  }
  m.Set("runner.parallel_eff",
        cell_sum_ns / (static_cast<double>(def.jobs) * static_cast<double>(untraced_ns)),
        "ratio");
  m.Set("runner.sink_ms", static_cast<double>(sink_ns) / 1e6, "ms");
  m.Set("runner.spec_ms", static_cast<double>(spec_ns) / 1e6, "ms");

  // sim
  vsched::PerfCounters total;
  GuestTallies guest;
  int64_t step_ns = 0;
  int64_t construct_ns = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    total.MergeFrom(ref[i].counters);
    guest.Add(replayed[i].tallies);
    step_ns += replayed[i].step_ns;
    construct_ns += replayed[i].construct_ns;
  }
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  m.Set("sim.events_executed", count(total.events_executed), "count");
  m.Set("sim.timer_fires", count(total.timer_fires), "count");
  m.Set("sim.timer_cascades", count(total.timer_cascades), "count");
  m.Set("sim.ticks_elided", count(total.ticks_elided), "count");
  m.Set("sim.callback_heap_allocs", count(total.callback_heap_allocs), "count");
  double dispatches = count(total.events_executed + total.timer_fires);
  m.Set("sim.host_ns_per_dispatch",
        dispatches > 0 ? static_cast<double>(step_ns) / dispatches : 0, "ns");

  int probes_span = tracer.Begin("isolation", "runner", root, "isolation");
  ProbeResult eq = ProbeEventQueue(args.seed, &tracer, probes_span);
  ProbeResult tw = ProbeTimerWheel(args.seed, &tracer, probes_span);
  ProbeResult rq = ProbeRunqueue(args.seed, &tracer, probes_span);
  ProbeResult idle = ProbeIdleVm(args.seed, &tracer, probes_span);
  ProbeResult host = ProbeHostStressors(args.seed, &tracer, probes_span);
  tracer.End(probes_span);
  m.Set("sim.event_queue_ns_per_op", eq.ns_per_op, "ns/op");
  m.Set("sim.event_queue_ops", eq.ops, "count");
  m.Set("sim.timer_wheel_ns_per_fire", tw.ns_per_op, "ns/op");
  m.Set("sim.timer_wheel_fires", tw.ops, "count");

  // guest
  m.Set("guest.rq_picks", count(total.rq_picks), "count");
  m.Set("guest.rq_enqueues", count(total.rq_enqueues), "count");
  m.Set("guest.context_switches", count(guest.context_switches), "count");
  m.Set("guest.migrations", count(guest.migrations), "count");
  m.Set("guest.wakeup_ipis", count(guest.wakeup_ipis), "count");
  m.Set("guest.runqueue_ns_per_op", rq.ns_per_op, "ns/op");
  m.Set("guest.runqueue_ops", rq.ops, "count");
  m.Set("guest.idle_vm_ns_per_sim_ms", idle.ns_per_op, "ns/sim_ms");
  m.Set("guest.idle_vm_sim_ms", idle.ops, "sim_ms");

  // host
  m.Set("host.stressor_ns_per_sim_ms", host.ns_per_op, "ns/sim_ms");
  m.Set("host.stressor_sim_ms", host.ops, "sim_ms");

  // probe / core: marginal costs on sampled cells. vcpu_latency's cells run
  // stock CFS with no flag to toggle and construct no prober, so its
  // marginal costs are zero by construction.
  std::vector<RunSpec> sample;
  if (fleet) {
    RunSpec short_dc = batch.runs.front();
    short_dc.config = "cfs";
    short_dc.measure = vsched::MsToNs(150);
    sample.push_back(short_dc);
  } else if (def.name == "overall_sweep") {
    for (const RunSpec& r : batch.runs) {
      bool rcvm_pick = r.family == ExperimentFamily::kOverallRcvm && r.workload == "canneal";
      bool hpvm_pick = r.family == ExperimentFamily::kOverallHpvm && r.workload == "silo";
      if ((rcvm_pick || hpvm_pick) && r.config == "cfs") {
        sample.push_back(r);
      }
    }
  }
  int marginal_span = tracer.Begin("marginal", "runner", root, "marginal");
  std::map<std::string, double> cost_ms;  // by option-set label
  auto cost = [&](const std::string& label) {
    auto it = cost_ms.find(label);
    if (it == cost_ms.end()) {
      it = cost_ms.emplace(label, SampledCellsMs(sample, def, OptionsFor(label), &tracer,
                                                 marginal_span))
               .first;
    }
    return it->second;
  };
  for (const MarginalPair& p : kMarginalPairs) {
    m.Set(p.metric, sample.empty() ? 0 : cost(p.with) - cost(p.without), "ms");
  }
  tracer.End(marginal_span);

  double vsched_ns = 0;
  double cfs_ns = 0;
  for (const RunResult& r : ref) {
    if (r.spec.config == "vsched") {
      vsched_ns += static_cast<double>(r.wall_ns);
    } else if (r.spec.config == "cfs") {
      cfs_ns += static_cast<double>(r.wall_ns);
    }
  }
  m.Set("probe.share", vsched_ns > 0 ? (vsched_ns - cfs_ns) / vsched_ns : 0, "ratio");
  m.Set("probe.vtop_pair_probes", count(guest.vtop_pair_probes), "count");
  m.Set("probe.vtop_full_probes", count(guest.vtop_full_probes), "count");
  m.Set("probe.vcap_windows", count(guest.vcap_windows), "count");

  // cluster: the same specs again at shards 1 for the speedup, which is also
  // a shards-1-vs-N determinism check of the traced run.
  double run_ms = 0;
  double run_ms_s1 = 0;
  double barriers = 0;
  double fleet_cells = 0;
  double events_dispatched = 0;
  if (fleet) {
    int s1_span = tracer.Begin("pass.shards1", "runner", root, def.name);
    std::vector<RunResult> s1;
    for (size_t i = 0; i < batch.runs.size(); ++i) {
      const RunSpec& spec = batch.runs[i];
      ReplayedCell c = ReplayFleetCell(spec, vsched::OptionsForConfig(spec.config), 1,
                                       static_cast<int>(i), &tracer, s1_span);
      run_ms_s1 += static_cast<double>(c.step_ns) / 1e6;
      s1.push_back(c.result);
    }
    tracer.End(s1_span);
    tally->Check(Rows(s1, nullptr, -1, nullptr) == ref_rows,
                 "shards 1 rows equal shards " + std::to_string(def.shards) + " rows");
    for (const ReplayedCell& c : replayed) {
      run_ms += static_cast<double>(c.step_ns) / 1e6;
      events_dispatched += static_cast<double>(c.fleet_events_dispatched);
      fleet_cells = c.fleet_cells;
      if (c.fleet_window_ns > 0) {
        barriers = static_cast<double>(batch.runs.front().warmup + batch.runs.front().measure) /
                   static_cast<double>(c.fleet_window_ns);
      }
    }
  }
  m.Set("cluster.construct_ms", fleet ? static_cast<double>(construct_ns) / 1e6 : 0, "ms");
  m.Set("cluster.run_ms", run_ms, "ms");
  m.Set("cluster.run_ms_s1", run_ms_s1, "ms");
  m.Set("cluster.shard_speedup", run_ms > 0 ? run_ms_s1 / run_ms : 0, "ratio");
  m.Set("cluster.barriers", barriers, "count");
  m.Set("cluster.cells", fleet_cells, "count");
  m.Set("cluster.events_dispatched", events_dispatched, "count");

  // model: deterministic simulated outputs; 0 where a workload has no such
  // output.
  double gain = 0;
  double p95_ratio = 0;
  double fleet_p99_ms = 0;
  double fleet_slo = 0;
  double migrations = 0;
  for (const RunResult& r : ref) {
    migrations += r.metrics.Get("migrations", 0);
  }
  if (fleet) {
    gain = GeoMeanVschedOverCfs(ref, [](const RunResult& v, const RunResult& c) {
      return c.metrics.Get("p99_ns", 0) / v.metrics.Get("p99_ns", 0);
    });
    for (const RunResult& r : ref) {
      if (r.spec.config == "vsched") {
        fleet_p99_ms = r.metrics.Get("p99_ns", 0) / 1e6;
        fleet_slo = r.metrics.Get("slo_violation_frac", 0);
      }
    }
  } else if (def.name == "overall_sweep") {
    gain = GeoMeanVschedOverCfs(ref, [](const RunResult& v, const RunResult& c) {
      return v.metrics.Get("perf", 0) / c.metrics.Get("perf", 0);
    });
  } else {
    std::vector<double> ratios;
    for (const RunResult& hi : ref) {
      if (hi.spec.vcpu_latency != vsched::MsToNs(16)) {
        continue;
      }
      for (const RunResult& lo : ref) {
        if (lo.spec.vcpu_latency == vsched::MsToNs(2) && lo.spec.workload == hi.spec.workload &&
            lo.spec.best_effort == hi.spec.best_effort && lo.metrics.Get("p95_ns", 0) > 0) {
          ratios.push_back(hi.metrics.Get("p95_ns", 0) / lo.metrics.Get("p95_ns", 0));
        }
      }
    }
    p95_ratio = ratios.empty() ? 0 : vsched::GeoMean(ratios);
  }
  m.Set("model.vsched_gain", gain, "ratio");
  m.Set("model.fig02_p95_ratio", p95_ratio, "ratio");
  m.Set("model.fleet_p99_ms", fleet_p99_ms, "ms");
  m.Set("model.fleet_slo_violation_frac", fleet_slo, "ratio");
  m.Set("model.migrations", migrations, "count");
  m.Set("model.digest", DigestValue(ref_rows), "hash");

  // Layer self time over the traced pass (isolation and marginal runs are
  // reported above, not charged to the layers).
  std::map<std::string, double> self = tracer.SelfMsByLayer(pass_span);
  for (const char* layer : {"runner", "sim", "host", "guest", "core", "workloads", "cluster"}) {
    m.Set(std::string(layer) + ".self_ms", self[layer], "ms");
  }
  m.Set("trace.overhead_frac",
        static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1.0, "ratio");
  tracer.End(root);

  // Spans, machine block and metrics go to the trace file; the rows go next
  // to it so run.py can compare them with vsched_run's.
  std::filesystem::create_directories(args.out_dir);
  std::string stem = args.out_dir + "/" + def.name + "_seed" + std::to_string(args.seed);
  *trace_path = stem + ".trace.json";
  std::ostringstream header;
  header << "{\"machine\":" << MachineJson(def, args) << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value, unit] : m.entries()) {
    header << (first ? "" : ",") << "\"" << name << "\":" << vsched::JsonNumber(value);
    first = false;
  }
  header << "},\"note\":\"marginal costs are host ms with one VSchedOptions flag on minus the "
            "same cells without it; a toggle also changes the scheduling, so each is a "
            "marginal cost, not a self time\"}";
  if (!tracer.WriteJson(*trace_path, header.str())) {
    tally->Check(false, "writing " + *trace_path);
  }
  std::ofstream rows_file(stem + ".rows.jsonl", std::ios::out | std::ios::trunc);
  rows_file << ref_rows;
  tally->Check(static_cast<bool>(rows_file), "writing " + stem + ".rows.jsonl");
  std::printf("# perfbench rows %s.rows.jsonl\n", stem.c_str());
  std::printf("# perfbench spans %s\n", trace_path->c_str());
  std::ostringstream inv;
  inv << "[";
  bool first_inv = true;
  for (const auto& argv : VschedRunInvocations(def, batch, args.seed)) {
    inv << (first_inv ? "" : ",") << "[";
    for (size_t i = 0; i < argv.size(); ++i) {
      inv << (i ? "," : "") << "\"" << vsched::JsonEscape(argv[i]) << "\"";
    }
    inv << "]";
    first_inv = false;
  }
  inv << "]";
  std::printf("# perfbench vsched_run %s\n", inv.str().c_str());
  return m;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args->trace = v == "1";
    } else if (a == "--out-dir") {
      args->out_dir = v;
    } else if (a == "--git-sha") {
      args->git_sha = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadDef def;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &def)) {
    std::fprintf(stderr,
                 "usage: perfbench_measure --workload overall_sweep|vcpu_latency|fleet_dc "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n");
    return 2;
  }
  std::printf("# perfbench machine %s\n", MachineJson(def, args).c_str());
  std::fflush(stdout);
  Tally tally;
  std::string trace_path;
  Metrics m = args.trace ? RunTraced(def, args, &tally, &trace_path)
                         : RunMeasured(def, args, &tally);
  std::ostringstream line;
  line << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : m.entries()) {
    tally.Check(std::isfinite(value), "metric " + name + " is finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 1;
  }
}
