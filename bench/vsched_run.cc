// vsched_run: unified CLI for the declarative experiment sweeps.
//
//   vsched_run [--experiment NAME] [--fleet PRESET] [--jobs N] [--seed S]
//              [--out FILE] [--filter SUBSTR] [--warmup-ms N] [--measure-ms N]
//              [--timings] [--audit] [--list]
//              [--fault-plan NAME] [--event-budget N] [--resume FILE] [--shards N]
//
// Experiments: fig18_rcvm (default), fig19_hpvm, fig02, all. --fleet PRESET
// instead sweeps a cluster-scale fleet (docs/CLUSTER.md) head-to-head
// {cfs, vsched}.
// JSONL rows go to --out (or stdout); the human report (the paper's table for
// fig02, fig18_rcvm and fig19_hpvm rows, then the wall-clock summary) goes to
// stdout (or stderr when rows occupy stdout). Rows are
// byte-identical for any --jobs value. SIGINT drains in-flight runs, flushes
// every finished row (a valid --resume checkpoint) and exits 130. See
// docs/RUNNER.md and docs/ROBUSTNESS.md.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/audit.h"
#include "src/cluster/fleet_spec.h"
#include "src/fault/fault_plan.h"
#include "src/metrics/experiment.h"
#include "src/runner/report.h"
#include "src/runner/result_sink.h"
#include "src/runner/resume.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"

using namespace vsched;

namespace {

std::atomic<bool> g_interrupted{false};

void OnSigint(int) { g_interrupted.store(true, std::memory_order_relaxed); }

struct CliOptions {
  std::string experiment = "fig18_rcvm";
  std::string fleet;  // non-empty: fleet preset sweep instead of --experiment
  bool adversary = false;  // adversarial co-tenant deception-matrix sweep
  int jobs = 0;
  uint64_t seed = 0;  // 0: each sweep's built-in default
  std::string out;    // empty: stdout
  std::string filter;
  long warmup_ms = -1;   // -1: sweep default
  long measure_ms = -1;  // -1: sweep default
  bool timings = false;
  bool audit = false;
  bool list = false;
  std::string fault_plan;       // empty: clean run
  uint64_t event_budget = 0;    // 0: no watchdog
  std::string resume;           // empty: fresh sweep
  int shards = 1;  // fleet runs: worker threads of the fleet engine
};

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: vsched_run [options]\n"
               "  --experiment NAME  fig18_rcvm | fig19_hpvm | fig02 | all (default:"
               " fig18_rcvm)\n"
               "  --fleet PRESET     cluster-scale fleet sweep {cfs, vsched} over PRESET\n"
               "                     (see --list-fleets); replaces --experiment\n"
               "  --list-fleets      print the fleet preset names and exit\n"
               "  --adversary        adversarial co-tenant sweep: each scheduler attack\n"
               "                     (steal, evade, burst) with the robust layer off and\n"
               "                     on, single-VM plus tiny-fleet rows, emitting the\n"
               "                     dx_* deception matrix (docs/ROBUSTNESS.md);\n"
               "                     replaces --experiment\n"
               "  --jobs N           worker threads; 0 = hardware concurrency, 1 = serial\n"
               "  --seed S           base seed override (default: the sweep's own)\n"
               "  --out FILE         write JSONL rows to FILE instead of stdout\n"
               "  --filter SUBSTR    keep only runs whose id contains SUBSTR\n"
               "  --warmup-ms N      override per-run warmup (simulated ms)\n"
               "  --measure-ms N     override per-run measurement window (simulated ms)\n"
               "  --timings          include per-row wall_ms (non-deterministic) in JSONL\n"
               "  --audit            verify core invariants after every mutation (slow);\n"
               "                     output stays byte-identical, violations abort\n"
               "  --list             print the selected run ids and exit\n"
               "  --fault-plan NAME  deterministic chaos plan for every run (see --list-plans);\n"
               "                     'none' is byte-identical to omitting the flag\n"
               "  --list-plans       print the canned fault plan names and exit\n"
               "  --event-budget N   per-run simulated-event watchdog; a run exceeding N\n"
               "                     events reports status=timeout instead of hanging\n"
               "  --shards N         fleet runs: worker threads per fleet, N >= 1 (default 1);\n"
               "                     rows are byte-identical for every N\n"
               "  --resume FILE      reuse ok rows from a previous JSONL output and execute\n"
               "                     only the missing/failed cells\n");
}

// Parses `text` as a whole decimal integer >= 1; exits 2 naming `flag`
// otherwise.
int ParsePositiveInt(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  bool whole = std::isdigit(static_cast<unsigned char>(*text)) && *end == '\0' && errno != ERANGE;
  if (!whole || value < 1 || value > INT_MAX) {
    std::fprintf(stderr, "vsched_run: %s needs an integer >= 1, got '%s'\n", flag, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

// Parses argv; returns false (after printing usage) on an unknown flag.
bool ParseArgs(int argc, char** argv, CliOptions& cli) {
  auto value = [&](int& i, const char** out_value) {
    if (i + 1 >= argc) {
      return false;
    }
    *out_value = argv[++i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* v = nullptr;
    std::string inline_value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      v = inline_value.c_str();
    }
    auto take = [&](const char* name) {
      if (arg != name) {
        return false;
      }
      if (v == nullptr && !value(i, &v)) {
        std::fprintf(stderr, "vsched_run: %s needs a value\n", name);
        std::exit(2);
      }
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      std::exit(0);
    } else if (arg == "--timings") {
      cli.timings = true;
    } else if (arg == "--audit") {
      cli.audit = true;
    } else if (arg == "--list") {
      cli.list = true;
    } else if (arg == "--adversary") {
      cli.adversary = true;
    } else if (arg == "--list-plans") {
      for (const std::string& name : FaultPlanNames()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    } else if (arg == "--list-fleets") {
      for (const std::string& name : FleetSpecNames()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    } else if (take("--fleet")) {
      cli.fleet = v;
    } else if (take("--fault-plan")) {
      cli.fault_plan = v;
    } else if (take("--event-budget")) {
      cli.event_budget = std::strtoull(v, nullptr, 0);
    } else if (take("--shards")) {
      cli.shards = ParsePositiveInt("--shards", v);
    } else if (take("--resume")) {
      cli.resume = v;
    } else if (take("--experiment")) {
      cli.experiment = v;
    } else if (take("--jobs")) {
      cli.jobs = std::atoi(v);
    } else if (take("--seed")) {
      cli.seed = std::strtoull(v, nullptr, 0);
    } else if (take("--out")) {
      cli.out = v;
    } else if (take("--filter")) {
      cli.filter = v;
    } else if (take("--warmup-ms")) {
      cli.warmup_ms = std::atol(v);
    } else if (take("--measure-ms")) {
      cli.measure_ms = std::atol(v);
    } else {
      std::fprintf(stderr, "vsched_run: unknown flag %s\n", arg.c_str());
      Usage(stderr);
      return false;
    }
  }
  return true;
}

ExperimentSpec BuildSweep(const CliOptions& cli) {
  std::vector<ExperimentSpec> parts;
  if (cli.adversary) {
    parts.push_back(AdversarySweep(cli.seed));
  } else if (!cli.fleet.empty()) {
    std::vector<std::string> names = FleetSpecNames();
    if (std::find(names.begin(), names.end(), cli.fleet) == names.end()) {
      std::fprintf(stderr, "vsched_run: unknown fleet preset %s (see --list-fleets)\n",
                   cli.fleet.c_str());
      std::exit(2);
    }
    parts.push_back(FleetSweep(cli.fleet, cli.seed));
  } else {
    if (cli.experiment == "fig18_rcvm" || cli.experiment == "all") {
      parts.push_back(OverallSweep(ExperimentFamily::kOverallRcvm, cli.seed));
    }
    if (cli.experiment == "fig19_hpvm" || cli.experiment == "all") {
      parts.push_back(OverallSweep(ExperimentFamily::kOverallHpvm, cli.seed));
    }
    if (cli.experiment == "fig02" || cli.experiment == "all") {
      parts.push_back(VcpuLatencySweep(cli.seed));
    }
    if (parts.empty()) {
      std::fprintf(stderr, "vsched_run: unknown experiment %s\n", cli.experiment.c_str());
      std::exit(2);
    }
  }
  ExperimentSpec sweep;
  sweep.name = cli.adversary ? "adversary"
                             : (cli.fleet.empty() ? cli.experiment : "fleet_" + cli.fleet);
  for (ExperimentSpec& part : parts) {
    for (RunSpec& run : part.runs) {
      if (cli.warmup_ms >= 0) {
        run.warmup = MsToNs(cli.warmup_ms);
      }
      if (cli.measure_ms >= 0) {
        run.measure = MsToNs(cli.measure_ms);
      }
      // Adversary rows own their fault plan (it IS the attack under test);
      // --fault-plan only applies to the other sweeps.
      if (run.family != ExperimentFamily::kAdversary) {
        run.fault_plan = cli.fault_plan;
      }
      run.event_budget = cli.event_budget;
      run.shards = cli.shards;
      sweep.runs.push_back(std::move(run));
    }
  }
  sweep.Filter(cli.filter);
  return sweep;
}

// Prints each paper figure's table and claim over the cells this invocation
// executed, in sweep order (rows reused by --resume are not re-read).
void PrintFigureTables(const std::vector<RunResult>& results, std::FILE* out) {
  auto rows_of = [&](ExperimentFamily family) {
    std::vector<RunResult> rows;
    std::copy_if(results.begin(), results.end(), std::back_inserter(rows),
                 [&](const RunResult& result) { return result.spec.family == family; });
    return rows;
  };
  if (auto rows = rows_of(ExperimentFamily::kOverallRcvm); !rows.empty()) {
    PrintBanner("Figure 18", "rcvm: CFS vs enhanced CFS vs vSched (31 workloads)", out);
    PrintOverallReport("rcvm", rows, out);
    std::fprintf(out, "\nPaper (Fig 18): enhanced CFS 1.4x lower latency / +59%% throughput;\n"
                      "vSched 1.6x lower latency / +69%% throughput on average vs CFS.\n");
  }
  if (auto rows = rows_of(ExperimentFamily::kOverallHpvm); !rows.empty()) {
    PrintBanner("Figure 19", "hpvm: CFS vs enhanced CFS vs vSched (31 workloads)", out);
    PrintOverallReport("hpvm", rows, out);
    std::fprintf(out, "\nPaper (Fig 19): enhanced CFS 1.5x lower latency / +13%% throughput;\n"
                      "vSched 2.3x lower latency / +18%% throughput on average vs CFS.\n");
  }
  if (auto rows = rows_of(ExperimentFamily::kVcpuLatency); !rows.empty()) {
    PrintBanner("Figure 2",
                "Impact of vCPU latency on p95 tail latency (normalized to 16 ms)", out);
    PrintVcpuLatencyReport(rows, out);
    std::fprintf(out, "\nPaper: p95 grows up to ~20x from 2 ms to 16 ms vCPU latency.\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, cli)) {
    return 2;
  }
  if (cli.audit) {
    audit::SetEnabled(true);
  }
  if (!cli.fault_plan.empty()) {
    FaultPlan plan;
    if (!LookupFaultPlan(cli.fault_plan, &plan)) {
      std::fprintf(stderr, "vsched_run: unknown fault plan %s (see --list-plans)\n",
                   cli.fault_plan.c_str());
      return 2;
    }
  }
  ExperimentSpec sweep = BuildSweep(cli);
  if (cli.list) {
    for (const RunSpec& run : sweep.runs) {
      std::printf("%s\n", run.Id().c_str());
    }
    return 0;
  }
  if (sweep.runs.empty()) {
    std::fprintf(stderr, "vsched_run: no runs match the filter\n");
    return 1;
  }

  // JSONL rows claim stdout unless --out is given; human output then moves
  // to stderr so the stream stays machine-parseable.
  std::ofstream out_file;
  std::ostream* rows = &std::cout;
  std::FILE* human = stderr;
  if (!cli.out.empty()) {
    out_file.open(cli.out, std::ios::out | std::ios::trunc);
    if (!out_file) {
      std::fprintf(stderr, "vsched_run: cannot open %s\n", cli.out.c_str());
      return 1;
    }
    rows = &out_file;
    human = stdout;
  }

  // --resume: reuse rows the previous invocation already completed; only the
  // missing (or failed) cells execute.
  ResumeState resume;
  if (!cli.resume.empty()) {
    std::string error;
    if (!LoadResumeState(cli.resume, &resume, &error)) {
      std::fprintf(stderr, "vsched_run: --resume: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "resume: %zu completed row(s) reused from %s\n",
                 resume.completed.size(), cli.resume.c_str());
  }
  ExperimentSpec todo;
  todo.name = sweep.name;
  std::vector<int> todo_index;  // position of each todo run within the sweep
  for (size_t i = 0; i < sweep.runs.size(); ++i) {
    if (resume.completed.count(sweep.runs[i].Id()) == 0) {
      todo.runs.push_back(sweep.runs[i]);
      todo_index.push_back(static_cast<int>(i));
    }
  }

  std::signal(SIGINT, OnSigint);
  RunnerOptions options;
  options.jobs = cli.jobs;
  options.cancel = &g_interrupted;
  options.on_run_done = [&](const RunResult& result) {
    std::fputc(result.ok ? '.' : 'x', stderr);
  };
  auto start = std::chrono::steady_clock::now();
  std::vector<RunResult> results = Runner(options).Run(todo);
  auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  std::fprintf(stderr, "\n");
  // Re-key executed results to their sweep positions so a resumed file is
  // byte-identical to an uninterrupted run of the full sweep.
  for (size_t j = 0; j < results.size(); ++j) {
    results[j].index = todo_index[j];
  }

  ResultSink::Options sink_options;
  sink_options.include_timing = cli.timings;
  ResultSink sink(rows, sink_options);
  int failed = 0;
  bool interrupted = g_interrupted.load(std::memory_order_relaxed);
  size_t next_result = 0;
  for (size_t i = 0; i < sweep.runs.size(); ++i) {
    auto cached = resume.completed.find(sweep.runs[i].Id());
    if (cached != resume.completed.end()) {
      // Byte-stable apart from the run index, which is re-keyed to this
      // sweep's position (the checkpoint may have numbered the cell under a
      // different --filter).
      *rows << RekeyRunIndex(cached->second, static_cast<int>(i)) << "\n";
      continue;
    }
    const RunResult& result = results[next_result++];
    // Cells that never started because of SIGINT are left out of the file:
    // the checkpoint then contains exactly the finished work, and --resume
    // picks up the rest.
    if (interrupted && !result.ok && result.error == "interrupted") {
      continue;
    }
    sink.Write(result);
    if (!result.ok) {
      ++failed;
    }
  }
  rows->flush();

  PrintFigureTables(results, human);
  PrintRunSummary(results, elapsed.count(), human);
  if (interrupted) {
    std::fprintf(human, "interrupted: partial results flushed; rerun with --resume %s\n",
                 cli.out.empty() ? "<file>" : cli.out.c_str());
    return 130;
  }
  if (audit::Enabled()) {
    // The default handler aborts on the first violation, so reaching here
    // normally means zero; a custom handler may have let the run continue.
    std::fprintf(human, "audit: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(audit::ViolationCount()));
    if (audit::ViolationCount() != 0) {
      return 1;
    }
  }
  if (cli.timings) {
    uint64_t events = 0;
    uint64_t cb_heap_allocs = 0;
    uint64_t slab_allocs = 0;
    uint64_t picks = 0;
    uint64_t timer_fires = 0;
    uint64_t ticks_elided = 0;
    uint64_t barriers = 0;
    for (const RunResult& result : results) {
      events += result.counters.events_executed;
      cb_heap_allocs += result.counters.callback_heap_allocs;
      slab_allocs += result.counters.event_slab_allocs;
      picks += result.counters.rq_picks;
      timer_fires += result.counters.timer_fires;
      ticks_elided += result.counters.ticks_elided;
      barriers += result.counters.fleet_barriers;
    }
    double secs = static_cast<double>(elapsed.count()) / 1e9;
    const uint64_t dispatches = events + timer_fires;
    std::fprintf(human,
                 "core: %llu dispatches (%.3g/sec aggregate; %llu heap events, %llu timer "
                 "fires), %llu rq picks, %llu callback heap allocs, %llu slab allocs\n",
                 static_cast<unsigned long long>(dispatches),
                 secs > 0 ? static_cast<double>(dispatches) / secs : 0,
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(timer_fires),
                 static_cast<unsigned long long>(picks),
                 static_cast<unsigned long long>(cb_heap_allocs),
                 static_cast<unsigned long long>(slab_allocs));
    std::fprintf(human, "timers: %llu fires, %llu ticks elided\n",
                 static_cast<unsigned long long>(timer_fires),
                 static_cast<unsigned long long>(ticks_elided));
    if (barriers > 0) {
      std::fprintf(human, "fleet: %llu barriers (all cells stopped for the coordinator)\n",
                   static_cast<unsigned long long>(barriers));
    }
  }
  return failed == 0 ? 0 : 1;
}
