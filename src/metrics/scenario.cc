#include "src/metrics/scenario.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "src/base/check.h"
#include "src/workloads/catalog.h"

namespace vsched {
namespace {

// The guest kernel keeps vCPU sets in 64-bit masks (src/guest/cpumask.h).
constexpr int kMaxVcpus = 64;
// Far above any host the paper models; keeps the topology's thread count, a
// product of three script values, in range.
constexpr int64_t kMaxHostThreads = 4096;

// Splits "key=value" tokens; bare tokens map to "true".
std::map<std::string, std::string> ParseArgs(std::istringstream& in) {
  std::map<std::string, std::string> args;
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      args[token] = "true";
    } else {
      args[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return args;
}

bool ParseInt(const std::string& text, int* out) {
  try {
    size_t pos = 0;
    *out = std::stoi(text, &pos);
    return pos == text.size();
  } catch (...) {
    return false;
  }
}

bool ParseDouble(const std::string& text, double* out) {
  try {
    size_t pos = 0;
    *out = std::stod(text, &pos);
    return pos == text.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

bool ScenarioRunner::ParseDuration(const std::string& text, TimeNs* out) {
  double value = 0;
  size_t pos = 0;
  try {
    value = std::stod(text, &pos);
  } catch (...) {
    return false;
  }
  std::string suffix = text.substr(pos);
  double scale;
  if (suffix == "ns" || suffix.empty()) {
    scale = 1;
  } else if (suffix == "us") {
    scale = 1e3;
  } else if (suffix == "ms") {
    scale = 1e6;
  } else if (suffix == "s") {
    scale = 1e9;
  } else {
    return false;
  }
  // NaN fails both comparisons; a value at or past the far-future sentinel
  // would not fit a TimeNs once the clock is added to it.
  double ns = value * scale;
  if (!(ns >= 0 && ns < static_cast<double>(kTimeInfinity))) {
    return false;
  }
  *out = static_cast<TimeNs>(ns);
  return true;
}

ScenarioRunner::ScenarioRunner(uint64_t seed) : seed_(seed) {}

ScenarioRunner::~ScenarioRunner() {
  // Destruction order: workloads → vsched → vm → stressors → machine → sim.
  for (auto& w : workloads_) {
    w->Stop();
  }
  workloads_.clear();
  vsched_.reset();
  fault_.reset();
  vm_.reset();
  stressors_.clear();
  machine_.reset();
  sim_.reset();
}

bool ScenarioRunner::Fail(const std::string& message) {
  error_ = message;
  return false;
}

bool ScenarioRunner::RunScript(const std::string& script) {
  std::istringstream lines(script);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (!RunLine(line)) {
      error_ = "line " + std::to_string(line_no) + ": " + error_;
      return false;
    }
  }
  return true;
}

bool ScenarioRunner::RunLine(const std::string& line) {
  std::string stripped = line.substr(0, line.find('#'));
  std::istringstream in(stripped);
  std::string directive;
  if (!(in >> directive)) {
    return true;  // blank / comment
  }
  auto args = ParseArgs(in);
  // Every value is checked before it reaches the simulator, whose own
  // checks abort the process. A missing required key, a value that does not
  // parse (optional keys included) and a value outside its domain all fail
  // the line with a message naming the key.
  auto has = [&](const char* key) { return args.count(key) > 0; };
  auto bad = [&](const char* key, const std::string& why) {
    return Fail(directive + ": " + key + "=" + args[key] + " " + why);
  };
  auto missing = [&](const char* key, const char* form) {
    return Fail(directive + " requires " + key + "=" + form);
  };
  // The getters leave `out` at its default when the key is absent.
  auto get_int = [&](const char* key, int* out) {
    return !has(key) || ParseInt(args[key], out) || bad(key, "is not an integer");
  };
  auto get_double = [&](const char* key, double* out) {
    return !has(key) || (ParseDouble(args[key], out) && std::isfinite(*out)) ||
           bad(key, "is not a number");
  };
  auto get_duration = [&](const char* key, TimeNs* out) {
    return !has(key) || ParseDuration(args[key], out) || bad(key, "is not a duration");
  };

  if (directive == "host") {
    if (sim_ != nullptr) {
      return Fail("host already declared");
    }
    TopologySpec topo;
    if (!get_int("sockets", &topo.sockets) || !get_int("cores", &topo.cores_per_socket) ||
        !get_int("smt", &topo.threads_per_core) || !get_double("smt_factor", &topo.smt_factor)) {
      return false;
    }
    if (topo.sockets < 1) {
      return bad("sockets", "must be at least 1");
    }
    if (topo.cores_per_socket < 1) {
      return bad("cores", "must be at least 1");
    }
    if (topo.threads_per_core != 1 && topo.threads_per_core != 2) {
      return bad("smt", "must be 1 or 2");
    }
    if (topo.smt_factor <= 0) {
      return bad("smt_factor", "must be positive");
    }
    if (int64_t{topo.sockets} * topo.cores_per_socket * topo.threads_per_core > kMaxHostThreads) {
      return Fail("host: sockets x cores x smt exceeds " + std::to_string(kMaxHostThreads) +
                  " hardware threads");
    }
    sim_ = std::make_unique<Simulation>(seed_);
    machine_ = std::make_unique<HostMachine>(sim_.get(), topo);
    return true;
  }
  static const char* kKnown[] = {"gran",   "freq",     "stressor", "vm",    "bandwidth",
                                 "fault",  "vsched",   "workload", "run",   "report"};
  bool known = false;
  for (const char* k : kKnown) {
    if (directive == k) {
      known = true;
      break;
    }
  }
  if (!known) {
    return Fail("unknown directive '" + directive + "'");
  }
  if (sim_ == nullptr) {
    return Fail("'" + directive + "' before 'host'");
  }
  auto check_tid = [&](const char* key, int tid) {
    return (tid >= 0 && tid < machine_->num_threads()) ||
           bad(key, "names thread " + std::to_string(tid) + ", but the host has " +
                        std::to_string(machine_->num_threads()) + " hardware threads");
  };

  if (directive == "gran") {
    int tid = 0;
    TimeNs min_gran = 0;
    if (!has("tid")) {
      return missing("tid", "<t>");
    }
    if (!has("min")) {
      return missing("min", "<dur>");
    }
    if (!get_int("tid", &tid) || !check_tid("tid", tid) || !get_duration("min", &min_gran)) {
      return false;
    }
    if (min_gran == 0) {
      // Zero-length slices would stop the clock: the run never returns.
      return bad("min", "must be positive");
    }
    HostSchedParams params;
    params.min_granularity = min_gran;
    params.wakeup_granularity = min_gran;
    if (!get_duration("wakeup", &params.wakeup_granularity)) {
      return false;
    }
    machine_->sched(tid).set_params(params);
    return true;
  }
  if (directive == "freq") {
    int core = 0;
    double mult = 0;
    if (!has("core") || !has("mult")) {
      return Fail("freq requires core=<c> mult=<f>");
    }
    if (!get_int("core", &core) || !get_double("mult", &mult)) {
      return false;
    }
    if (core < 0 || core >= machine_->topology().num_cores()) {
      return bad("core", "is not a core of this host");
    }
    if (mult <= 0) {
      return bad("mult", "must be positive");
    }
    machine_->SetCoreFreq(core, mult);
    return true;
  }
  if (directive == "stressor") {
    int tid = 0;
    if (!has("tid")) {
      return missing("tid", "<t>");
    }
    if (!get_int("tid", &tid) || !check_tid("tid", tid)) {
      return false;
    }
    double weight = 1024.0;
    if (!get_double("weight", &weight)) {
      return false;
    }
    if (weight <= 0) {
      return bad("weight", "must be positive");
    }
    if (has("on") != has("off")) {
      return Fail("stressor duty cycle requires both on=<dur> and off=<dur>");
    }
    TimeNs on = 0;
    TimeNs off = 0;
    if (!get_duration("on", &on) || !get_duration("off", &off)) {
      return false;
    }
    if (has("on") && on == 0) {
      return bad("on", "must be positive");
    }
    bool rt = has("rt");
    stressors_.push_back(std::make_unique<Stressor>(sim_.get(), "stressor", weight, rt));
    if (has("on")) {
      stressors_.back()->StartDutyCycle(machine_.get(), tid, on, off);
    } else {
      stressors_.back()->Start(machine_.get(), tid);
    }
    return true;
  }
  if (directive == "vm") {
    if (vm_created_) {
      return Fail("vm already declared");
    }
    int vcpus = 0;
    if (!has("vcpus")) {
      return missing("vcpus", "<n>");
    }
    if (!get_int("vcpus", &vcpus)) {
      return false;
    }
    if (vcpus < 1 || vcpus > kMaxVcpus) {
      return bad("vcpus", "must be in [1, " + std::to_string(kMaxVcpus) + "]");
    }
    VmSpec spec = MakeSimpleVmSpec("vm", vcpus);
    if (has("pin")) {
      std::istringstream pins(args["pin"]);
      std::string item;
      int i = 0;
      while (std::getline(pins, item, ',') && i < vcpus) {
        int tid;
        if (!ParseInt(item, &tid)) {
          return bad("pin", "is not a list of thread ids");
        }
        if (!check_tid("pin", tid)) {
          return false;
        }
        spec.vcpus[i++].tid = tid;
      }
    }
    // Unpinned vCPUs keep the identity placement (vCPU i on thread i).
    for (const VcpuPlacement& p : spec.vcpus) {
      if (!check_tid("vcpus", p.tid)) {
        return false;
      }
    }
    spec.mutable_guest_params().use_eevdf = has("eevdf");
    vm_ = std::make_unique<Vm>(sim_.get(), machine_.get(), std::move(spec));
    vm_created_ = true;
    return true;
  }
  if (vm_ == nullptr) {
    return Fail("'" + directive + "' before 'vm'");
  }

  if (directive == "bandwidth") {
    int vcpu = 0;
    TimeNs quota = 0;
    TimeNs period = 0;
    if (!has("vcpu") || !has("quota") || !has("period")) {
      return Fail("bandwidth requires vcpu=<i> quota=<dur> period=<dur>");
    }
    if (!get_int("vcpu", &vcpu) || !get_duration("quota", &quota) ||
        !get_duration("period", &period)) {
      return false;
    }
    if (vcpu < 0 || vcpu >= vm_->num_vcpus()) {
      return bad("vcpu", "is not a vCPU of this VM");
    }
    if (period <= 0) {
      return bad("period", "must be positive");
    }
    if (quota <= 0 || quota > period) {
      return bad("quota", "must be in (0, period]");
    }
    vm_->SetVcpuBandwidth(vcpu, quota, period);
    return true;
  }
  if (directive == "fault") {
    if (fault_ != nullptr) {
      return Fail("fault already declared");
    }
    if (!has("plan")) {
      return missing("plan", "<name>");
    }
    std::string name = args["plan"];
    FaultPlan plan;
    if (!LookupFaultPlan(name, &plan)) {
      return Fail("unknown fault plan '" + name + "'");
    }
    if (!plan.Empty()) {
      fault_ = std::make_unique<FaultInjector>(sim_.get(), machine_.get(), vm_.get(), plan);
      fault_->Start();
      vm_->kernel().set_fault_injector(fault_.get());
    }
    return true;
  }
  if (directive == "vsched") {
    if (!has("preset")) {
      return missing("preset", "<cfs|enhanced|full>");
    }
    std::string preset = args["preset"];
    VSchedOptions options;
    if (preset == "cfs") {
      options = VSchedOptions::Cfs();
    } else if (preset == "enhanced") {
      options = VSchedOptions::EnhancedCfs();
    } else if (preset == "full") {
      options = VSchedOptions::Full();
    } else {
      return Fail("unknown preset '" + preset + "'");
    }
    options.robust.enabled = has("robust") || fault_ != nullptr;
    vsched_ = std::make_unique<VSched>(&vm_->kernel(), options);
    vsched_->Start();
    return true;
  }
  if (directive == "workload") {
    int threads = 0;
    if (!has("name") || !has("threads")) {
      return Fail("workload requires name=<catalog-name> threads=<n>");
    }
    if (!get_int("threads", &threads)) {
      return false;
    }
    if (threads < 1) {
      return bad("threads", "must be at least 1");
    }
    std::string name = args["name"];
    for (const CatalogEntry& e : Catalog()) {
      if (e.name == name) {
        workloads_.push_back(MakeWorkload(&vm_->kernel(), name, threads));
        workloads_.back()->Start();
        return true;
      }
    }
    return Fail("unknown workload '" + name + "'");
  }
  if (directive == "run") {
    std::istringstream rest(stripped);
    std::string skip;
    std::string dur_text;
    rest >> skip >> dur_text;
    TimeNs dur = 0;
    if (!ParseDuration(dur_text, &dur)) {
      return Fail("run requires a non-negative duration, e.g. 'run 10s' (got '" + dur_text + "')");
    }
    if (dur >= kTimeInfinity - sim_->now()) {
      return Fail("run " + dur_text + " takes the clock past the far-future sentinel");
    }
    sim_->RunFor(dur);
    return true;
  }
  if (directive == "report") {
    std::printf("t=%.2fs\n", NsToSec(sim_->now()));
    for (const auto& w : workloads_) {
      WorkloadResult r = w->Result();
      if (MetricFor(w->name()) == MetricKind::kP95Latency) {
        std::printf("  %-16s p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  (%llu requests)\n",
                    w->name().c_str(), r.p50_ns / 1e6, r.p95_ns / 1e6, r.p99_ns / 1e6,
                    static_cast<unsigned long long>(r.completed));
      } else {
        std::printf("  %-16s %.1f /s (%llu completed)\n", w->name().c_str(), r.throughput,
                    static_cast<unsigned long long>(r.completed));
      }
    }
    return true;
  }
  return Fail("unknown directive '" + directive + "'");
}

}  // namespace vsched
