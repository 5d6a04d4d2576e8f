// In-memory span recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's own calls into the simulator's layers (spec
// build, each cell, deployment construction, RunFor phases, teardown, sink
// writes, fleet construction and Run, isolation probes). Each span carries a
// name, the layer it is charged to, start/end host time, its parent span and
// the run id it belongs to, plus the PerfCounters delta over its interval
// when the caller supplies the live counters. Spans stay in memory and are
// written out once, when the run ends; a layer's self time is its spans'
// durations minus the part of each interval covered by child spans.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/perf_counters.h"

namespace perfbench {

// Host time from a steady clock, in ns.
int64_t NowNs();

struct Span {
  int id = 0;
  int parent = -1;  // -1: root
  std::string name;
  std::string layer;
  std::string run_id;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool has_counters = false;
  vsched::PerfCounters delta;  // counter movement inside the span
};

class Tracer {
 public:
  // A disabled tracer records nothing; Begin returns -1.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int Begin(const std::string& name, const std::string& layer, int parent,
            const std::string& run_id);
  void End(int id, const vsched::PerfCounters* delta = nullptr);

  // Snapshot of every span recorded so far, in Begin order.
  std::vector<Span> Spans() const;

  // Self time (span minus the union of its children's intervals) summed per
  // layer, in ms, over `root` and its descendants (every span when -1).
  std::map<std::string, double> SelfMsByLayer(int root = -1) const;

  // Writes {"header": <header_json>, "spans": [...], "self_ms_by_layer": {...}}.
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  std::vector<double> SelfNs(const std::vector<Span>& spans) const;

  const bool enabled_;
  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; records nothing when `tracer` is null or disabled. When `live`
// is non-null the span records the movement of those
// counters between construction and destruction (the counters must belong to
// the calling thread's simulation for the whole span).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, const std::string& layer, int parent,
            const std::string& run_id, const vsched::PerfCounters* live = nullptr);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  const vsched::PerfCounters* live_;
  vsched::PerfCounters before_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
