#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "src/runner/result_sink.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Counter movement `after - before`, field by field.
vsched::PerfCounters CounterDelta(const vsched::PerfCounters& before,
                                  const vsched::PerfCounters& after) {
  vsched::PerfCounters d;
  d.events_scheduled = after.events_scheduled - before.events_scheduled;
  d.events_executed = after.events_executed - before.events_executed;
  d.events_cancelled = after.events_cancelled - before.events_cancelled;
  d.callback_heap_allocs = after.callback_heap_allocs - before.callback_heap_allocs;
  d.event_slab_allocs = after.event_slab_allocs - before.event_slab_allocs;
  d.rq_enqueues = after.rq_enqueues - before.rq_enqueues;
  d.rq_dequeues = after.rq_dequeues - before.rq_dequeues;
  d.rq_picks = after.rq_picks - before.rq_picks;
  d.timer_arms = after.timer_arms - before.timer_arms;
  d.timer_fires = after.timer_fires - before.timer_fires;
  d.timer_cancels = after.timer_cancels - before.timer_cancels;
  d.timer_cascades = after.timer_cascades - before.timer_cascades;
  d.ticks_elided = after.ticks_elided - before.ticks_elided;
  return d;
}

}  // namespace

int Tracer::Begin(const std::string& name, const std::string& layer, int parent,
                  const std::string& run_id) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.parent = parent;
  span.name = name;
  span.layer = layer;
  span.run_id = run_id;
  span.start_ns = NowNs() - origin_ns_;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int id, const vsched::PerfCounters* delta) {
  if (id < 0) {
    return;
  }
  int64_t end = NowNs() - origin_ns_;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end;
  if (delta != nullptr) {
    span.has_counters = true;
    span.delta = *delta;
  }
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfNs(const std::vector<Span>& spans) const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (const Span& s : spans) {
    // Children may overlap (cells of a parallel pass), so subtract the union
    // of their intervals clipped to the parent.
    auto& kids = children[static_cast<size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) {
        continue;
      }
      if (lo > cur_hi) {
        covered += cur_hi > cur_lo ? cur_hi - cur_lo : 0;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi > cur_lo ? cur_hi - cur_lo : 0;
    self[static_cast<size_t>(s.id)] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::SelfMsByLayer(int root) const {
  std::vector<Span> spans = Spans();
  std::vector<double> self = SelfNs(spans);
  // A parent always begins (and so is numbered) before its children.
  std::vector<bool> inside(spans.size(), root < 0);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    size_t i = static_cast<size_t>(s.id);
    if (root >= 0) {
      inside[i] = s.id == root || (s.parent >= 0 && inside[static_cast<size_t>(s.parent)]);
    }
    if (inside[i]) {
      out[s.layer] += self[i] / 1e6;
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path, const std::string& header_json) const {
  std::vector<Span> spans = Spans();
  std::vector<double> self = SelfNs(spans);
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\"header\":" << header_json << ",\n\"spans\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << vsched::JsonEscape(s.name) << "\",\"layer\":\"" << vsched::JsonEscape(s.layer)
        << "\",\"run_id\":\"" << vsched::JsonEscape(s.run_id) << "\",\"start_us\":"
        << vsched::JsonNumber(static_cast<double>(s.start_ns) / 1e3)
        << ",\"end_us\":" << vsched::JsonNumber(static_cast<double>(s.end_ns) / 1e3)
        << ",\"self_us\":" << vsched::JsonNumber(self[i] / 1e3);
    if (s.has_counters) {
      out << ",\"events\":" << s.delta.events_executed
          << ",\"timer_fires\":" << s.delta.timer_fires << ",\"rq_picks\":" << s.delta.rq_picks;
    }
    out << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_ms_by_layer\":{";
  bool first = true;
  for (const auto& [layer, ms] : SelfMsByLayer()) {
    out << (first ? "" : ",") << "\"" << vsched::JsonEscape(layer)
        << "\":" << vsched::JsonNumber(ms);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(Tracer* tracer, const std::string& name, const std::string& layer,
                     int parent, const std::string& run_id, const vsched::PerfCounters* live)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->Begin(name, layer, parent, run_id) : -1),
      live_(live) {
  if (live_ != nullptr) {
    before_ = *live_;
  }
}

SpanScope::~SpanScope() {
  if (id_ < 0) {
    return;
  }
  if (live_ != nullptr) {
    vsched::PerfCounters delta = CounterDelta(before_, *live_);
    tracer_->End(id_, &delta);
  } else {
    tracer_->End(id_);
  }
}

}  // namespace perfbench
