#include "src/runner/result_sink.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace vsched {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    return "null";
  }
  return std::string(buf, ptr);
}

std::string ResultRowJson(const RunResult& result, bool include_timing) {
  std::string row = "{";
  row += "\"run\":" + std::to_string(result.index);
  row += ",\"id\":\"" + JsonEscape(result.spec.Id()) + "\"";
  row += ",\"experiment\":\"" + JsonEscape(FamilyName(result.spec.family)) + "\"";
  row += ",\"workload\":\"" + JsonEscape(result.spec.workload) + "\"";
  row += ",\"config\":\"" + JsonEscape(result.spec.config) + "\"";
  row += ",\"seed\":" + std::to_string(result.spec.seed);
  // The empty "none" plan is a clean run; its rows must byte-compare against
  // rows produced with no plan at all.
  if (!result.spec.fault_plan.empty() && result.spec.fault_plan != "none") {
    row += ",\"fault_plan\":\"" + JsonEscape(result.spec.fault_plan) + "\"";
  }
  row += ",\"ok\":";
  row += result.ok ? "true" : "false";
  if (result.status != RunStatus::kOk) {
    row += ",\"status\":\"";
    row += RunStatusName(result.status);
    row += "\"";
  }
  row += ",\"attempts\":" + std::to_string(result.attempts);
  if (!result.ok) {
    row += ",\"error\":\"" + JsonEscape(result.error) + "\"";
  }
  row += ",\"metrics\":{";
  bool first = true;
  for (const auto& [key, value] : result.metrics.values) {
    if (!first) {
      row += ",";
    }
    first = false;
    row += "\"" + JsonEscape(key) + "\":" + JsonNumber(value);
  }
  row += "}";
  if (include_timing) {
    row += ",\"wall_ms\":" + JsonNumber(static_cast<double>(result.wall_ns) / 1e6);
    const PerfCounters& c = result.counters;
    double secs = static_cast<double>(result.wall_ns) / 1e9;
    row += ",\"events\":" + std::to_string(c.events_executed);
    row += ",\"events_per_sec\":" +
           JsonNumber(secs > 0 ? static_cast<double>(c.events_executed) / secs : 0);
    // The run loop dispatches one-shot events and timers alike; timers are
    // usually the larger share.
    row += ",\"timer_fires\":" + std::to_string(c.timer_fires);
    row += ",\"dispatches\":" + std::to_string(c.events_executed + c.timer_fires);
    row += ",\"events_cancelled\":" + std::to_string(c.events_cancelled);
    row += ",\"cb_heap_allocs\":" + std::to_string(c.callback_heap_allocs);
    row += ",\"slab_allocs\":" + std::to_string(c.event_slab_allocs);
    row += ",\"rq_picks\":" + std::to_string(c.rq_picks);
    row += ",\"rq_enqueues\":" + std::to_string(c.rq_enqueues);
    // Fleet rows: how often every cell stopped for the coordinator.
    row += ",\"barriers\":" + std::to_string(c.fleet_barriers);
  }
  row += "}";
  return row;
}

ResultSink::ResultSink(std::ostream* out) : ResultSink(out, Options{}) {}

ResultSink::ResultSink(std::ostream* out, Options options) : out_(out), options_(options) {}

void ResultSink::Write(const RunResult& result) {
  *out_ << ResultRowJson(result, options_.include_timing) << "\n";
  ++rows_written_;
}

}  // namespace vsched
