#include "src/runner/result_sink.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(JsonEscape("\r\b\f"), "\\r\\b\\f");
}

TEST(JsonNumberTest, ShortestRoundTripAndNonFinite) {
  EXPECT_EQ(JsonNumber(3), "3");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(0), "0");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(INFINITY), "null");
  EXPECT_EQ(JsonNumber(-INFINITY), "null");
}

RunResult SampleResult() {
  RunResult result;
  result.spec.family = ExperimentFamily::kOverallRcvm;
  result.spec.workload = "canneal";
  result.spec.config = "vsched";
  result.spec.seed = 42;
  result.index = 3;
  result.attempts = 1;
  result.ok = true;
  result.status = RunStatus::kOk;
  result.metrics.Set("perf", 1.25);
  result.metrics.Set("migrations", 7);
  result.wall_ns = 1'500'000;  // 1.5 ms
  return result;
}

TEST(ResultRowJsonTest, DeterministicRowWithoutTiming) {
  EXPECT_EQ(ResultRowJson(SampleResult()),
            "{\"run\":3,\"id\":\"fig18_rcvm/canneal/vsched\",\"experiment\":\"fig18_rcvm\","
            "\"workload\":\"canneal\",\"config\":\"vsched\",\"seed\":42,\"ok\":true,"
            "\"attempts\":1,\"metrics\":{\"perf\":1.25,\"migrations\":7}}");
}

TEST(ResultRowJsonTest, TimingIsOptIn) {
  RunResult result = SampleResult();
  result.counters.events_executed = 40;
  result.counters.timer_fires = 2000;
  std::string row = ResultRowJson(result, /*include_timing=*/true);
  EXPECT_NE(row.find("\"wall_ms\":1.5"), std::string::npos);
  EXPECT_NE(row.find("\"events\":40,"), std::string::npos);
  EXPECT_NE(row.find("\"timer_fires\":2000,"), std::string::npos);
  EXPECT_NE(row.find("\"dispatches\":2040,"), std::string::npos);
  // Default rows keep their bytes: none of the timing keys appear.
  std::string plain = ResultRowJson(result);
  EXPECT_EQ(plain, ResultRowJson(SampleResult()));
  for (const char* key : {"wall_ms", "events", "timer_fires", "dispatches"}) {
    EXPECT_EQ(plain.find(std::string("\"") + key + "\""), std::string::npos) << key;
  }
}

TEST(ResultRowJsonTest, FailedRunCarriesEscapedError) {
  RunResult result = SampleResult();
  result.ok = false;
  result.attempts = 2;
  result.error = "bad \"config\"\nname";
  result.metrics.values.clear();
  std::string row = ResultRowJson(result);
  EXPECT_NE(row.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(row.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(row.find("\"error\":\"bad \\\"config\\\"\\nname\""), std::string::npos);
  EXPECT_NE(row.find("\"metrics\":{}"), std::string::npos);
}

TEST(ResultSinkTest, WritesOneLinePerRunAndCounts) {
  std::ostringstream out;
  ResultSink sink(&out);
  sink.Write(SampleResult());
  sink.Write(SampleResult());
  EXPECT_EQ(sink.rows_written(), 2);
  std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_EQ(text.find("wall_ms"), std::string::npos);
}

}  // namespace
}  // namespace vsched
