#include "src/metrics/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/workloads/catalog.h"

namespace vsched {
namespace {

TEST(ScenarioTest, ParseDuration) {
  TimeNs out = 0;
  EXPECT_TRUE(ScenarioRunner::ParseDuration("500us", &out));
  EXPECT_EQ(out, UsToNs(500));
  EXPECT_TRUE(ScenarioRunner::ParseDuration("10ms", &out));
  EXPECT_EQ(out, MsToNs(10));
  EXPECT_TRUE(ScenarioRunner::ParseDuration("2s", &out));
  EXPECT_EQ(out, SecToNs(2));
  EXPECT_TRUE(ScenarioRunner::ParseDuration("123", &out));
  EXPECT_EQ(out, 123);
  EXPECT_TRUE(ScenarioRunner::ParseDuration("1.5ms", &out));
  EXPECT_EQ(out, 1'500'000);
  EXPECT_FALSE(ScenarioRunner::ParseDuration("10m", &out));
  EXPECT_FALSE(ScenarioRunner::ParseDuration("fast", &out));
}

TEST(ScenarioTest, RunsACompleteScript) {
  ScenarioRunner runner(7);
  const char* script = R"(
# comment line
host sockets=1 cores=4 smt=1
stressor tid=0
vm vcpus=4
bandwidth vcpu=1 quota=5ms period=10ms
vsched preset=full
workload name=silo threads=4
run 3s
)";
  ASSERT_TRUE(runner.RunScript(script)) << runner.error();
  EXPECT_EQ(runner.sim()->now(), SecToNs(3));
  ASSERT_EQ(runner.workloads().size(), 1u);
  EXPECT_GT(runner.workloads()[0]->Result().completed, 100u);
  EXPECT_NE(runner.vsched(), nullptr);
}

TEST(ScenarioTest, OrderingErrors) {
  {
    ScenarioRunner runner;
    EXPECT_FALSE(runner.RunScript("vm vcpus=2\n"));
    EXPECT_NE(runner.error().find("before 'host'"), std::string::npos);
  }
  {
    ScenarioRunner runner;
    EXPECT_FALSE(runner.RunScript("host cores=2\nworkload name=silo threads=1\n"));
    EXPECT_NE(runner.error().find("before 'vm'"), std::string::npos);
  }
  {
    ScenarioRunner runner;
    EXPECT_FALSE(runner.RunScript("host cores=2\nhost cores=2\n"));
  }
}

TEST(ScenarioTest, RejectsUnknownDirectiveAndWorkload) {
  ScenarioRunner runner;
  EXPECT_FALSE(runner.RunScript("host cores=2\nfrobnicate x=1\n"));
  EXPECT_NE(runner.error().find("unknown directive"), std::string::npos);
  ScenarioRunner runner2;
  EXPECT_FALSE(runner2.RunScript("host cores=2\nvm vcpus=2\nworkload name=doom threads=2\n"));
  EXPECT_NE(runner2.error().find("unknown workload"), std::string::npos);
}

TEST(ScenarioTest, ErrorsCarryLineNumbers) {
  ScenarioRunner runner;
  EXPECT_FALSE(runner.RunScript("host cores=2\n\nrun nonsense\n"));
  EXPECT_NE(runner.error().find("line 3"), std::string::npos);
}

TEST(ScenarioTest, BadValuesFailTheirLineNamingTheKey) {
  // Each bad line follows the lines it needs; none may reach a simulator
  // check (which aborts) or run with a silently substituted value.
  struct Case {
    const char* setup;
    const char* line;
    const char* key;  // or, for `run`, the offending duration
  };
  const Case cases[] = {
      {"# no host yet", "host sockets=0", "sockets"},
      {"# no host yet", "host smt=3", "smt"},
      {"host cores=2 smt=1", "freq core=9 mult=1", "core"},
      {"host cores=2 smt=1", "freq core=0 mult=0", "mult"},
      {"host cores=2 smt=1", "stressor tid=7", "tid"},
      {"host cores=2 smt=1", "vm vcpus=0", "vcpus"},
      {"host cores=2 smt=1", "vm vcpus=65", "vcpus"},
      {"host cores=2 smt=1", "vm vcpus=2 pin=0,9", "pin"},
      {"host cores=2 smt=1\nvm vcpus=2", "bandwidth vcpu=0 quota=5ms period=1ms", "quota"},
      {"host cores=2 smt=1\nvm vcpus=2", "workload name=canneal threads=0", "threads"},
      {"# no host yet", "host sockets=x", "sockets"},
      {"# no host yet", "host sockets=100000 cores=100000", "sockets"},
      {"host cores=2 smt=1", "gran tid=0 min=1ms wakeup=x", "wakeup"},
      {"host cores=2 smt=1", "gran tid=0 min=0", "min"},
      {"host cores=2 smt=1", "stressor tid=0 on=x off=1ms", "on"},
      {"host cores=2 smt=1\nvm vcpus=2", "run -5ms", "-5ms"},
      {"host cores=2 smt=1\nvm vcpus=2", "run nan", "nan"},
      {"host cores=2 smt=1\nvm vcpus=2", "run 1e30s", "1e30s"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    std::string setup = c.setup;
    int line_no = 2 + static_cast<int>(std::count(setup.begin(), setup.end(), '\n'));
    ScenarioRunner runner;
    EXPECT_FALSE(runner.RunScript(setup + "\n" + c.line + "\n"));
    const std::string& error = runner.error();
    EXPECT_EQ(error.rfind("line " + std::to_string(line_no) + ": ", 0), 0u) << error;
    EXPECT_NE(error.find(c.key), std::string::npos) << error;
  }
}

TEST(ScenarioTest, PinAndEevdfOptions) {
  ScenarioRunner runner(9);
  const char* script = R"(
host sockets=2 cores=2 smt=2
vm vcpus=4 pin=0,4,1,4 eevdf
run 10ms
)";
  ASSERT_TRUE(runner.RunScript(script)) << runner.error();
  EXPECT_EQ(runner.vm()->thread(0).tid(), 0);
  EXPECT_EQ(runner.vm()->thread(1).tid(), 4);
  EXPECT_EQ(runner.vm()->thread(3).tid(), 4);  // stacked with vCPU 1
  EXPECT_TRUE(runner.vm()->kernel().params().use_eevdf);
}

TEST(ScenarioTest, GranAndFreqDirectives) {
  ScenarioRunner runner(10);
  const char* script = R"(
host sockets=1 cores=2 smt=1
gran tid=0 min=8ms wakeup=2ms
freq core=1 mult=0.5
vm vcpus=2
run 1ms
)";
  ASSERT_TRUE(runner.RunScript(script)) << runner.error();
  EXPECT_EQ(runner.vm()->kernel().machine()->sched(0).params().min_granularity, MsToNs(8));
  EXPECT_EQ(runner.vm()->kernel().machine()->sched(0).params().wakeup_granularity, MsToNs(2));
  EXPECT_DOUBLE_EQ(runner.vm()->kernel().machine()->CoreFreq(1), 0.5);
}

TEST(NiceLevelTest, WeightTableAndFairness) {
  EXPECT_DOUBLE_EQ(NiceToWeight(0), 1024.0);
  EXPECT_DOUBLE_EQ(NiceToWeight(-20), 88761.0);
  EXPECT_DOUBLE_EQ(NiceToWeight(19), 15.0);
  // Each nice step ≈ 1.25x.
  EXPECT_NEAR(NiceToWeight(-1) / NiceToWeight(0), 1.25, 0.01);
  EXPECT_NEAR(NiceToWeight(0) / NiceToWeight(1), 1.25, 0.01);
}

}  // namespace
}  // namespace vsched
