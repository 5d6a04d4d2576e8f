// Tests for vsched-lint (tools/lint/): every rule must fire on a minimal
// offending snippet, stay silent on conforming code, respect directory
// scoping, and honour the // vsched-lint: allow(...) suppression comment on
// both the same line and the line above.
#include "tools/lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace vsched {
namespace lint {
namespace {

std::vector<std::string> RuleNamesIn(const std::vector<Finding>& findings) {
  std::vector<std::string> names;
  for (const Finding& f : findings) {
    names.push_back(f.rule);
  }
  return names;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --- wall-clock ------------------------------------------------------------

TEST(LintWallClock, FiresOnSystemClockInSimCode) {
  auto f = LintFile("src/sim/foo.cc",
                    "void F() {\n  auto t = std::chrono::system_clock::now();\n}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "wall-clock");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintWallClock, FiresOnSteadyClockAndCApis) {
  EXPECT_TRUE(HasRule(LintFile("src/guest/a.cc", "x = steady_clock::now();\n"), "wall-clock"));
  EXPECT_TRUE(HasRule(LintFile("src/host/a.cc", "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
                      "wall-clock"));
  EXPECT_TRUE(HasRule(LintFile("src/core/a.cc", "gettimeofday(&tv, nullptr);\n"), "wall-clock"));
}

TEST(LintWallClock, IgnoresTheRunnerHarness) {
  // The runner measures harness wall time for reports — legitimate.
  auto f = LintFile("src/runner/runner.cc", "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_FALSE(HasRule(f, "wall-clock"));
}

TEST(LintWallClock, DoesNotFireOnSimilarIdentifiers) {
  // TimeToComplete(...) contains "time(" as a substring of an identifier.
  auto f = LintFile("src/sim/a.cc", "void F() {\n  TimeNs t = TimeToComplete(work, cap);\n}\n");
  EXPECT_TRUE(f.empty());
}

// --- libc-rand -------------------------------------------------------------

TEST(LintLibcRand, FiresOnRandFamilyAndRandomDevice) {
  EXPECT_TRUE(HasRule(LintFile("src/sim/a.cc", "int x = rand() % 7;\n"), "libc-rand"));
  EXPECT_TRUE(HasRule(LintFile("src/runner/a.cc", "srand(42);\n"), "libc-rand"));
  EXPECT_TRUE(HasRule(LintFile("src/core/a.cc", "std::random_device rd;\n"), "libc-rand"));
  EXPECT_TRUE(HasRule(LintFile("src/host/a.cc", "double d = drand48();\n"), "libc-rand"));
}

TEST(LintLibcRand, IgnoresSeededSimulatorRng) {
  auto f = LintFile("src/sim/a.cc", "void F() {\n  Rng rng(seed);\n  double d = rng.NextDouble();\n}\n");
  EXPECT_TRUE(f.empty());
}

// --- unordered-container ---------------------------------------------------

TEST(LintUnordered, FiresInSchedulerCoreOnly) {
  const std::string snippet = "std::unordered_map<int, Task*> by_id;\n";
  EXPECT_TRUE(HasRule(LintFile("src/sim/a.h", snippet), "unordered-container"));
  EXPECT_TRUE(HasRule(LintFile("src/guest/a.h", snippet), "unordered-container"));
  EXPECT_TRUE(HasRule(LintFile("src/host/a.h", snippet), "unordered-container"));
  // Outside the scheduler core the iteration-order hazard does not bind.
  EXPECT_FALSE(HasRule(LintFile("src/metrics/a.h", snippet), "unordered-container"));
}

TEST(LintCluster, ControlPlaneIsSimulatedWorldCode) {
  // The fleet control plane replays byte-identically, so it inherits both
  // the wall-clock ban and the hash-iteration-order ban.
  EXPECT_TRUE(HasRule(
      LintFile("src/cluster/fleet.cc", "auto t = std::chrono::steady_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(HasRule(
      LintFile("src/cluster/placement.h", "std::unordered_map<int, int> by_host;\n"),
      "unordered-container"));
  EXPECT_TRUE(HasRule(LintFile("src/cluster/fleet.cc", "int x = rand() % 7;\n"),
                      "libc-rand"));
}

TEST(LintUnordered, FiresOnUnorderedSetToo) {
  EXPECT_TRUE(
      HasRule(LintFile("src/guest/a.cc", "std::unordered_set<uint64_t> seen;\n"),
              "unordered-container"));
}

// --- unseeded-rng ----------------------------------------------------------

TEST(LintUnseededRng, FiresOnDefaultConstructedEngines) {
  EXPECT_TRUE(HasRule(LintFile("src/sim/a.cc", "std::mt19937 gen;\n"), "unseeded-rng"));
  EXPECT_TRUE(HasRule(LintFile("src/guest/a.cc", "std::mt19937_64 gen{};\n"), "unseeded-rng"));
  EXPECT_TRUE(
      HasRule(LintFile("src/core/a.cc", "std::default_random_engine e();\n"), "unseeded-rng"));
}

TEST(LintUnseededRng, IgnoresExplicitlySeededEngines) {
  auto f = LintFile("src/sim/a.cc", "std::mt19937 gen(seed);\nstd::mt19937_64 g2{seed};\n");
  EXPECT_FALSE(HasRule(f, "unseeded-rng"));
}

// --- raw-double-accum ------------------------------------------------------

TEST(LintRawAccum, FiresOnMemberLoadAndVruntimeAccumulation) {
  EXPECT_TRUE(
      HasRule(LintFile("src/guest/a.cc", "load_ += task->weight();\n"), "raw-double-accum"));
  EXPECT_TRUE(HasRule(LintFile("src/host/a.cc", "e->vruntime_ += delta * scale;\n"),
                      "raw-double-accum"));
  EXPECT_TRUE(
      HasRule(LintFile("src/guest/a.cc", "total_load_ -= w;\n"), "raw-double-accum"));
}

TEST(LintRawAccum, IgnoresLocalsAndPlainAssignment) {
  // Locals (no trailing underscore) are fresh per call — no drift.
  EXPECT_FALSE(
      HasRule(LintFile("src/guest/a.cc", "double my_load = 0;\nmy_load += w;\n"),
              "raw-double-accum"));
  EXPECT_FALSE(
      HasRule(LintFile("src/guest/a.cc", "load_ = recompute();\n"), "raw-double-accum"));
}

// --- pelt-eager-update -----------------------------------------------------

TEST(LintPeltUpdate, FiresOnDirectMemberUpdateInSrc) {
  EXPECT_TRUE(HasRule(LintFile("src/guest/guest_kernel.cc",
                               "task->pelt_.Update(now, true);\n"),
                      "pelt-eager-update"));
  EXPECT_TRUE(HasRule(LintFile("src/core/bvs.cc", "t->pelt_.Update(now, false);\n"),
                      "pelt-eager-update"));
  EXPECT_TRUE(HasRule(LintFile("src/guest/a.cc", "PeltSignal::Update(now, true);\n"),
                      "pelt-eager-update"));
}

TEST(LintPeltUpdate, IgnoresPeltImplementationAndReaders) {
  // pelt.cc / pelt.h are the signal's own implementation.
  EXPECT_FALSE(HasRule(LintFile("src/guest/pelt.cc",
                                "void PeltSignal::Update(TimeNs now, bool active) {\n"),
                       "pelt-eager-update"));
  EXPECT_FALSE(HasRule(LintFile("src/guest/pelt.h", "void Update(TimeNs now, bool active);\n"),
                       "pelt-eager-update"));
  // Lazy reads are the intended API.
  EXPECT_FALSE(HasRule(LintFile("src/core/bvs.cc",
                                "double u = t->pelt_.UtilAt(now, active);\n"),
                       "pelt-eager-update"));
  // Tests and tools are out of scope.
  EXPECT_FALSE(HasRule(LintFile("tests/guest/pelt_test.cc", "sig.pelt_.Update(now, true);\n"),
                       "pelt-eager-update"));
}

TEST(LintPeltUpdate, AllowCommentMarksDesignatedEntryPoints) {
  const std::string snippet =
      "void GuestVcpu::CloseSegment(TimeNs now) {\n"
      "  // vsched-lint: allow(pelt-eager-update)\n"
      "  current_->pelt_.Update(now, true);\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/guest/guest_vcpu.cc", snippet).empty());
}

// --- fault-injection-point -------------------------------------------------

TEST(LintFaultHook, FiresOnHooksOutsideDesignatedPoints) {
  EXPECT_TRUE(HasRule(LintFile("src/core/bvs.cc",
                               "if (injector->DropSample(ProbePoint::kVcapWindow)) {\n"),
                      "fault-injection-point"));
  EXPECT_TRUE(HasRule(LintFile("src/guest/guest_kernel.cc",
                               "v = injector->CorruptSample(ProbePoint::kVactTick, v);\n"),
                      "fault-injection-point"));
}

TEST(LintFaultHook, IgnoresTheInjectorImplementationAndTests) {
  // src/fault owns the hooks' implementation.
  EXPECT_FALSE(HasRule(LintFile("src/fault/fault_injector.cc",
                                "bool FaultInjector::DropSample(ProbePoint point) {\n"),
                       "fault-injection-point"));
  // Tests and tools are out of scope.
  EXPECT_FALSE(HasRule(LintFile("tests/fault/fault_injector_test.cc",
                                "EXPECT_FALSE(injector.DropSample(ProbePoint::kVactTick));\n"),
                       "fault-injection-point"));
}

TEST(LintFaultHook, AllowCommentMarksDesignatedInjectionPoints) {
  const std::string snippet =
      "// vsched-lint: allow(fault-injection-point) — registered kVcapWindow site\n"
      "if (injector->DropSample(ProbePoint::kVcapWindow)) {\n";
  EXPECT_TRUE(LintFile("src/probe/vcap.cc", snippet).empty());
}

// --- mutable-global --------------------------------------------------------

TEST(LintMutableGlobal, FiresOnNamespaceScopeState) {
  const std::string snippet =
      "namespace vsched {\n"
      "static int g_counter = 0;\n"
      "}  // namespace vsched\n";
  auto f = LintFile("src/guest/globals.cc", snippet);
  ASSERT_TRUE(HasRule(f, "mutable-global")) << f.size();
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintMutableGlobal, FiresOnThreadLocalAndAnonymousNamespaces) {
  const std::string snippet =
      "namespace {\n"
      "thread_local uint64_t g_calls = 0;\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintFile("src/core/a.cc", snippet), "mutable-global"));
}

TEST(LintMutableGlobal, AllowsConstConstexprAndSrcBase) {
  const std::string ok =
      "namespace vsched {\n"
      "constexpr int kLimit = 8;\n"
      "const char* const kName = nullptr;\n"
      "inline constexpr double kScale = 1024.0;\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintFile("src/guest/a.h", ok), "mutable-global"));
  // src/base owns process-wide state (perf counters, audit flag).
  EXPECT_FALSE(HasRule(LintFile("src/base/log.cc",
                                "namespace vsched {\nLogLevel g_level = LogLevel::kWarn;\n}\n"),
                       "mutable-global"));
}

TEST(LintMutableGlobal, IgnoresFunctionBodiesAndMembers) {
  const std::string snippet =
      "namespace vsched {\n"
      "int Count() {\n"
      "  static int calls = 0;\n"  // function-local: not namespace scope
      "  return ++calls;\n"
      "}\n"
      "class Foo {\n"
      "  int counter_ = 0;\n"  // member: not namespace scope
      "};\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintFile("src/guest/a.cc", snippet), "mutable-global"));
}

// --- comments, strings, suppressions ---------------------------------------

TEST(LintScrub, CommentsAndStringsNeverFire) {
  const std::string snippet =
      "// std::chrono::system_clock is forbidden here\n"
      "/* rand() would also be wrong */\n"
      "const char* msg = \"calls system_clock::now() and rand()\";\n";
  EXPECT_TRUE(LintFile("src/sim/a.cc", snippet).empty());
}

TEST(LintScrub, BlockCommentStateSpansLines) {
  const std::string snippet =
      "/* a multi-line comment mentioning\n"
      "   std::chrono::system_clock::now()\n"
      "   and rand() */\n"
      "void Tick();\n";
  EXPECT_TRUE(LintFile("src/sim/a.cc", snippet).empty());
}

TEST(LintSuppression, SameLineAllowSilencesTheRule) {
  auto f = LintFile("src/guest/a.cc",
                    "load_ += w;  // vsched-lint: allow(raw-double-accum) — compensated below\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintSuppression, PreviousLineAllowSilencesTheRule) {
  const std::string snippet =
      "void F() {\n"
      "  // vsched-lint: allow(wall-clock) — documented exception\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/sim/a.cc", snippet).empty());
}

TEST(LintSuppression, AllowListCoversMultipleRules) {
  const std::string snippet =
      "void F() {\n"
      "  // vsched-lint: allow(wall-clock, libc-rand)\n"
      "  auto t = steady_clock::now(); int r = rand();\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/sim/a.cc", snippet).empty());
}

TEST(LintSuppression, WrongRuleNameDoesNotSilence) {
  const std::string snippet =
      "// vsched-lint: allow(libc-rand)\n"
      "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(HasRule(LintFile("src/sim/a.cc", snippet), "wall-clock"));
}

TEST(LintSuppression, AllowDoesNotLeakPastTheNextLine) {
  const std::string snippet =
      "void F() {\n"
      "  // vsched-lint: allow(wall-clock)\n"
      "  int unrelated = 0;\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "}\n";
  auto f = LintFile("src/sim/a.cc", snippet);
  ASSERT_TRUE(HasRule(f, "wall-clock"));
  EXPECT_EQ(f[0].line, 4);
}

// --- rule registry / multi-finding behaviour -------------------------------

TEST(LintRules, RegistryListsEveryRuleExactlyOnce) {
  std::vector<std::string> names;
  for (const RuleInfo& r : Rules()) {
    names.push_back(r.name);
  }
  std::vector<std::string> expected = {"wall-clock",       "libc-rand",
                                       "unordered-container", "unseeded-rng",
                                       "raw-double-accum",    "pelt-eager-update",
                                       "fault-injection-point", "adversary-surface",
                                       "mutable-global",      "event-lifetime",
                                       "shard-isolation",     "shard-crossing"};
  std::sort(names.begin(), names.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names, expected);
}

TEST(LintRules, MultipleViolationsReportDistinctLines) {
  const std::string snippet =
      "void Poll() {\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "  void Tick();\n"
      "  int r = rand();\n"
      "}\n";
  auto f = LintFile("src/sim/a.cc", snippet);
  ASSERT_EQ(f.size(), 2u) << RuleNamesIn(f).size();
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].line, 4);
}

}  // namespace
}  // namespace lint
}  // namespace vsched
