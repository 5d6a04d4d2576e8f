// Fixtures for the event-lifetime rule (tools/lint/analyzer.h).
//
// The two "must flag" fixtures are byte-for-byte reductions of the PR-6
// use-after-frees: the Ivh handshake continuation and the GuestKernel
// resched-IPI closure, exactly as they read before the fix (taken from the
// seed tree). Re-introducing either pattern must fail vsched_lint_src; their
// fixed forms (weak_ptr liveness token + expired() check) must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace vsched {
namespace lint {
namespace {

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

const Finding* FindRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      return &f;
    }
  }
  return nullptr;
}

// --- PR-6 bug #1: Ivh handshake continuation --------------------------------

TEST(LintEventLifetime, FlagsThePr6IvhRawThisCapture) {
  // Byte-for-byte: src/core/ivh.cc @ seed, Ivh::StartHandshake step 1. The
  // handshake posts into the IPI queue; a fleet teardown can destroy the Ivh
  // while the closure is still pending.
  const std::string snippet =
      "void Ivh::StartHandshake(GuestTask* task, int src, int dst, TimeNs now) {\n"
      "  uint64_t id = hs.id;\n"
      "  // Step 1: interrupt the target; pre-wake it if halted.\n"
      "  kernel_->RunOnVcpu(dst, [this, src, id] { TargetActivated(src, id); }, /*kick=*/true);\n"
      "}\n";
  auto f = LintFile("src/core/ivh.cc", snippet);
  const Finding* hit = FindRule(f, "event-lifetime");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->line, 4);
  EXPECT_EQ(hit->sink, "kernel_->RunOnVcpu");
  // The capture chain names `this` as the dangerous capture.
  ASSERT_FALSE(hit->captures.empty());
  EXPECT_EQ(hit->captures[0].name, "this");
  EXPECT_EQ(hit->captures[0].kind, "this");
}

TEST(LintEventLifetime, PassesThePr6IvhFixedForm) {
  // The PR-6 fix: a weak_ptr liveness token checked at invocation.
  const std::string snippet =
      "void Ivh::StartHandshake(GuestTask* task, int src, int dst, TimeNs now) {\n"
      "  uint64_t id = hs.id;\n"
      "  kernel_->RunOnVcpu(\n"
      "      dst,\n"
      "      [this, src, id, alive = std::weak_ptr<const bool>(alive_)] {\n"
      "        if (!alive.expired()) {\n"
      "          TargetActivated(src, id);\n"
      "        }\n"
      "      },\n"
      "      /*kick=*/true);\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/core/ivh.cc", snippet).empty());
}

// --- PR-6 bug #2: GuestKernel resched-IPI closure ---------------------------

TEST(LintEventLifetime, FlagsThePr6GuestKernelReschedIpiCapture) {
  // Byte-for-byte: src/guest/guest_kernel.cc @ seed, SendReschedIpi. Both
  // `this` and the raw GuestVcpu* ride the event queue unprotected.
  const std::string snippet =
      "void GuestKernel::SendReschedIpi(int from_cpu, int to_cpu) {\n"
      "  CountIpi(from_cpu, to_cpu);\n"
      "  GuestVcpu* v = vcpus_[to_cpu].get();\n"
      "  v->resched_pending_ = true;\n"
      "  sim_->After(params_.ipi_delay, [this, v] {\n"
      "    if (v->active() && v->resched_pending_) {\n"
      "      v->Reschedule(sim_->now());\n"
      "    }\n"
      "  });\n"
      "}\n";
  auto f = LintFile("src/guest/guest_kernel.cc", snippet);
  const Finding* hit = FindRule(f, "event-lifetime");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->line, 5);
  EXPECT_EQ(hit->sink, "sim_->After");
  // The local declaration resolved: `v` is a raw GuestVcpu pointer.
  bool saw_raw_v = false;
  for (const Capture& c : hit->captures) {
    if (c.name == "v") {
      EXPECT_EQ(c.kind, "raw-pointer");
      EXPECT_NE(c.type.find("GuestVcpu"), std::string::npos);
      saw_raw_v = true;
    }
  }
  EXPECT_TRUE(saw_raw_v);
}

TEST(LintEventLifetime, PassesThePr6GuestKernelFixedForm) {
  const std::string snippet =
      "void GuestKernel::SendReschedIpi(int from_cpu, int to_cpu) {\n"
      "  CountIpi(from_cpu, to_cpu);\n"
      "  GuestVcpu* v = vcpus_[to_cpu].get();\n"
      "  v->resched_pending_ = true;\n"
      "  sim_->After(params_.ipi_delay,\n"
      "              [this, v, alive = std::weak_ptr<const bool>(alive_)] {\n"
      "                if (alive.expired()) {\n"
      "                  return;\n"
      "                }\n"
      "                if (v->active() && v->resched_pending_) {\n"
      "                  v->Reschedule(sim_->now());\n"
      "                }\n"
      "              });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/guest/guest_kernel.cc", snippet).empty());
}

// --- capture kinds ----------------------------------------------------------

TEST(LintEventLifetime, FlagsDefaultCaptures) {
  EXPECT_TRUE(HasRule(
      LintFile("src/probe/a.cc", "void P::Arm() {\n  sim_->After(d, [&] { Fire(); });\n}\n"),
      "event-lifetime"));
  EXPECT_TRUE(HasRule(
      LintFile("src/probe/a.cc", "void P::Arm() {\n  sim_->After(d, [=] { Fire(); });\n}\n"),
      "event-lifetime"));
}

TEST(LintEventLifetime, FlagsByReferenceCapture) {
  const std::string snippet =
      "void P::Arm() {\n"
      "  int window = 0;\n"
      "  sim_->After(d, [&window] { window++; });\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintFile("src/probe/a.cc", snippet), "event-lifetime"));
}

TEST(LintEventLifetime, PassesPlainValueCaptures) {
  const std::string snippet =
      "void P::Arm(int task_id, TimeNs when) {\n"
      "  sim_->After(d, [task_id, when] { Publish(task_id, when); });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/probe/a.cc", snippet).empty());
}

TEST(LintEventLifetime, PassesSharedPtrOwnerCapture) {
  const std::string snippet =
      "void P::Arm() {\n"
      "  std::shared_ptr<Window> win = MakeWindow();\n"
      "  sim_->After(d, [win] { win->Close(); });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/probe/a.cc", snippet).empty());
}

TEST(LintEventLifetime, UncheckedTokenDoesNotCount) {
  // Carrying the token is not enough — the body must actually check it.
  const std::string snippet =
      "void P::Arm() {\n"
      "  sim_->After(d, [this, alive = std::weak_ptr<const bool>(alive_)] {\n"
      "    Fire();\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintFile("src/probe/a.cc", snippet), "event-lifetime"));
}

TEST(LintEventLifetime, LockCheckCountsAsGuard) {
  const std::string snippet =
      "void P::Arm() {\n"
      "  sim_->After(d, [this, alive = std::weak_ptr<const bool>(alive_)] {\n"
      "    if (alive.lock()) {\n"
      "      Fire();\n"
      "    }\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/probe/a.cc", snippet).empty());
}

// --- sink coverage ----------------------------------------------------------

TEST(LintEventLifetime, CoversTimerTickHookAndPeriodicSinks) {
  EXPECT_TRUE(HasRule(
      LintFile("src/host/a.cc", "void S::Init() {\n  t_ = sim_->CreateTimer([this] { Fire(); });\n}\n"),
      "event-lifetime"));
  EXPECT_TRUE(HasRule(
      LintFile("src/core/a.cc",
               "void S::Init() {\n  kernel_->AddTickHook([this](GuestVcpu* v, TimeNs now) { OnTick(v, now); });\n}\n"),
      "event-lifetime"));
  EXPECT_TRUE(HasRule(
      LintFile("src/cluster/a.cc", "void S::Init() {\n  h_ = sim_->At(when, [this] { Tick(); });\n}\n"),
      "event-lifetime"));
  EXPECT_TRUE(HasRule(
      LintFile("src/sim/a.cc", "void S::Init() {\n  q_.ScheduleAt(when, [this] { Fire(); });\n}\n"),
      "event-lifetime"));
  EXPECT_TRUE(HasRule(
      LintFile("src/fault/a.cc", "void S::Init() {\n  ArmArrival(spec, [this] { OnArrival(); });\n}\n"),
      "event-lifetime"));
}

TEST(LintEventLifetime, OrdinaryCallbacksAreNotSinks) {
  // Synchronous visitors / comparators run inside the caller's frame.
  const std::string snippet =
      "void S::Sort() {\n"
      "  std::sort(v_.begin(), v_.end(), [this](int a, int b) { return Rank(a) < Rank(b); });\n"
      "  ForEach([this](Task* t) { Touch(t); });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/guest/a.cc", snippet).empty());
}

TEST(LintEventLifetime, ForwardedArgumentsAreNotLambdaLiterals) {
  // The posting wrapper itself forwards an opaque callable — that is the
  // call *sites'* responsibility, not the wrapper's.
  const std::string snippet =
      "template <typename F>\n"
      "void FaultInjector::ArmArrival(const ArrivalSpec& spec, F fn) {\n"
      "  Track(sim_->At(at, std::forward<F>(fn)));\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/fault/fault_injector.h", snippet).empty());
}

// --- scoping and suppression ------------------------------------------------

TEST(LintEventLifetime, OnlyBindsToSrc) {
  const std::string snippet =
      "void F() {\n  sim_->After(d, [this] { Fire(); });\n}\n";
  EXPECT_FALSE(HasRule(LintFile("tests/sim/a_test.cc", snippet), "event-lifetime"));
  EXPECT_TRUE(HasRule(LintFile("src/sim/a.cc", snippet), "event-lifetime"));
}

TEST(LintEventLifetime, AllowCommentSuppresses) {
  const std::string bare =
      "void CpuSched::Attach(HostEntity* e) {\n"
      "  HostEntity* raw = e;\n"
      "  raw->bw_refill_timer_ = sim_->CreateTimer([raw] { raw->Refill(); });\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintFile("src/host/cpu_sched.cc", bare), "event-lifetime"));

  const std::string allowed =
      "void CpuSched::Attach(HostEntity* e) {\n"
      "  HostEntity* raw = e;\n"
      "  // vsched-lint: allow(event-lifetime) — the entity outlives its timer\n"
      "  raw->bw_refill_timer_ = sim_->CreateTimer([raw] { raw->Refill(); });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/host/cpu_sched.cc", allowed).empty());
}

}  // namespace
}  // namespace lint
}  // namespace vsched
