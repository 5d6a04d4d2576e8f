// Runtime invariant auditing for the simulator core.
//
// The audit layer is the dynamic half of the correctness tooling (the static
// half is tools/lint/): when enabled, the core data structures re-verify
// their own invariants after every mutation — heap order and back-pointers
// of the one dispatch heap of timers and events in EventQueue, sort order
// and compensated-load agreement in Runqueue, clock monotonicity in
// Simulation, queue/bandwidth consistency in CpuSched. Auditing only *reads*
// simulator state, so an audited run produces byte-identical output to an
// unaudited one — just slower (every hook is a full O(n) structure scan).
//
// Enablement is a process-wide runtime switch: the VSCHED_AUDIT environment
// variable (any value but "0"), audit::SetEnabled(true), or vsched_run
// --audit. When disabled, each hook costs one relaxed atomic load.
//
// A violation reports through the installed handler; the default prints the
// failed invariant and aborts (same philosophy as VSCHED_CHECK: loud failure
// over silent corruption). Tests install a recording handler via
// audit::ScopedHandler to assert that deliberately corrupted structures are
// caught without killing the test binary.
#ifndef SRC_BASE_AUDIT_H_
#define SRC_BASE_AUDIT_H_

#include <atomic>
#include <cstdint>

namespace vsched {
namespace audit {

// Called with the location, the stringified invariant expression, and a
// human-oriented detail string (may be nullptr).
using Handler = void (*)(const char* file, int line, const char* invariant, const char* detail);

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// True when invariant auditing is active. Cheap enough to guard hot paths.
inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on);

// Number of violations reported since process start (or the last Reset).
uint64_t ViolationCount();
void ResetViolationCount();

// Installs `h` as the violation handler and returns the previous one.
// Passing nullptr restores the default abort-on-violation handler.
Handler SetHandler(Handler h);

// Records a violation (bumps ViolationCount) and invokes the handler.
void ReportViolation(const char* file, int line, const char* invariant, const char* detail);

// RAII: enable auditing for a scope (tests, the --audit CLI path).
class ScopedEnable {
 public:
  ScopedEnable() : prev_(Enabled()) { SetEnabled(true); }
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

// RAII: swap the violation handler for a scope (tests install a recorder).
class ScopedHandler {
 public:
  explicit ScopedHandler(Handler h) : prev_(SetHandler(h)) {}
  ~ScopedHandler() { SetHandler(prev_); }
  ScopedHandler(const ScopedHandler&) = delete;
  ScopedHandler& operator=(const ScopedHandler&) = delete;

 private:
  Handler prev_;
};

}  // namespace audit
}  // namespace vsched

// Verifies `expr` only while auditing is enabled. Unlike VSCHED_CHECK this
// routes through the audit handler, so tests can observe violations without
// dying, and a release binary running --audit still gets the full report.
#define VSCHED_AUDIT_CHECK(expr, detail)                                        \
  do {                                                                          \
    if (::vsched::audit::Enabled() && !(expr)) {                                \
      ::vsched::audit::ReportViolation(__FILE__, __LINE__, #expr, (detail));    \
    }                                                                           \
  } while (0)

#endif  // SRC_BASE_AUDIT_H_
