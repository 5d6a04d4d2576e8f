// vsched-lint v2: the semantic layer (symbol table + lambda-capture flow).
//
// The token rules in lint.cc catch *what code says* (a wall-clock call is a
// wall-clock call on any line). The bug class PR 6 fixed — event closures
// capturing `this` or a raw pointer into a queue that outlives the owner —
// is invisible at token level: the offending line looks identical to a safe
// one, and whether it is safe depends on *where the closure flows* and *what
// the capture list holds*. This analyzer adds exactly that much semantics,
// and no more:
//
//   1. a scope walk over the lexer's token stream (lexer.h) classifying each
//      brace as namespace / class / function / lambda / block, tracking the
//      enclosing class of member functions (including out-of-line
//      `Ret Cls::Fn(...)` definitions);
//   2. a per-scope symbol table of parameters and local declarations
//      (name → declared type text), enough to classify what a by-value
//      capture actually copies — an int, a shared_ptr, or a raw pointer;
//   3. a capture analyzer for every lambda literal passed to an event
//      *sink*: `Simulation::After/At`, `EventQueue::ScheduleAt/After`,
//      `CreateTimer`, the IPI queue (`GuestKernel::RunOnVcpu`), tick-hook
//      registration (`AddTickHook`), and the fault injector's posting
//      wrapper (`ArmArrival`).
//
// Three rule families run on top:
//
//   event-lifetime — a posted closure that captures `this`, a raw pointer,
//     or anything by reference must also carry a weak_ptr liveness token
//     *checked in the body* (`tok.expired()` / `tok.lock()`): the PR-6 fix
//     pattern. Fleet tenants tear their whole stack down mid-simulation, so
//     "the owner obviously outlives the queue" is not an argument — it has
//     to be machine-checked or explicitly allowed.
//
//   shard-isolation — in src/cluster/, state of another host may only be
//     touched through the control-plane message interface (the invariant
//     ROADMAP item 1's per-host PDES sharding will rely on): posted closures
//     must capture slot *ids* and re-resolve at delivery rather than hold
//     ClusterHost/TenantVm/HostMachine/Vm pointers across the event
//     boundary; per-host scopes (functions taking a ClusterHost*) must not
//     reach the fleet-wide slot array; placement policies consume
//     HostLoadView snapshots only.
//
//   shard-crossing — the sharded PDES engine's isolation contract (see
//     docs/PERF.md, "Sharded fleet execution"): a closure posted to a
//     `ShardMailbox` (the control-plane mailbox or a cell's inbox) is
//     applied at a *later instant*, possibly after the referenced cell ran
//     concurrently, and an inbox closure runs on that cell's worker thread —
//     it must carry ids and re-resolve cell-local state at delivery, never
//     FleetCell / Simulation / slot pointers or references; and per-cell
//     scopes (functions taking a FleetCell*) must not reach the engine-wide
//     `cells_` array — cross-cell effects travel as mailbox messages only.
//     `this` is allowed in mailbox closures: every mailbox dies with its
//     owner, which posts only while the cells are parked.
#ifndef TOOLS_LINT_ANALYZER_H_
#define TOOLS_LINT_ANALYZER_H_

#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace vsched {
namespace lint {

// One entry of a lambda's capture list, classified. `kind` is one of:
//   "this"         — captures the enclosing object raw
//   "star-this"    — *this copy (safe)
//   "default-ref"  — [&]
//   "default-copy" — [=] (implicitly captures this in member functions)
//   "by-ref"       — [&name]
//   "raw-pointer"  — by-value copy of a raw pointer (or pointer container)
//   "weak-token"   — a weak_ptr liveness token
//   "owner"        — shared_ptr copy (keeps the target alive)
//   "value"        — plain value copy
//   "unknown"      — unresolved symbol; treated as a value copy
// The kind strings are part of the JSON output schema (docs/ANALYSIS.md).
struct Capture {
  std::string name;
  std::string kind;
  std::string type;  // declared type text when resolved, "" otherwise
};

struct AnalysisFinding {
  int line = 0;
  std::string rule;  // "event-lifetime", "shard-isolation" or "shard-crossing"
  std::string message;
  std::string sink;  // the posting call, e.g. "sim_->After" (lifetime only)
  std::vector<Capture> captures;
};

const char kEventLifetimeRule[] = "event-lifetime";
const char kShardIsolationRule[] = "shard-isolation";
const char kShardCrossingRule[] = "shard-crossing";

// Runs both semantic rule families over one lexed TU. `path` decides
// scoping: event-lifetime binds to src/, shard-isolation to src/cluster/.
// Suppression filtering happens in the caller (LintFile) so the allow
// machinery stays in one place.
std::vector<AnalysisFinding> Analyze(const std::string& path, const LexResult& lex);

}  // namespace lint
}  // namespace vsched

#endif  // TOOLS_LINT_ANALYZER_H_
