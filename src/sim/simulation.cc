#include "src/sim/simulation.h"

#include <algorithm>

namespace vsched {

void Simulation::RunUntil(TimeNs deadline) {
  const TimeNs before = queue_.now();
  // Interleave the two backends. At equal timestamps the wheel's timer band
  // fires first (tw <= limit includes tw == tq), so periodic timers always
  // precede heap events at their instant — whether or not ticks are elided,
  // which is what keeps the heap's sequence-number stream elision-invariant.
  for (;;) {
    const TimeNs tq = queue_.NextEventTime();
    const TimeNs limit = std::min(tq, deadline);
    const TimeNs tw = wheel_.NextDeadlineAtMost(limit);
    if (tw <= limit) {
      queue_.AdvanceClockTo(tw);
      ++events_dispatched_;
      if (event_budget_ != 0 && events_dispatched_ > event_budget_) {
        throw SimBudgetExceeded(event_budget_);
      }
      wheel_.RunOne(tw);
      if (audit::Enabled()) {
        wheel_.AuditVerify();
      }
      continue;
    }
    if (tq > deadline) {
      break;
    }
    band_closed_at_ = tq;
    ++events_dispatched_;
    if (event_budget_ != 0 && events_dispatched_ > event_budget_) {
      throw SimBudgetExceeded(event_budget_);
    }
    queue_.RunOne();
  }
  queue_.AdvanceClockTo(deadline);
  if (queue_.now() == deadline) {
    band_closed_at_ = deadline;
  }
  VSCHED_AUDIT_CHECK(queue_.now() >= before, "simulation clock moved backwards");
  VSCHED_AUDIT_CHECK(deadline <= before || queue_.now() == deadline,
                     "RunUntil did not land on its deadline");
}

}  // namespace vsched
