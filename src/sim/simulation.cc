#include "src/sim/simulation.h"

namespace vsched {

void Simulation::RunUntil(TimeNs deadline) {
  const TimeNs before = queue_.now();
  while (queue_.NextEventTime() <= deadline) {
    ++events_dispatched_;
    if (event_budget_ != 0 && events_dispatched_ > event_budget_) {
      throw SimBudgetExceeded(event_budget_);
    }
    queue_.RunOne();
  }
  // Nothing is due: this only moves the clock and closes the instant.
  queue_.RunUntil(deadline);
  VSCHED_AUDIT_CHECK(queue_.now() >= before, "simulation clock moved backwards");
  VSCHED_AUDIT_CHECK(deadline <= before || queue_.now() == deadline,
                     "RunUntil did not land on its deadline");
}

}  // namespace vsched
