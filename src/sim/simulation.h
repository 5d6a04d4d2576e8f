// Top-level simulation context: clock + dispatch heap + root RNG.
//
// Every simulated component (host scheduler, guest kernel, workloads,
// probers) holds a Simulation* and schedules through it: one-shot closures
// with At/After, and registered timers, re-armed in place, with
// CreateTimer/ArmTimerAt. Both share one EventQueue, which fires timers
// before closures at equal timestamps, timers in TimerId order and closures
// in post order. That order is history-independent, which is what lets
// tickless elision skip firings without perturbing any neighbouring event
// (the byte-identical-JSONL contract; docs/PERF.md, "The dispatch heap").
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace vsched {

// Thrown by Simulation::RunUntil when the dispatched-event budget set via
// SetEventBudget is exhausted. A runaway run (livelocked event storm,
// pathological plan) trips this deterministically — the budget counts
// simulated events, not wall time — so the runner can record the cell as
// `timeout` and move on, reproducibly.
class SimBudgetExceeded : public std::runtime_error {
 public:
  explicit SimBudgetExceeded(uint64_t budget)
      : std::runtime_error("simulated event budget exceeded (" + std::to_string(budget) +
                           " events)") {}
};

class Simulation {
 public:
  explicit Simulation(uint64_t seed) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  // Derives an independent RNG stream for a component.
  Rng ForkRng() { return rng_.Fork(); }

  template <typename F>
  EventId At(TimeNs when, F&& fn) {
    return queue_.ScheduleAt(when, std::forward<F>(fn));
  }
  template <typename F>
  EventId After(TimeNs delay, F&& fn) {
    return queue_.ScheduleAfter(delay, std::forward<F>(fn));
  }
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // --- timers ---------------------------------------------------------------
  // A timer is a registered slot with a fixed callback, re-armed in place:
  // the natural shape for periodic work (no per-firing allocation, no stale
  // handle growth). Ids are stable until DestroyTimer.

  template <typename F>
  TimerId CreateTimer(F&& fn) {
    return queue_.Register(EventCallback(std::forward<F>(fn)));
  }
  void DestroyTimer(TimerId id) { queue_.Unregister(id); }

  void ArmTimerAt(TimerId id, TimeNs when) { queue_.Arm(id, when); }
  void ArmTimerAfter(TimerId id, TimeNs delay) { ArmTimerAt(id, now() + delay); }
  bool CancelTimer(TimerId id) { return queue_.Cancel(id); }
  bool TimerArmed(TimerId id) const { return queue_.IsArmed(id); }

  // True if timer `id` armed right now for `when` >= now() would still fire
  // at `when` (EventQueue::StillFiresAt). Tickless re-arms use it to decide
  // whether an elided periodic timer still fires in its natural position
  // this instant; the vtop pair probe uses it to place a run change that
  // lands on a sample instant before or after that sample.
  bool TimerStillFiresAt(TimerId id, TimeNs when) const { return queue_.StillFiresAt(id, when); }

  // Next firing time on the grid {origin + k*period, k >= 0} for a periodic
  // timer being re-armed at now(): now() itself when now() sits on the
  // grid and the timer's position this instant has not yet passed,
  // otherwise the next strictly-future grid point. This is what keeps an
  // elided-then-resumed periodic timer bit-identical to one that never
  // stopped. Requires now() >= origin.
  TimeNs NextGridPoint(TimeNs origin, TimeNs period, TimerId id) const {
    VSCHED_CHECK(period > 0 && now() >= origin);
    const TimeNs k = (now() - origin) / period;
    const TimeNs at_or_before = origin + k * period;
    if (at_or_before == now() && TimerStillFiresAt(id, now())) {
      return now();
    }
    return origin + (k + 1) * period;
  }

  // Deterministic watchdog: caps the total number of events + timer firings
  // this simulation may dispatch across all RunUntil calls; exceeding it
  // throws SimBudgetExceeded. 0 (the default) means unlimited. Pure
  // bookkeeping — a budget large enough never to trip changes nothing.
  void SetEventBudget(uint64_t budget) { event_budget_ = budget; }
  uint64_t events_dispatched() const { return events_dispatched_; }

  // Runs the simulation until `deadline`, then sets now() == deadline.
  void RunUntil(TimeNs deadline);

  // Runs `dur` more nanoseconds of simulated time.
  void RunFor(TimeNs dur) { RunUntil(now() + dur); }

 private:
  EventQueue queue_;
  Rng rng_;
  uint64_t event_budget_ = 0;
  uint64_t events_dispatched_ = 0;
};

}  // namespace vsched

#endif  // SRC_SIM_SIMULATION_H_
