// Lightweight hot-path accounting for the simulator core.
//
// Counters are plain per-thread tallies, not atomics: each simulation runs
// entirely on one thread (the runner gives every run its own Simulation), so
// a thread-local "current counters" pointer is race-free and costs one TLS
// load per increment. Components cache the pointer at construction; the
// runner installs a fresh PerfCounters around each run via Scope and attaches
// the totals to the RunResult, where `vsched_run --timings` surfaces them as
// events/sec and allocation tallies (see docs/PERF.md).
#ifndef SRC_BASE_PERF_COUNTERS_H_
#define SRC_BASE_PERF_COUNTERS_H_

#include <cstdint>

namespace vsched {

struct PerfCounters {
  // One-shot event traffic on the dispatch heap (src/sim/event_queue.h).
  uint64_t events_scheduled = 0;
  uint64_t events_executed = 0;
  uint64_t events_cancelled = 0;

  // Allocation pressure: steady state should be zero for both — slabs are
  // amortized and callbacks should fit the inline buffer.
  uint64_t callback_heap_allocs = 0;
  uint64_t event_slab_allocs = 0;

  // Runqueue traffic.
  uint64_t rq_enqueues = 0;
  uint64_t rq_dequeues = 0;
  uint64_t rq_picks = 0;

  // Registered-timer traffic on the same heap. A re-arm of an armed timer
  // counts as a cancel and an arm.
  uint64_t timer_arms = 0;
  uint64_t timer_fires = 0;
  uint64_t timer_cancels = 0;
  // Always 0: timers sit on one heap and have no wheel levels to cascade. Kept
  // because perfbench reads and reports it (`sim.timer_cascades`).
  uint64_t timer_cascades = 0;

  // Periodic firings skipped entirely by tickless elision (guest scheduler
  // ticks on inactive vCPUs, dormant host bandwidth refills).
  uint64_t ticks_elided = 0;

  void Reset() { *this = PerfCounters{}; }

  // Accumulates another tally into this one — how the sharded fleet engine
  // folds its per-cell counters into the run's ambient sink at Finish.
  void MergeFrom(const PerfCounters& other) {
    events_scheduled += other.events_scheduled;
    events_executed += other.events_executed;
    events_cancelled += other.events_cancelled;
    callback_heap_allocs += other.callback_heap_allocs;
    event_slab_allocs += other.event_slab_allocs;
    rq_enqueues += other.rq_enqueues;
    rq_dequeues += other.rq_dequeues;
    rq_picks += other.rq_picks;
    timer_arms += other.timer_arms;
    timer_fires += other.timer_fires;
    timer_cancels += other.timer_cancels;
    timer_cascades += other.timer_cascades;
    ticks_elided += other.ticks_elided;
  }

  // The thread's active counters; never null (falls back to a per-thread
  // default sink when no Scope is installed).
  static PerfCounters* Current();

  // Installs `counters` as the calling thread's sink for its lifetime;
  // restores the previous sink on destruction. Not reentrancy-hostile:
  // scopes nest.
  class Scope {
   public:
    explicit Scope(PerfCounters* counters);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PerfCounters* prev_;
  };
};

namespace internal {
extern thread_local PerfCounters* g_perf_current;
}  // namespace internal

inline PerfCounters* PerfCounters::Current() { return internal::g_perf_current; }

}  // namespace vsched

#endif  // SRC_BASE_PERF_COUNTERS_H_
