// Isolation probes: single layers driven directly, each reporting host ns
// per operation (or per simulated ms) next to its operation count.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>

#include "perfbench/src/trace.h"

namespace perfbench {

struct ProbeResult {
  double ns_per_op = 0;  // or ns per simulated ms for the stepping probes
  double ops = 0;        // operations (or simulated ms) the rate is over
};

// sim: EventQueue churn at a steady 1024 pending events; one op is one
// ScheduleAt or one dispatch.
ProbeResult ProbeEventQueue(uint64_t seed, Tracer* tracer, int parent);

// sim: TimerWheel with 512 self-re-arming periodic timers at the simulator's
// periods (pair-probe 10 us up to 20 ms bandwidth refills); one op is one
// fire (probe + dispatch + re-arm).
ProbeResult ProbeTimerWheel(uint64_t seed, Tracer* tracer, int parent);

// guest: Runqueue pick/dequeue/enqueue cycles at depth 16, CFS and EEVDF;
// one op is one of those calls.
ProbeResult ProbeRunqueue(uint64_t seed, Tracer* tracer, int parent);

// guest: a mostly-idle 32-vCPU VM (stock CFS, one lightly loaded latency
// app) stepped by Simulation::RunFor; ns per simulated ms.
ProbeResult ProbeIdleVm(uint64_t seed, Tracer* tracer, int parent);

// host: a 32-thread HostMachine time-shared by stressors only, at the Fig 2
// host granularities (2, 4, 8, 16 ms); ns per simulated ms.
ProbeResult ProbeHostStressors(uint64_t seed, Tracer* tracer, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
