// The timer band's old name. Registered timers live on the one dispatch heap
// in src/sim/event_queue.h; this alias exists only because perfbench's timer
// probe (perfbench/src/probes.cc) still includes this header and drives the
// heap as `TimerWheel`, through Register, Arm, NextDeadlineAtMost and
// RunOne(TimeNs). Code in src/ and tests/ names `EventQueue`.
#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include "src/sim/event_queue.h"

namespace vsched {

using TimerWheel = EventQueue;

}  // namespace vsched

#endif  // SRC_SIM_TIMER_WHEEL_H_
