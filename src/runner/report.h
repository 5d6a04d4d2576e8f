// Human-readable reports over runner results: the Figure 18/19 and Figure 2
// tables vsched_run prints for those sweeps, plus the wall-clock summary every
// sweep prints.
#ifndef SRC_RUNNER_REPORT_H_
#define SRC_RUNNER_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/runner/runner.h"

namespace vsched {

// Figure 18/19 table + normalized geomean summary. `banner_id` is "rcvm" or
// "hpvm". Expects the results of OverallSweep() (any filtered subset works;
// workloads missing a "cfs" baseline are skipped in the summary).
void PrintOverallReport(const std::string& banner_id, const std::vector<RunResult>& results,
                        std::FILE* out);

// Figure 2 tables: p95 normalized to the 16 ms configuration, with and
// without best-effort tasks. Expects the results of VcpuLatencySweep().
void PrintVcpuLatencyReport(const std::vector<RunResult>& results, std::FILE* out);

// Execution summary: run/failure counts, per-run wall times (all runs when
// few, the slowest otherwise), the summed per-run wall time, and the elapsed
// wall time `elapsed_ns` measured around the whole sweep.
void PrintRunSummary(const std::vector<RunResult>& results, TimeNs elapsed_ns,
                     std::FILE* out = stdout);

}  // namespace vsched

#endif  // SRC_RUNNER_REPORT_H_
