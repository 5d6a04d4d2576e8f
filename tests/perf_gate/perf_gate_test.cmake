# ctest script: tools/perf_gate.py against the saved perfbench outputs in this
# directory, gated by its BENCH_core.json (whose newest entry is the second)
# and the repository's BENCHMARK.json bounds. Run with:
#   cmake -DPYTHON=<python3> -DGATE=<tools/perf_gate.py> -DFIXTURES=<this dir>
#         -P perf_gate_test.cmake

# Runs the gate on the fixture files in ARGN; it must exit `rc` and its
# stderr must match `regex`.
function(expect what rc regex)
  list(TRANSFORM ARGN PREPEND ${FIXTURES}/ OUTPUT_VARIABLE outputs)
  execute_process(
      COMMAND ${PYTHON} ${GATE} ${FIXTURES}/BENCH_core.json ${outputs}
      RESULT_VARIABLE got_rc
      OUTPUT_VARIABLE entry
      ERROR_VARIABLE report)
  if(NOT got_rc EQUAL rc OR NOT report MATCHES "${regex}")
    message(FATAL_ERROR "${what}: expected exit ${rc} and stderr matching '${regex}', "
                        "got exit ${got_rc}:\n${report}")
  endif()
  if(NOT entry MATCHES "^{\n  \"pr\": null,")
    message(FATAL_ERROR "${what}: stdout is not the entry the inputs make:\n${entry}")
  endif()
endfunction()

set(traced vcpu_latency_trace1.txt fleet_dc_trace1.txt)

expect("clean set" 0 "perf_gate: pass"
       vcpu_latency_trace0.txt fleet_dc_trace0.txt ${traced})
expect("wall_s just past its bound" 1
       "FAIL vcpu_latency wall_s: median 2.51 vs 2 s at PR 2 .*perf_gate: 1 failure"
       vcpu_latency_trace0_slow.txt fleet_dc_trace0.txt ${traced})
expect("sim_s_per_host_s just past its bound" 1
       "FAIL vcpu_latency sim_s_per_host_s: median 22.4 vs 30 s/s .*perf_gate: 1 failure"
       vcpu_latency_trace0_slow_stepping.txt fleet_dc_trace0.txt ${traced})
expect("better than the entry by a wide margin" 0 "perf_gate: pass"
       vcpu_latency_trace0_fast.txt fleet_dc_trace0.txt ${traced})
expect("one slow run of three, median within the bound" 0 "perf_gate: pass"
       vcpu_latency_trace0.txt vcpu_latency_trace0_slow.txt vcpu_latency_trace0.txt
       fleet_dc_trace0.txt ${traced})
expect("a run printed correct: false" 1
       "FAIL vcpu_latency: .*vcpu_latency_trace0_incorrect.txt printed \"correct\": false"
       vcpu_latency_trace0_incorrect.txt fleet_dc_trace0.txt ${traced})
expect("a missing workload" 1 "FAIL fleet_dc: no run of this workload"
       vcpu_latency_trace0.txt vcpu_latency_trace1.txt)
expect("a missing traced run" 1 "FAIL fleet_dc model.digest: missing"
       vcpu_latency_trace0.txt fleet_dc_trace0.txt vcpu_latency_trace1.txt)
