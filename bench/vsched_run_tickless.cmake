# ctest script: --tickless must not change a single output byte. Tick elision
# and dormant bandwidth refills only skip firings that are provable no-ops, so
# the JSONL rows of a sweep byte-compare across the two modes. A --timings leg
# per mode then shows that elision happened: ticks elided > 0 and fewer timer
# fires than the ticking run. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -P vsched_run_tickless.cmake
#
# Two slices cover both execution paths: the whole fig02 sweep (flat VM,
# host-granularity shaping — exercises guest NOHZ on mostly-idle vCPUs) and
# the fig18_rcvm canneal cells (bandwidth-capped vCPU classes — exercises
# dormant host refill timers).

# Runs vsched_run with ARGN plus --out `tag`.jsonl; sets `stdout_var` to its
# stdout, which carries the human summary because rows go to the file.
function(run_leg tag stdout_var)
  execute_process(
      COMMAND ${VSCHED_RUN} ${ARGN} --out ${WORK_DIR}/${tag}.jsonl
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tag}: vsched_run failed (rc=${rc})")
  endif()
  set(${stdout_var} "${out}" PARENT_SCOPE)
endfunction()

function(run_slice tag)
  set(common_args ${ARGN} --warmup-ms 50 --measure-ms 200)

  run_leg(${tag}_ticking ignored ${common_args})
  run_leg(${tag}_tickless ignored ${common_args} --tickless)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/${tag}_ticking.jsonl ${WORK_DIR}/${tag}_tickless.jsonl
      RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${tag}: JSONL differs with --tickless")
  endif()

  run_leg(${tag}_ticking_timed ticking ${common_args} --timings)
  run_leg(${tag}_tickless_timed tickless ${common_args} --tickless --timings)
  set(timers "timers: ([0-9]+) fires, [0-9]+ cascades, ([0-9]+) ticks elided")
  string(REGEX MATCH "${timers}" matched "${ticking}")
  set(ticking_fires "${CMAKE_MATCH_1}")
  string(REGEX MATCH "${timers}" matched "${tickless}")
  message(STATUS "${tag}: ${CMAKE_MATCH_1} timer fires tickless vs ${ticking_fires} ticking, "
                 "${CMAKE_MATCH_2} ticks elided")
  if(NOT CMAKE_MATCH_2 GREATER 0 OR NOT CMAKE_MATCH_1 LESS ticking_fires)
    message(FATAL_ERROR "${tag}: --tickless must elide ticks and fire fewer timers:\n"
                        "${ticking}\n${tickless}")
  endif()
endfunction()

run_slice(tl_fig02 --experiment fig02)
run_slice(tl_fig18 --experiment fig18_rcvm --filter canneal)
