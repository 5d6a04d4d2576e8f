# ctest script: vsched_run's output routing and argument checks. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -P vsched_run_cli.cmake
#
# The rows themselves are the byte-identity gate's business
# (tests/row_digests/row_digests.cmake); this checks only where they go:
#   1. With --out the rows go to the file and stdout carries the Figure 2
#      table.
#   2. Without --out stdout is exactly the rows the --out file holds.
#   3. Each numeric flag takes a whole decimal integer in its range
#      (--shards >= 1, the others >= 0): anything else exits 2, naming the
#      flag, before a single run starts. Every value below fails to parse,
#      so none of these invocations starts a run.

set(common_args --experiment fig02 --filter img-dnn --warmup-ms 50 --measure-ms 200)

execute_process(
    COMMAND ${VSCHED_RUN} ${common_args} --out ${WORK_DIR}/cli_rows.jsonl
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE report
    ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsched_run --out failed (rc=${rc})")
endif()
if(NOT report MATCHES "Figure 2 .*Without best-effort tasks:\nApp .*\nimg-dnn ")
  message(FATAL_ERROR "stdout with --out lacks the Figure 2 table:\n${report}")
endif()

execute_process(
    COMMAND ${VSCHED_RUN} ${common_args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_rows
    ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsched_run without --out failed (rc=${rc})")
endif()
file(WRITE ${WORK_DIR}/cli_stdout.jsonl "${stdout_rows}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/cli_rows.jsonl ${WORK_DIR}/cli_stdout.jsonl
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "stdout without --out is not exactly the JSONL rows:\n${stdout_rows}")
endif()

function(expect_usage_error flag)
  foreach(bad ${ARGN})
    execute_process(
        COMMAND ${VSCHED_RUN} --fleet tiny ${flag} ${bad} --out ${WORK_DIR}/cli_bad.jsonl
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "vsched_run ${flag} ${bad} exited ${rc}, expected 2")
    endif()
    if(NOT err MATCHES "${flag}")
      message(FATAL_ERROR "vsched_run ${flag} ${bad} did not name ${flag}: ${err}")
    endif()
  endforeach()
endfunction()

expect_usage_error(--shards 0 -1 x abc 4x)
expect_usage_error(--jobs -1 x 4x 1.5)
expect_usage_error(--warmup-ms -5 x 1O)
expect_usage_error(--measure-ms -5 x 1O)
expect_usage_error(--seed -1 x 4x 0x10)
expect_usage_error(--event-budget -1 x 4x)
