# ctest script: vsched_run's output routing and argument checks. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -P vsched_run_cli.cmake
#
# The rows themselves are the byte-identity gate's business
# (tests/row_digests/row_digests.cmake); this checks only where they go:
#   1. With --out the rows go to the file and stdout carries the Figure 2
#      table.
#   2. Without --out stdout is exactly the rows the --out file holds.
#   3. --shards takes a whole integer >= 1: anything else exits 2, naming
#      --shards, before a single run starts.

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

foreach(bad 0 -1 x abc 4x)
  execute_process(
      COMMAND ${VSCHED_RUN} --fleet tiny --shards ${bad} --out ${WORK_DIR}/cli_bad.jsonl
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "vsched_run --shards ${bad} exited ${rc}, expected 2")
  endif()
  if(NOT err MATCHES "--shards")
    message(FATAL_ERROR "vsched_run --shards ${bad} did not name --shards: ${err}")
  endif()
endforeach()
