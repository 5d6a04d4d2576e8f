# ctest script: vsched_run must emit byte-identical JSONL at --jobs=1 and
# --jobs=2, print the Figure 2 table on stdout when rows go to --out, and keep
# stdout pure JSONL otherwise. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -P vsched_run_determinism.cmake
set(common_args --experiment fig02 --filter img-dnn
                --warmup-ms 50 --measure-ms 200)

execute_process(
    COMMAND ${VSCHED_RUN} ${common_args} --jobs 1 --out ${WORK_DIR}/det_serial.jsonl
    RESULT_VARIABLE serial_rc
    OUTPUT_VARIABLE serial_stdout
    ERROR_QUIET)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "serial vsched_run failed (rc=${serial_rc})")
endif()
if(NOT serial_stdout MATCHES "Figure 2 .*Without best-effort tasks:\nApp .*\nimg-dnn ")
  message(FATAL_ERROR "stdout with --out lacks the Figure 2 table:\n${serial_stdout}")
endif()

execute_process(
    COMMAND ${VSCHED_RUN} ${common_args} --jobs 2 --out ${WORK_DIR}/det_sharded.jsonl
    RESULT_VARIABLE sharded_rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT sharded_rc EQUAL 0)
  message(FATAL_ERROR "sharded vsched_run failed (rc=${sharded_rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/det_serial.jsonl ${WORK_DIR}/det_sharded.jsonl
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "JSONL differs between --jobs=1 and --jobs=2")
endif()

# Without --out the rows own stdout and the table moves to stderr: stdout must
# be exactly the rows the --out file holds, so every line is a JSONL row.
execute_process(
    COMMAND ${VSCHED_RUN} ${common_args}
    RESULT_VARIABLE stdout_rc
    OUTPUT_VARIABLE stdout_rows
    ERROR_QUIET)
if(NOT stdout_rc EQUAL 0)
  message(FATAL_ERROR "vsched_run without --out failed (rc=${stdout_rc})")
endif()
file(WRITE ${WORK_DIR}/det_stdout.jsonl "${stdout_rows}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/det_serial.jsonl ${WORK_DIR}/det_stdout.jsonl
    RESULT_VARIABLE stdout_diff_rc)
if(NOT stdout_diff_rc EQUAL 0)
  message(FATAL_ERROR "stdout without --out is not exactly the JSONL rows:\n${stdout_rows}")
endif()
