# ctest script: the fleet engine is deterministic in its worker-thread
# count. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -P vsched_run_fleet_sharded.cmake
#
# Asserts:
#   1. A tiny-fleet sweep on the sharded engine emits byte-identical JSONL at
#      --shards 1, 2, and 4. The host partition into cells is fixed by the
#      FleetSpec (tiny: two 2-host cells), shard-crossing interactions travel
#      as (due, origin, seq)-ordered mailbox messages applied at lookahead
#      barriers, and per-cell RNG streams derive from the root seed in cell
#      order — so the thread count is unobservable, the same guarantee class
#      as the runner's --jobs (see docs/PERF.md, "Sharded fleet execution").
#   2. The same holds with a chaos plan armed: fault injectors live inside
#      cells and replay byte-identically at any shard count.
#   3. --shards takes a whole integer >= 1: anything else exits 2 before a
#      single run starts.

function(run_fleet out)
  execute_process(
      COMMAND ${VSCHED_RUN} --fleet tiny ${ARGN} --out ${out}
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vsched_run --fleet tiny ${ARGN} failed (rc=${rc})")
  endif()
endfunction()

function(expect_identical a b what)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
      RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# --- 1. byte-identical across shard counts -----------------------------------
run_fleet(${WORK_DIR}/fleet_s1.jsonl --shards 1)
run_fleet(${WORK_DIR}/fleet_s2.jsonl --shards 2)
run_fleet(${WORK_DIR}/fleet_s4.jsonl --shards 4)
expect_identical(${WORK_DIR}/fleet_s1.jsonl ${WORK_DIR}/fleet_s2.jsonl
                 "sharded fleet JSONL differs between --shards=1 and --shards=2")
expect_identical(${WORK_DIR}/fleet_s1.jsonl ${WORK_DIR}/fleet_s4.jsonl
                 "sharded fleet JSONL differs between --shards=1 and --shards=4")

# --- 2. chaos-plan replay across shard counts --------------------------------
run_fleet(${WORK_DIR}/fleet_chaos_s1.jsonl --shards 1 --fault-plan everything)
run_fleet(${WORK_DIR}/fleet_chaos_s4.jsonl --shards 4 --fault-plan everything)
expect_identical(${WORK_DIR}/fleet_chaos_s1.jsonl ${WORK_DIR}/fleet_chaos_s4.jsonl
                 "chaos sharded fleet differs between --shards=1 and --shards=4")

# --- 3. bad --shards values are usage errors ---------------------------------
foreach(bad 0 -1 x abc 4x)
  execute_process(
      COMMAND ${VSCHED_RUN} --fleet tiny --shards ${bad} --out ${WORK_DIR}/fleet_bad.jsonl
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
