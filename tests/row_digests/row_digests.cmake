# ctest script: the one byte-identity gate. Each slice is a short sweep whose
# rows must hash to the SHA-256 committed for it in digests.txt next to this
# file, and so must every variant of it: the same sweep at another --jobs or
# --shards count, under --audit or --fault-plan none, or completed with
# --resume from a partial checkpoint. Row predicates on the canonical rows
# show that the slice measured something. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -DDIGESTS=<digests.txt>
#         [-DUPDATE=ON] -P row_digests.cmake
#
# A change that claims byte identity passes unchanged. One that moves the
# baseline on purpose re-records every canonical digest with -DUPDATE=ON and
# says in CHANGES.md why the bytes moved; update mode still fails if a
# variant or a predicate disagrees, so a baseline move cannot hide a broken
# invariance. A failure names the slice and the variant and leaves both row
# files in WORK_DIR.

cmake_minimum_required(VERSION 3.19)  # string(JSON)

# slice(NAME ARGS <vsched_run arguments>
#       [VARIANTS "<extra arguments>"...] [ROWS <count>]
#       [EXPECT "<id regex> <JSON member path> <if() comparison> [<value>]"...])
#
# The canonical run is `vsched_run --jobs 4 ARGS`; a variant appends its
# extra arguments (the last of a repeated flag wins). The variant
# "--resume <arguments>" first writes a checkpoint with those arguments
# added, then completes the sweep from it with --resume. EXPECT holds for
# every canonical row whose id matches the regex, and at least one row must
# match; the comparison is an if() operator (EQUAL, GREATER, STREQUAL) or
# EXISTS, which asks only that the member be present.
function(slice name)
  cmake_parse_arguments(PARSE_ARGV 1 s "" "ROWS" "ARGS;VARIANTS;EXPECT")
  set(canonical ${WORK_DIR}/row_digest_${name}.jsonl)
  run_rows(digest "${name} --jobs 4" ${canonical} ${s_ARGS})
  if(NOT digest)
    return()
  endif()
  set_property(GLOBAL APPEND_STRING PROPERTY recorded "${name} ${digest}\n")
  if(UPDATE)
    set(reference ${digest})
  else()
    set(reference "${expected_${name}}")
    if(NOT digest STREQUAL reference)
      fail("${name} --jobs 4: ${digest}, committed '${reference}' (rows in ${canonical})")
    endif()
  endif()
  check_rows(${name} ${canonical} "${s_ROWS}" ${s_EXPECT})

  foreach(variant IN LISTS s_VARIANTS)
    string(REPLACE " " ";" extra "${variant}")
    string(MAKE_C_IDENTIFIER "${variant}" tag)
    set(rows ${WORK_DIR}/row_digest_${name}${tag}.jsonl)
    if(extra MATCHES "^--resume;")
      list(POP_FRONT extra)
      set(partial ${WORK_DIR}/row_digest_${name}${tag}_partial.jsonl)
      run_rows(partial_digest "${name} ${variant} (checkpoint)" ${partial} ${s_ARGS} ${extra})
      if(NOT partial_digest)
        continue()
      endif()
      set(extra --resume ${partial})
    endif()
    run_rows(got "${name} ${variant}" ${rows} ${s_ARGS} ${extra})
    if(got AND NOT got STREQUAL reference)
      fail("${name} ${variant}: ${got} where the slice is '${reference}' "
           "(rows in ${rows}, canonical rows in ${canonical})")
    endif()
  endforeach()
endfunction()

# Runs `vsched_run --jobs 4 ARGN --out FILE` and sets OUT_DIGEST to the
# file's SHA-256, or to "" after recording the failure under LABEL.
function(run_rows out_digest label file)
  execute_process(
      COMMAND ${VSCHED_RUN} --jobs 4 ${ARGN} --out ${file}
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_VARIABLE err)
  if(rc EQUAL 0)
    file(SHA256 ${file} digest)
  else()
    string(STRIP "${err}" err)
    string(REGEX REPLACE ".*\n" "" last_line "${err}")
    fail("${label}: vsched_run failed (${rc}): ${last_line}")
    set(digest "")
  endif()
  set(${out_digest} "${digest}" PARENT_SCOPE)
endfunction()

function(check_rows name file rows_expected)
  file(STRINGS ${file} rows)
  list(LENGTH rows count)
  if(rows_expected AND NOT count EQUAL rows_expected)
    fail("${name}: ${count} rows, expected ${rows_expected}")
  endif()
  foreach(predicate IN LISTS ARGN)
    string(REPLACE " " ";" words "${predicate}")
    list(POP_FRONT words id_regex path op)
    string(REPLACE "." ";" members "${path}")
    set(matched OFF)
    foreach(row IN LISTS rows)
      string(JSON id GET "${row}" id)
      if(NOT id MATCHES "${id_regex}")
        continue()
      endif()
      set(matched ON)
      string(JSON value ERROR_VARIABLE missing GET "${row}" ${members})
      if(missing)
        fail("${name}: row ${id} has no ${path}")
      elseif(NOT op STREQUAL "EXISTS")
        if(NOT value ${op} "${words}")
          fail("${name}: row ${id} has ${path} ${value}, expected ${op} ${words}")
        endif()
      endif()
    endforeach()
    if(NOT matched)
      fail("${name}: no row id matches ${id_regex}")
    endif()
  endforeach()
endfunction()

function(fail)
  string(JOIN "" message ${ARGV})
  set_property(GLOBAL APPEND_STRING PROPERTY failures "  ${message}\n")
endfunction()

if(EXISTS ${DIGESTS})
  file(STRINGS ${DIGESTS} lines REGEX "^[a-z0-9_]+ [0-9a-f]+$")
  foreach(line IN LISTS lines)
    string(REPLACE " " ";" fields "${line}")
    list(GET fields 0 name)
    list(GET fields 1 digest)
    set(expected_${name} ${digest})
  endforeach()
endif()

set(every_row_faulted ". metrics.fault_applied EXISTS")

# fig02, fig18_rcvm and fig19_hpvm at 300/900 ms windows: long enough for a
# second vcap window and the first vact window, so the published capacities,
# both per-window medians, BVS, IVH and the asymmetric-capacity placement
# paths all run.
slice(fig02 ARGS --experiment fig02 --warmup-ms 300 --measure-ms 900
      VARIANTS "--jobs 1" "--fault-plan none" "--audit")
slice(fig18_rcvm ARGS --experiment fig18_rcvm --warmup-ms 300 --measure-ms 900)
slice(fig19_hpvm ARGS --experiment fig19_hpvm --warmup-ms 300 --measure-ms 900)
# The tiny fleet: control plane, boots, departures, a live migration, on two
# cells whose host refills park.
slice(fleet_tiny ARGS --fleet tiny
      VARIANTS "--jobs 1" "--shards 2" "--shards 4"
      EXPECT ". ok STREQUAL ON" ". metrics.migrations GREATER 0"
             ". metrics.vms_placed EQUAL 10" ". metrics.completed GREATER 0")
# The adversary matrix: every attack, robust off and on, single VM and fleet.
# The cycle-stealer's signature: with robust off vact publishes exactly zero
# latency against real theft; with robust on the sub-threshold plausibility
# check attributes it.
slice(adversary ARGS --adversary
      VARIANTS "--jobs 1"
      ROWS 16
      EXPECT ". ok STREQUAL ON"
             "^adversary/(none|steal|evade|burst)/ metrics.dx_cap_err_mean EXISTS"
             "^adversary/(steal|evade|burst)/vsched/robust=off$ metrics.dx_adversary_activations GREATER 0"
             "^adversary/steal/vsched/robust=off$ metrics.dx_act_latency_ns EQUAL 0"
             "^adversary/steal/vsched/robust=on$ metrics.dx_act_latency_ns GREATER 0")
# fig18_rcvm under `everything`, where the timer band churns most: caps
# imposed and lifted mid-run destroy and re-register refill timers, and
# frequency droops cancel and re-arm burst completions.
slice(fig18_everything
      ARGS --experiment fig18_rcvm --fault-plan everything --warmup-ms 300 --measure-ms 900
      VARIANTS "--jobs 1" "--resume --filter canneal"
      EXPECT "${every_row_faulted}")
# The small fleet's commit-driven caps park the refills of off-CPU vCPU
# threads, so --audit runs CpuSched's dormant-refill checks.
slice(fleet_small ARGS --fleet small --measure-ms 1000 VARIANTS "--shards 4" "--audit")
# Every experiment cell, clean and under each fault plan.
slice(all_500_1000 ARGS --experiment all --warmup-ms 500 --measure-ms 1000)
foreach(plan everything interference-burst bandwidth-jitter probe-chaos)
  string(MAKE_C_IDENTIFIER "all_${plan}" name)
  slice(${name} ARGS --experiment all --fault-plan ${plan} --warmup-ms 200 --measure-ms 300
        EXPECT "${every_row_faulted}")
endforeach()
# Machine-level fault injectors on every fourth host of the tiny fleet.
slice(fleet_tiny_everything ARGS --fleet tiny --fault-plan everything
      VARIANTS "--shards 4" EXPECT "${every_row_faulted}")
# The rack: 8 cells, host boots, departures and a live migration; tenant
# stacks are built and torn down on worker threads.
slice(fleet_rack ARGS --fleet rack --measure-ms 600 VARIANTS "--shards 4" "--audit")
slice(fleet_dc ARGS --fleet dc --measure-ms 300 VARIANTS "--shards 4")
# fig02 builds no vtop prober; these vSched cells do. fig18 canneal's stacked
# pair runs its pair probes through every timeout extension, and probe-chaos
# drops and corrupts co-active samples; the audit checks each pair-probe
# sample against the live run state of the probers.
slice(fig18_canneal_vsched ARGS --experiment fig18_rcvm --filter canneal/vsched VARIANTS "--audit")
slice(fig19_silo_probe_chaos
      ARGS --experiment fig19_hpvm --filter silo/vsched --fault-plan probe-chaos
      VARIANTS "--audit" EXPECT "${every_row_faulted}")

get_property(recorded GLOBAL PROPERTY recorded)
get_property(failures GLOBAL PROPERTY failures)
if(UPDATE)
  file(WRITE ${DIGESTS}
       "# SHA-256 of each slice's JSONL rows (tests/row_digests/row_digests.cmake).\n"
       "${recorded}")
  message(STATUS "row digests written to ${DIGESTS}")
endif()
if(failures)
  message(FATAL_ERROR "Byte-identity gate failed:\n${failures}"
                      "A change that claims byte identity must move no slice and break no "
                      "variant or predicate. A deliberate baseline move re-records the digests "
                      "with -DUPDATE=ON and says why in CHANGES.md.")
endif()
