# ctest script: the rows of seven short sweeps must hash to the SHA-256
# digests committed in digests.txt next to this file. A change that claims
# byte identity passes unchanged; one that moves the baseline on purpose
# records the new digests in update mode and says in CHANGES.md why the bytes
# moved. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -DDIGESTS=<digests.txt>
#         [-DUPDATE=ON] -P row_digests.cmake
#
# With -DUPDATE=ON the script rewrites DIGESTS from this build's rows instead
# of comparing. The sweeps:
#   - fig02, fig18_rcvm and fig19_hpvm at 300/900 ms windows: long enough for
#     a second vcap window and the first vact window, so the published
#     capacities, both per-window medians, BVS, IVH and the asymmetric-
#     capacity placement paths all run;
#   - the tiny fleet (control plane, boots, departures, a live migration);
#   - the adversary matrix (every attack, robust off and on);
#   - fig18_rcvm under the `everything` fault plan, where the timer band
#     churns most: bandwidth caps imposed and lifted mid-run destroy and
#     re-register refill timers (id recycling), and frequency droops cancel
#     and re-arm burst completions;
#   - the small fleet, whose host refills park and resume.

set(sweeps fig02 fig18_rcvm fig19_hpvm fleet_tiny adversary fig18_everything fleet_small)
set(args_fig02 --experiment fig02 --warmup-ms 300 --measure-ms 900)
set(args_fig18_rcvm --experiment fig18_rcvm --warmup-ms 300 --measure-ms 900)
set(args_fig19_hpvm --experiment fig19_hpvm --warmup-ms 300 --measure-ms 900)
set(args_fleet_tiny --fleet tiny)
set(args_adversary --adversary)
set(args_fig18_everything --experiment fig18_rcvm --fault-plan everything --warmup-ms 300
    --measure-ms 900)
set(args_fleet_small --fleet small --measure-ms 1000)

if(EXISTS ${DIGESTS})
  file(STRINGS ${DIGESTS} lines REGEX "^[a-z0-9_]+ [0-9a-f]+$")
  foreach(line IN LISTS lines)
    string(REPLACE " " ";" fields "${line}")
    list(GET fields 0 name)
    list(GET fields 1 digest)
    set(expected_${name} ${digest})
  endforeach()
endif()

set(recorded "# SHA-256 of each sweep's JSONL rows (tests/row_digests/row_digests.cmake).\n")
set(mismatches "")
foreach(sweep IN LISTS sweeps)
  set(out ${WORK_DIR}/row_digest_${sweep}.jsonl)
  execute_process(
      COMMAND ${VSCHED_RUN} ${args_${sweep}} --jobs 4 --out ${out}
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${sweep}: vsched_run ${args_${sweep}} failed (rc=${rc})")
  endif()
  file(SHA256 ${out} got)
  string(APPEND recorded "${sweep} ${got}\n")
  if(NOT got STREQUAL "${expected_${sweep}}")
    string(APPEND mismatches
           "  ${sweep}: ${got}, committed '${expected_${sweep}}' (rows in ${out})\n")
  endif()
endforeach()

if(UPDATE)
  file(WRITE ${DIGESTS} "${recorded}")
  message(STATUS "row digests written to ${DIGESTS}")
elseif(NOT mismatches STREQUAL "")
  message(FATAL_ERROR "JSONL rows differ from the committed digests:\n${mismatches}"
                      "A change that claims byte identity must not move them. A deliberate "
                      "baseline move re-records them with -DUPDATE=ON and says why in CHANGES.md.")
endif()
