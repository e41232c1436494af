# Hostile profile values in a network file, run by ctest as
# cli_hostile_network: every restart, repair or maintenance duration
# becomes an event delay, so a negative, infinite or NaN one, an
# exponential mean whose longest draw overflows, or a maintenance window
# longer than its interval, must make `simulate` and
# `repeat` exit 2 with the validation message — never abort mid-run.
# The unspoiled network must run (exit 0), so each rejection is the
# spoiled value's doing.
#
#   cmake -DCLI=path/to/dynvote_cli -DWORK_DIR=scratch/dir \
#         -P hostile_network_smoke.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(site_keys "mttf=30 hw=0.5 restart=15 repair-const=4 repair-exp=24")
set(repeater_keys "mttf=40 repair-const=2 repair-exp=4")

# Writes ${WORK_DIR}/${name}.net: three sites on two segments joined by
# a repeater, with site a's and the repeater's key=value lists given.
function(write_network name a_keys r_keys)
  file(WRITE "${WORK_DIR}/${name}.net"
    "segment main\n"
    "segment far\n"
    "site a main ${a_keys}\n"
    "site b main ${site_keys}\n"
    "site c far ${site_keys}\n"
    "repeater r main far ${r_keys}\n")
endfunction()

# Fails the test unless `dynvote_cli <args>` exits with `expected_rc` and
# its stderr contains `needle`.
function(expect_exit expected_rc needle)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL expected_rc)
    message(FATAL_ERROR
      "dynvote_cli ${args} exited with '${rc}' (expected ${expected_rc}):\n"
      "${out}${err}")
  endif()
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "dynvote_cli ${args} did not say '${needle}':\n${err}")
  endif()
endfunction()

# Both commands that run the sample path refuse the file.
function(expect_refused name needle)
  set(net "--network=${WORK_DIR}/${name}.net")
  expect_exit(2 "${needle}" simulate ${net} --sites=1,2,3 --years=2)
  expect_exit(2 "${needle}" repeat ${net} --sites=1,2,3 --years=2 --reps=2)
endfunction()

write_network(valid "${site_keys}" "${repeater_keys}")
expect_exit(0 "" simulate --network=${WORK_DIR}/valid.net --sites=1,2,3
            --years=2)

set(bad_repair "site restart and repair times must be finite and >= 0")
set(bad_maintenance "maintenance interval and hours must be finite and >= 0")
set(site_cases
  "restart=-20|${bad_repair}"
  "restart=inf|${bad_repair}"
  "restart=nan|${bad_repair}"
  "repair-const=-1|${bad_repair}"
  "repair-const=inf|${bad_repair}"
  "repair-exp=-2|${bad_repair}"
  "repair-exp=nan|${bad_repair}"
  "mttf=inf|site MTTF must be finite"
  "mttf=nan|site MTTF must be > 0"
  "mttf=1.7e308|site MTTF too large"
  "mttf=1e308|site MTTF too large"
  "repair-exp=1.7e308|site repair times too large"
  "hw=nan|hardware fraction outside [0, 1]"
  "maint-interval=-90 maint-hours=3|${bad_maintenance}"
  "maint-interval=inf maint-hours=3|${bad_maintenance}"
  "maint-interval=90 maint-hours=-3|${bad_maintenance}"
  "maint-interval=90 maint-hours=nan|${bad_maintenance}"
  "maint-interval=1 maint-hours=48|maintenance window longer than its interval")
set(bad_repeater_repair "repeater repair times must be finite and >= 0")
set(repeater_cases
  "repair-const=-1|${bad_repeater_repair}"
  "repair-exp=-4|${bad_repeater_repair}"
  "repair-exp=nan|${bad_repeater_repair}"
  "mttf=inf|repeater MTTF must be finite"
  "mttf=1.7e308|repeater MTTF too large"
  "repair-exp=1.7e308|repeater repair times too large")

# Writes the network with `spoil` (key=value tokens) replacing the same
# keys of site a (`what` site) or of the repeater (`what` repeater), and
# expects both commands to refuse it with `needle`.
set(count 0)
function(expect_case what spoil needle)
  math(EXPR n "${count} + 1")
  set(count ${n} PARENT_SCOPE)
  set(keys "${${what}_keys}")
  string(REPLACE " " ";" spoil_list "${spoil}")
  foreach(kv IN LISTS spoil_list)
    string(REGEX REPLACE "=.*" "" key "${kv}")
    string(REGEX REPLACE "(^| )${key}=[^ ]*" "" keys "${keys}")
  endforeach()
  if(what STREQUAL "site")
    write_network(case${n} "${keys} ${spoil}" "${repeater_keys}")
  else()
    write_network(case${n} "${site_keys}" "${keys} ${spoil}")
  endif()
  expect_refused(case${n} "${needle}")
endfunction()

foreach(what site repeater)
  foreach(case IN LISTS ${what}_cases)
    string(REPLACE "|" ";" parts "${case}")
    list(GET parts 0 spoil)
    list(GET parts 1 needle)
    expect_case(${what} "${spoil}" "${needle}")
  endforeach()
endforeach()
message(STATUS "hostile network files: ${count} refused with exit 2")
