# End-to-end determinism smoke for `dynvote_cli check`, run by ctest as
# cli_check_determinism:
#   - parallel exploration is bit-identical to solo: stdout of
#     --check-jobs=1 and =4 is byte-identical, with and without POR, and
#     for a fixed-seed swarm;
#   - the first counterexample is jobs-invariant: a violating run exits 1
#     with the same stdout and the same counterexample JSON for any
#     --check-jobs;
#   - POR on and off reach the identical state set: same state count and
#     visited digest, strictly fewer transitions with POR on.
#
#   cmake -DCLI=path/to/dynvote_cli -DWORK_DIR=scratch/dir \
#         -P check_determinism_smoke.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `dynvote_cli check` with the given arguments in WORK_DIR; fails the
# test unless it exits with `expected_rc`, otherwise stores stdout in
# `out_var`.
function(run_check out_var expected_rc)
  execute_process(COMMAND "${CLI}" check ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR
      "dynvote_cli check ${args} exited with ${rc} (expected ${expected_rc}):\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fails unless strings `a` and `b` are identical.
function(expect_same what a b)
  if(NOT a STREQUAL b)
    message(FATAL_ERROR "${what} differ:\n${a}\n---\n${b}")
  endif()
endfunction()

# Stores in `out_var` the value after `label` on the report line that
# starts with it ("states visited:     22112" -> "22112").
function(report_field out_var text label)
  string(REGEX MATCH "${label}:? +([^\n]+)" line "${text}")
  if(NOT line)
    message(FATAL_ERROR "no '${label}' line in:\n${text}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# --- Parallel exploration is bit-identical to solo ----------------------
set(single3 --protocol odv --topology single3 --depth 8)
run_check(jobs1 0 ${single3})
run_check(jobs4 0 ${single3} --check-jobs=4)
expect_same("jobs=1 and jobs=4 stdout" "${jobs1}" "${jobs4}")
run_check(jobs1_nopor 0 ${single3} --no-por)
run_check(jobs4_nopor 0 ${single3} --no-por --check-jobs=4)
expect_same("jobs=1 and jobs=4 stdout without POR"
            "${jobs1_nopor}" "${jobs4_nopor}")
set(swarm --protocol odv --topology pairs --mode swarm --schedules 100
    --swarm-depth 12 --seed 1)
run_check(swarm1 0 ${swarm})
run_check(swarm4 0 ${swarm} --check-jobs=4)
expect_same("swarm jobs=1 and jobs=4 stdout" "${swarm1}" "${swarm4}")

# --- First counterexample is jobs-invariant -----------------------------
set(fork --protocol tdv --topology pairs --depth 5 --strict=on)
run_check(find1 1 ${fork} --out=ce-jobs1.json)
run_check(find4 1 ${fork} --check-jobs=4 --out=ce-jobs4.json)
file(READ "${WORK_DIR}/ce-jobs1.json" ce1)
file(READ "${WORK_DIR}/ce-jobs4.json" ce4)
expect_same("counterexample JSON for jobs=1 and jobs=4" "${ce1}" "${ce4}")
string(REGEX REPLACE "wrote [^\n]*\n" "" find1 "${find1}")
string(REGEX REPLACE "wrote [^\n]*\n" "" find4 "${find4}")
expect_same("violating-run stdout for jobs=1 and jobs=4" "${find1}" "${find4}")

# --- POR on/off reach the identical state set ---------------------------
set(section3 --protocol odv --topology section3 --depth 5)
run_check(por_on 0 ${section3})
run_check(por_off 0 ${section3} --no-por)
if(NOT por_on MATCHES ", por\\)")
  message(FATAL_ERROR "POR did not fire on section3:\n${por_on}")
endif()
foreach(label "states visited" "visited digest")
  report_field(on "${por_on}" "${label}")
  report_field(off "${por_off}" "${label}")
  expect_same("${label} with POR on and off" "${on}" "${off}")
endforeach()
report_field(on "${por_on}" "transitions")
report_field(off "${por_off}" "transitions")
if(NOT on LESS off)
  message(FATAL_ERROR
    "POR did not cut transitions: ${on} with POR, ${off} without")
endif()
