# End-to-end smoke for `dynvote_cli check`, run by ctest as
# cli_check_smoke:
#   - --version reports the counterexample schema;
#   - a bounded-exhaustive run prunes (visited states strictly below the
#     naive sequence count) and finds nothing;
#   - fixed-seed swarm slices stay green;
#   - the differential oracles agree exhaustively;
#   - the weakened-invariant hook exits 1 with a schema-tagged, replayable
#     counterexample, and replaying it under an unknown universe is a
#     usage error (exit 2) that lists the known universes;
#   - every checked-in corpus counterexample replays.
#
#   cmake -DCLI=path/to/dynvote_cli -DCORPUS_DIR=tests/check/corpus \
#         -DWORK_DIR=scratch/dir -P check_smoke.cmake

if(NOT CLI OR NOT CORPUS_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "pass -DCLI=<dynvote_cli> -DCORPUS_DIR=<dir> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `dynvote_cli <args>` in WORK_DIR; fails the test unless it exits
# with `expected_rc`, otherwise stores stdout in `out_var` and stderr in
# `out_var`_err.
function(run_cli out_var expected_rc)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR
      "dynvote_cli ${args} exited with ${rc} (expected ${expected_rc}):\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${out_var}_err "${err}" PARENT_SCOPE)
endfunction()

# Fails unless `text` contains `needle`.
function(expect_contains what text needle)
  string(FIND "${text}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what} lacks '${needle}':\n${text}")
  endif()
endfunction()

# Stores in `out_var` the value after `label` on the report line that
# starts with it ("states visited:     283" -> "283").
function(report_field out_var text label)
  string(REGEX MATCH "${label}:? +([^\n]+)" line "${text}")
  if(NOT line)
    message(FATAL_ERROR "no '${label}' line in:\n${text}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# --- Version reports the counterexample schema --------------------------
run_cli(version 0 --version)
expect_contains("--version" "${version}" dynvote-counterexample-v1)

# --- Exhaustive check prunes and stays green ----------------------------
run_cli(exhaustive 0 check --protocol odv --depth 6)
expect_contains("exhaustive check" "${exhaustive}" "no invariant violations")
report_field(visited "${exhaustive}" "states visited")
report_field(unpruned "${exhaustive}" "unpruned sequences")
if(NOT visited LESS unpruned)
  message(FATAL_ERROR
    "no pruning: ${visited} states visited, ${unpruned} unpruned sequences")
endif()

# --- Fixed-seed swarm slices stay green ---------------------------------
run_cli(swarm 0 check --protocol ldv --topology section3
        --mode swarm --schedules 100 --swarm-depth 12 --seed 1)
run_cli(swarm 0 check --protocol jm-dv --topology pairs
        --mode swarm --schedules 100 --swarm-depth 12 --seed 1)

# --- Differential oracles agree exhaustively ----------------------------
run_cli(oracle 0 check --protocol odv --depth 5 --oracle quorum_cache)
run_cli(oracle 0 check --protocol dv --topology pairs --depth 5
        --oracle jm_equivalence)

# --- Weakened invariant yields a shrunk, replayable counterexample ------
run_cli(weakened 1 check --protocol odv --depth 6 --weaken-mutex
        --out=ce.json)
file(READ "${WORK_DIR}/ce.json" ce)
expect_contains("ce.json" "${ce}" dynvote-counterexample-v1)
run_cli(replay 0 check --replay ce.json)

# --- Replay of an unknown universe is a usage error ---------------------
string(REPLACE "\"single3\"" "\"galaxy9\"" bad_universe "${ce}")
file(WRITE "${WORK_DIR}/bad-universe.json" "${bad_universe}")
run_cli(bad 2 check --replay bad-universe.json)
expect_contains("unknown-universe replay stderr" "${bad_err}"
                "known universes")

# --- Corpus counterexamples replay deterministically --------------------
file(GLOB corpus "${CORPUS_DIR}/*.json")
list(LENGTH corpus corpus_size)
if(corpus_size EQUAL 0)
  message(FATAL_ERROR "no counterexamples in ${CORPUS_DIR}")
endif()
foreach(f IN LISTS corpus)
  run_cli(corpus_replay 0 check --replay "${f}")
endforeach()
