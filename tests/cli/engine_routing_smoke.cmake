# End-to-end engine-routing smoke for dynvote_cli, run by ctest as
# cli_engine_routing:
#   - simulate: an untraced run of the paper policies goes to the batched
#     engine as a batch of one; --no-quorum-cache keeps the unmemoized
#     solo reference engine and --metrics-out the memoized solo engine.
#     Table and CSV must be byte-identical across all three, and every
#     CSV row has the header's 13 fields (the multi-site label is quoted).
#   - repeat: the JSON must be byte-identical for any --objects x --jobs
#     grouping, cache on or off, and on the memoized solo engine
#     (--metrics-out; the JSON leaves metrics out);
#   - repeat of a policy set with no batched plan (AC,JM-DV,LDV) runs the
#     solo path at every --objects x --jobs, with byte-identical JSON.
#
#   cmake -DCLI=path/to/dynvote_cli -DWORK_DIR=scratch/dir \
#         -P engine_routing_smoke.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs dynvote_cli with the given arguments in WORK_DIR; fails the test
# on a non-zero exit, otherwise stores stdout in `out_var`.
function(run_cli out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "dynvote_cli ${args} exited with ${rc}:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fails unless files `a` and `b` in WORK_DIR have identical bytes.
function(expect_same_file a b)
  file(READ "${WORK_DIR}/${a}" content_a)
  file(READ "${WORK_DIR}/${b}" content_b)
  if(NOT content_a STREQUAL content_b)
    message(FATAL_ERROR "${a} and ${b} differ:\n${content_a}\n---\n${content_b}")
  endif()
endfunction()

# Routed (batched at N=1) vs solo reference, unmemoized and memoized.
run_cli(routed simulate --sites=1,3,5 --years=5 --csv=routed.csv)
run_cli(solo simulate --sites=1,3,5 --years=5 --csv=solo.csv
        --no-quorum-cache)
run_cli(memo simulate --sites=1,3,5 --years=5 --csv=memo.csv
        --metrics-out=memo_metrics.json)
string(REPLACE "wrote routed.csv\n" "" routed "${routed}")
string(REPLACE "wrote solo.csv\n" "" solo "${solo}")
string(REPLACE "wrote memo.csv\nwrote memo_metrics.json\n" "" memo "${memo}")
if(NOT routed STREQUAL solo)
  message(FATAL_ERROR
    "simulate output differs with --no-quorum-cache:\n${routed}\n---\n${solo}")
endif()
if(NOT routed STREQUAL memo)
  message(FATAL_ERROR
    "simulate output differs with --metrics-out:\n${routed}\n---\n${memo}")
endif()
expect_same_file(routed.csv solo.csv)
expect_same_file(routed.csv memo.csv)

# RFC 4180 field count: a quoted field ("1,3,5", inner quotes doubled)
# is one field whatever it holds.
file(STRINGS "${WORK_DIR}/routed.csv" csv_rows)
foreach(row IN LISTS csv_rows)
  string(REGEX REPLACE "\"[^\"]*\"" "q" unquoted "${row}")
  string(REGEX MATCHALL "," commas "${unquoted}")
  list(LENGTH commas num_commas)
  if(NOT num_commas EQUAL 12)
    math(EXPR num_fields "${num_commas} + 1")
    message(FATAL_ERROR "routed.csv row has ${num_fields} fields, want 13: ${row}")
  endif()
endforeach()

# Grouping x jobs x cache: the repeat JSON never changes.
run_cli(ignored repeat --sites=1,3,5,7,8 --years=5 --reps=8 --jobs=1
        --json=obj1.json)
run_cli(ignored repeat --sites=1,3,5,7,8 --years=5 --reps=8 --jobs=4
        --objects=4 --json=obj4.json)
run_cli(ignored repeat --sites=1,3,5,7,8 --years=5 --reps=8 --jobs=2
        --objects=8 --no-quorum-cache --json=obj8.json)
run_cli(ignored repeat --sites=1,3,5,7,8 --years=5 --reps=8 --jobs=1
        --metrics-out=memo_repeat_metrics.json --json=memo.json)
expect_same_file(obj1.json obj4.json)
expect_same_file(obj1.json obj8.json)
expect_same_file(obj1.json memo.json)

# A policy set the batched engine cannot run (AC, JM-DV) takes the solo
# path for every replication, one replication per group; the decision is
# made once per run, so --objects and --jobs must not move a byte there.
foreach(objects 1 3)
  foreach(jobs 1 4)
    run_cli(ignored repeat --sites=1,3,5 --years=5 --reps=6
            --policies=AC,JM-DV,LDV --objects=${objects} --jobs=${jobs}
            --json=fallback_o${objects}_j${jobs}.json)
    expect_same_file(fallback_o1_j1.json fallback_o${objects}_j${jobs}.json)
  endforeach()
endforeach()
