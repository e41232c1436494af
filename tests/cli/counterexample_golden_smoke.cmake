# Byte-level golden smoke for `dynvote_cli check` reports, run by ctest
# as cli_check_counterexample_golden:
#   - the strict TDV fork on `pairs` at depth 5 prints the pinned stdout
#     and writes the pinned counterexample JSON, both with state merging
#     and with --no-memo (the JSON is the same either way; the stdout
#     differs only in the counts and the header);
#   - a bound past 2^64 naive sequences prints the count as saturated.
#
#   cmake -DCLI=path/to/dynvote_cli -DGOLDEN_DIR=tests/cli/golden \
#         -DWORK_DIR=out/dir -P counterexample_golden_smoke.cmake

if(NOT CLI OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "pass -DCLI=<dynvote_cli> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>")
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

# Fails unless `actual` equals the contents of golden file `name`.
function(expect_golden name actual)
  file(READ "${GOLDEN_DIR}/${name}" expected)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
      "output differs from golden ${name}:\n${actual}\n--- expected:\n${expected}")
  endif()
endfunction()

set(fork --protocol tdv --topology pairs --depth 5 --strict=on)
run_check(memo 1 ${fork} --out=ce.json)
expect_golden(tdv_pairs_d5.txt "${memo}")
file(READ "${WORK_DIR}/ce.json" memo_json)
expect_golden(tdv_pairs_d5.json "${memo_json}")

run_check(nomemo 1 ${fork} --no-memo --out=ce_nomemo.json)
expect_golden(tdv_pairs_d5_nomemo.txt "${nomemo}")
file(READ "${WORK_DIR}/ce_nomemo.json" nomemo_json)
expect_golden(tdv_pairs_d5.json "${nomemo_json}")

# single3 closes long before depth 40, where 6^40 sequences overflow.
run_check(deep 0 --protocol odv --topology single3 --depth 40)
if(NOT deep MATCHES
   "\nunpruned sequences: saturated \\(>= 18446744073709551615\\)\n")
  message(FATAL_ERROR "saturated sequence count not reported:\n${deep}")
endif()
if(NOT deep MATCHES "\nclosed at depth: +[0-9]+\n")
  message(FATAL_ERROR "single3 did not close by depth 40:\n${deep}")
endif()
