# Short bench runs, run by ctest as bench_smoke:
#   - `message_overhead --years=40` exits 0, so its shape checks hold;
#   - `paper_tables --years=40 --batches=10 --reps=4` exits 0 and prints
#     the same bytes at --jobs=1 and --jobs=4: the replicated engine
#     aggregates identically for any job count.
#
#   cmake -DMESSAGE_OVERHEAD=path/to/message_overhead \
#         -DPAPER_TABLES=path/to/paper_tables -P bench_smoke.cmake

if(NOT MESSAGE_OVERHEAD OR NOT PAPER_TABLES)
  message(FATAL_ERROR
    "pass -DMESSAGE_OVERHEAD=<message_overhead> -DPAPER_TABLES=<paper_tables>")
endif()

# Runs `<bench> <args>`, fails unless it exits 0, and leaves its stdout
# in `out_var`.
function(run_bench out_var bench)
  execute_process(COMMAND "${bench}" ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(JOIN " " args ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} ${args} exited with ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_bench(overhead "${MESSAGE_OVERHEAD}" --years=40)

set(grid --years=40 --batches=10 --reps=4)
run_bench(sequential "${PAPER_TABLES}" ${grid} --jobs=1)
run_bench(parallel "${PAPER_TABLES}" ${grid} --jobs=4)
if(NOT sequential STREQUAL parallel)
  message(FATAL_ERROR
    "paper_tables stdout differs between --jobs=1 and --jobs=4:\n"
    "--jobs=1:\n${sequential}\n--jobs=4:\n${parallel}")
endif()
