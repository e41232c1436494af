# Reference-length paper reproduction, run by ctest as
# paper_tables_reference: `paper_tables --years=600 --batches=30` (the
# full 48-cell Table 2/3 grid) must exit 0, so every shape check holds,
# and print exactly the pinned stdout, so no Table 2 or Table 3 digit
# moves. The stdout is the same for any --jobs.
#
#   cmake -DPAPER_TABLES=path/to/paper_tables -DGOLDEN=path/to/golden.txt \
#         -P paper_tables_reference.cmake

if(NOT PAPER_TABLES OR NOT GOLDEN)
  message(FATAL_ERROR "pass -DPAPER_TABLES=<paper_tables> -DGOLDEN=<file>")
endif()

execute_process(COMMAND "${PAPER_TABLES}" --years=600 --batches=30
  OUTPUT_VARIABLE actual ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "paper_tables --years=600 --batches=30 exited with ${rc}:\n${actual}${err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "paper_tables stdout differs from ${GOLDEN}:\n${actual}")
endif()
