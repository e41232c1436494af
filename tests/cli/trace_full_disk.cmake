# A trace that fails on a full disk reports the same count every time,
# run by ctest as cli_trace_full_disk: `simulate --trace-out` into a
# symlink to /dev/full must exit 1 and print the same "M of N events
# reached" line on five runs, for btrace and for JSONL output. Events
# count as written only once the terminal page sink has written their
# page, so the writer thread's timing cannot move M. Skipped where
# /dev/full does not exist.
#
#   cmake -DCLI=path/to/dynvote_cli -DWORK_DIR=scratch/dir \
#         -P trace_full_disk.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DWORK_DIR=<dir>")
endif()
if(NOT EXISTS /dev/full)
  message("SKIPPED: /dev/full does not exist")
  return()
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(ext btrace jsonl)
  set(link "${WORK_DIR}/full.${ext}")
  file(REMOVE "${link}")
  file(CREATE_LINK /dev/full "${link}" SYMBOLIC)
  set(first "")
  foreach(run RANGE 1 5)
    execute_process(
      COMMAND "${CLI}" simulate --sites=1,3,5 --years=3 "--trace-out=${link}"
      OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR
        "${ext} run ${run}: expected exit 1, got ${rc}:\n${err}")
    endif()
    string(REGEX MATCH "[0-9]+ of [0-9]+ events reached" count "${err}")
    if(count STREQUAL "")
      message(FATAL_ERROR "${ext} run ${run}: no event count in:\n${err}")
    endif()
    if(run EQUAL 1)
      set(first "${count}")
    elseif(NOT count STREQUAL first)
      message(FATAL_ERROR
        "${ext} run ${run} reported '${count}', run 1 '${first}'")
    endif()
  endforeach()
  message(STATUS "${ext}: ${first} on every run")
endforeach()
