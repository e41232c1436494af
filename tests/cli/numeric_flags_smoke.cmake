# Hostile numeric flag values, run by ctest as cli_numeric_flags: every
# numeric flag given an empty, non-numeric, trailing-garbage or
# overflowing value must be a usage error (exit 2) whose message names the
# flag — never an uncaught exception, and never a silently truncated
# number ("--reps=2abc" is not 2).
#
#   cmake -DCLI=path/to/dynvote_cli -DWORK_DIR=scratch/dir \
#         -P numeric_flags_smoke.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Fails the test unless `dynvote_cli <command> <flag><value>` exits 2 and
# its stderr names the flag.
function(expect_usage_error command flag value)
  execute_process(COMMAND "${CLI}" ${command} --sites=1,2,3 "${flag}${value}"
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "dynvote_cli ${command} ${flag}${value} exited with ${rc} "
      "(expected 2):\n${out}${err}")
  endif()
  string(REGEX REPLACE "=$" "" name "${flag}")
  string(FIND "${err}" "${name}: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "dynvote_cli ${command} ${flag}${value} did not name ${name}:\n${err}")
  endif()
endfunction()

# Feeds `flag` of `command` every hostile value, `overflow` among them.
function(expect_rejects_garbage command flag overflow)
  foreach(value "" abc 2abc ${overflow})
    expect_usage_error(${command} ${flag} "${value}")
  endforeach()
endfunction()

foreach(flag --reps= --jobs= --objects=)
  expect_rejects_garbage(repeat ${flag} 99999999999999999999999)
endforeach()
expect_rejects_garbage(simulate --seed= 99999999999999999999999)
foreach(flag --depth= --schedules= --swarm-depth= --check-jobs=)
  expect_rejects_garbage(check ${flag} 99999999999999999999999)
endforeach()
foreach(flag --years= --rate=)
  expect_rejects_garbage(simulate ${flag} 1e999)
endforeach()
foreach(flag --arrival-rate= --service-time= --msg-cost= --write-fraction=)
  expect_rejects_garbage(serve ${flag} 1e999)
endforeach()

# A negative seed would wrap to a huge unsigned value.
expect_usage_error(simulate --seed= -1)
