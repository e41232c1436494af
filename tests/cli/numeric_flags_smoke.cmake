# Malformed and misdirected flags, run by ctest as cli_numeric_flags:
#   - every numeric flag given an empty, non-numeric, trailing-garbage or
#     overflowing value, or a value outside its bound, is a usage error
#     (exit 2) whose message names the flag — never an uncaught
#     exception, and never a silently truncated number ("--reps=2abc" is
#     not 2);
#   - a rate inside its bound whose longest draw overflows is refused
#     with exit 2 by simulate, repeat and serve alike, and so is a serve
#     --config letter outside A-H;
#   - a flag the subcommand does not read, and a positional argument the
#     subcommand does not take, are usage errors naming the subcommand;
#   - an unknown subcommand exits 3 before any flag is looked at;
#   - a thread count one past the cap (--jobs, --check-jobs, the benches'
#     --jobs) is a usage error before any pool is built;
#   - the bench binaries (BENCH_DIR) hold their flags to the same rules:
#     a bad number, an out-of-bound --reps/--jobs or an unknown flag
#     exits 2 with a message naming it, before any simulation runs.
#
#   cmake -DCLI=path/to/dynvote_cli -DBENCH_DIR=path/to/bench \
#         -DWORK_DIR=scratch/dir -P numeric_flags_smoke.cmake

if(NOT CLI OR NOT BENCH_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "pass -DCLI=<dynvote_cli> -DBENCH_DIR=<bench dir> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Fails the test unless `<program> <args>` exits with `expected_rc` and
# its stderr contains every `needle` (a ;-list).
function(expect_exit program expected_rc needles)
  execute_process(COMMAND "${program}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(JOIN " " args ${ARGN})
  get_filename_component(name "${program}" NAME)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
      "${name} ${args} exited with ${rc} (expected ${expected_rc}):\n"
      "${out}${err}")
  endif()
  foreach(needle IN LISTS needles)
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${name} ${args} did not say '${needle}':\n${err}")
    endif()
  endforeach()
endfunction()

# expect_exit for dynvote_cli.
function(expect_rejected expected_rc needles)
  expect_exit("${CLI}" ${expected_rc} "${needles}" ${ARGN})
endfunction()

# Fails the test unless `dynvote_cli <command> <flag><value>` is a usage
# error naming the flag. Commands that need a placement get one, so a
# value wrongly accepted would run rather than fail for another reason.
function(expect_usage_error command flag value)
  set(placement)
  if(command MATCHES "^(simulate|repeat)$")
    set(placement --sites=1,2,3)
  endif()
  string(REGEX REPLACE "=$" "" name "${flag}")
  expect_rejected(2 "${name}: " ${command} ${placement} "${flag}${value}")
endfunction()

# Feeds `flag` of `command` every hostile value, `overflow` among them.
function(expect_rejects_garbage command flag overflow)
  foreach(value "" abc 2abc ${overflow})
    expect_usage_error(${command} ${flag} "${value}")
  endforeach()
endfunction()

# Feeds `flag` of `command` each value after them, all outside its bound.
function(expect_out_of_range command flag)
  foreach(value IN LISTS ARGN)
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

# Each bound is the one the library enforces: counts >= 1, thread counts
# >= 0, rates and horizons > 0, costs >= 0, the write mix in [0, 1].
# NaN is outside every bound.
expect_out_of_range(repeat --reps= 0 -1)
expect_out_of_range(repeat --objects= 0 -1)
expect_out_of_range(check --depth= 0 -1)
expect_out_of_range(check --schedules= 0 -5)
expect_out_of_range(check --swarm-depth= 0 -3)
expect_out_of_range(repeat --jobs= -1)
expect_out_of_range(check --check-jobs= -1)

# Thread counts stop at kMaxWorkerThreads (util/thread_pool.h, 1024):
# one past it is refused before any pool is built. Only the rejection is
# run. Each flag after the one under test is itself out of range, so a
# wrongly accepted count still exits 2 at parse time (naming the other
# flag) instead of starting a pool.
set(past_cap 1025)
expect_rejected(2 "--jobs: must be in [0, 1024]"
                repeat --sites=1,2,3 --jobs=${past_cap} --reps=0)
expect_rejected(2 "--jobs: must be in [0, 1024]"
                serve --config=A --jobs=${past_cap} --reps=0)
expect_rejected(2 "--check-jobs: must be in [0, 1024]"
                check --check-jobs=${past_cap} --depth=0)
expect_out_of_range(simulate --years= 0 -1 nan)
expect_out_of_range(simulate --rate= 0 -2)
expect_out_of_range(serve --arrival-rate= 0 -1)
expect_out_of_range(serve --service-time= -0.5)
expect_out_of_range(serve --msg-cost= -1)
expect_out_of_range(serve --write-fraction= -0.1 1.5 nan)

# A rate inside its bound whose longest exponential gap still overflows
# is refused by the sample path's validation: exit 2 from every command
# that runs one, before any run starts.
expect_rejected(2 "access rate too small"
                simulate --sites=1,2,3 --years=1 --rate=1e-307)
expect_rejected(2 "access rate too small"
                repeat --sites=1,2,3 --years=1 --reps=1 --rate=1e-307)
expect_rejected(2 "arrival rate too small"
                serve --config=A --years=1 --arrival-rate=1e-307)
# A --config letter outside A-H is refused before any configuration runs,
# so AZ does not first run A.
expect_rejected(2 "--config: unknown configuration 'Z'"
                serve --config=AZ --years=0.01)

# Flags a subcommand does not read are rejected, naming both.
expect_rejected(2 "simulate does not accept --depth"
                simulate --sites=1,2 --depth=3 --mode=swarm --config=Z)
expect_rejected(2 "serve does not accept --trace-out" serve --trace-out=x)
expect_rejected(2 "serve does not accept --network" serve --network=x)
expect_rejected(2 "repeat does not accept --csv" repeat --sites=1,2 --csv=x)
expect_rejected(2 "check does not accept --sites" check --sites=1,2)
expect_rejected(2 "unknown flag --frobnicate" print --frobnicate)
expect_rejected(2 "--no-memo takes no value" check --no-memo=1)
expect_rejected(2 "--out needs a value" check --out)

# One positional argument at most, and only where the command takes one.
expect_rejected(2 "unexpected argument 'b.jsonl' for trace-summary"
                trace-summary a.jsonl b.jsonl)
expect_rejected(2 "unexpected argument 'extra' for simulate"
                simulate --sites=1,2 extra)

# The command is looked up first: a bad flag cannot mask a bad command.
expect_rejected(3 "unknown command 'frobnicate';trace-summary"
                frobnicate --reps=x)

# --- The bench binaries -------------------------------------------------
# Every rejected value exits 2 before the grid runs. The flags ahead of
# the one under test keep a wrongly accepted value cheap to run.
set(paper_tables "${BENCH_DIR}/paper_tables")
set(short --years=1 --batches=2 --configs=A)

# Fails the test unless `<bench> <short> <flag><value>` is a usage error
# naming the flag.
function(expect_bench_usage_error bench flag value)
  string(REGEX REPLACE "=$" "" name "${flag}")
  expect_exit("${bench}" 2 "${name}: " ${short} "${flag}${value}")
endfunction()

foreach(flag --batches= --reps= --jobs= --runs=)
  foreach(value "" abc 2abc 99999999999999999999999)
    expect_bench_usage_error("${paper_tables}" ${flag} "${value}")
  endforeach()
endforeach()
foreach(value "" abc 2abc 1e999)
  expect_bench_usage_error("${paper_tables}" --years= "${value}")
endforeach()
foreach(value "" abc -1 99999999999999999999999)
  expect_bench_usage_error("${paper_tables}" --seed= "${value}")
endforeach()
foreach(value 0 -1)
  expect_bench_usage_error("${paper_tables}" --reps= "${value}")
endforeach()
expect_bench_usage_error("${paper_tables}" --jobs= -1)
# One past the thread cap (the short grid runs one replication, so even a
# wrongly accepted count would start a single worker).
expect_bench_usage_error("${paper_tables}" --jobs= ${past_cap})
expect_bench_usage_error("${BENCH_DIR}/reliability_mttf" --runs= x)

# A misspelt flag no longer falls back to the 600-year default.
expect_exit("${paper_tables}" 2 "unknown flag --yeras=5" --yeras=5)
expect_exit("${paper_tables}" 2 "unknown flag --verbose=1" --verbose=1)

# The harnesses that read their own flags.
foreach(bench hotpath_micro serving_latency check_throughput)
  foreach(value "" abc 2abc 1e999)
    expect_exit("${BENCH_DIR}/${bench}" 2 "--min-time-ms: "
                "--min-time-ms=${value}")
  endforeach()
  expect_exit("${BENCH_DIR}/${bench}" 2 "unknown flag --bogus" --bogus)
endforeach()
