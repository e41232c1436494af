# End-to-end trace smoke for dynvote_cli, run by ctest as cli_trace_smoke:
#   - --version lists every schema, and an unknown subcommand exits 3
#     and lists the known ones;
#   - a traced, metered simulate summarizes cleanly, and its .btrace twin
#     converts to the byte-identical JSONL;
#   - a truncated binary trace is a clean error (exit 1), not a crash;
#   - repeat JSON, JSONL and btrace traces and metrics are byte-identical
#     for --jobs=1 and --jobs=4, with and without the serving model;
#   - serve writes its schema-tagged report.
# The run leaves sim.jsonl and sim-metrics.json in WORK_DIR for schema
# validators to read.
#
#   cmake -DCLI=path/to/dynvote_cli -DWORK_DIR=scratch/dir \
#         -P trace_smoke.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DWORK_DIR=<dir>")
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

# Fails unless files `a` and `b` in WORK_DIR have identical bytes (binary
# safe, so it also compares .btrace files).
function(expect_same_file a b)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
    WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

# --- Version lists every schema; unknown commands exit 3 ----------------
run_cli(version 0 --version)
foreach(schema dynvote-trace-v1 dynvote-btrace-v1 dynvote-metrics-v1
               dynvote-hotpath-bench-v1 dynvote-serving-v1
               dynvote-checkbench-v1)
  expect_contains("--version" "${version}" ${schema})
endforeach()
run_cli(unknown 3 frobnicate)
expect_contains("unknown-command stderr" "${unknown_err}" trace-summary)

# --- Traced simulate + trace-summary ------------------------------------
run_cli(ignored 0 simulate --sites=1,3,5 --years=5
        --trace-out=sim.jsonl --metrics-out=sim-metrics.json)
run_cli(summary 0 trace-summary sim.jsonl)
expect_contains("trace-summary sim.jsonl" "${summary}"
                "schema=dynvote-trace-v1")
expect_contains("trace-summary sim.jsonl" "${summary}" "malformed=0")

# --- The binary trace converts to the byte-identical JSONL run ----------
run_cli(ignored 0 simulate --sites=1,3,5 --years=5 --trace-out=sim.btrace)
run_cli(ignored 0 trace-convert sim.btrace --out=sim-converted.jsonl)
expect_same_file(sim-converted.jsonl sim.jsonl)
run_cli(bsummary 0 trace-summary sim.btrace)
expect_contains("trace-summary sim.btrace" "${bsummary}"
                "schema=dynvote-btrace-v1")
expect_contains("trace-summary sim.btrace" "${bsummary}" "malformed=0")

# --- A truncated binary trace is a clean error, not a crash -------------
execute_process(COMMAND head -c 200 sim.btrace
  WORKING_DIRECTORY "${WORK_DIR}" OUTPUT_FILE "${WORK_DIR}/cut.btrace"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not truncate sim.btrace")
endif()
run_cli(cut 1 trace-convert cut.btrace --out=cut.jsonl)
expect_contains("truncated trace-convert stderr" "${cut_err}"
                "corrupt binary trace")

# --- Traced repeat is bit-stable across job counts ----------------------
foreach(jobs 1 4)
  run_cli(ignored 0 repeat --sites=1,3,5 --years=5 --reps=4 --jobs=${jobs}
          --json=jobs${jobs}.json --trace-out=jobs${jobs}.jsonl
          --metrics-out=jobs${jobs}-metrics.json)
endforeach()
expect_same_file(jobs1.json jobs4.json)
expect_same_file(jobs1.jsonl jobs4.jsonl)
expect_same_file(jobs1-metrics.json jobs4-metrics.json)

# --- Serving model: serve report schema, repeat jobs-invariance ---------
run_cli(ignored 0 serve --config=B --arrival-rate=500 --years=1
        --json=serve.json)
file(READ "${WORK_DIR}/serve.json" serve)
expect_contains("serve.json" "${serve}" dynvote-serving-v1)
# A light arrival rate over three policies keeps each in-memory trace
# near 30 MB; six policies at 200 arrivals/day write 2.5 GB per trace,
# so that heavy variant runs as a separate CI step instead.
foreach(jobs 1 4)
  run_cli(ignored 0 repeat --sites=1,3,5 --years=1 --reps=4 --jobs=${jobs}
          --arrival-rate=5 --policies=MCV,ODV,TDV --json=serving${jobs}.json
          --trace-out=serving${jobs}.jsonl
          --metrics-out=serving${jobs}-metrics.json)
endforeach()
expect_same_file(serving1.json serving4.json)
expect_same_file(serving1.jsonl serving4.jsonl)
expect_same_file(serving1-metrics.json serving4-metrics.json)
file(READ "${WORK_DIR}/serving1-metrics.json" serving_metrics)
expect_contains("serving metrics" "${serving_metrics}" serving_latency_ms)
run_cli(serving_summary 0 trace-summary serving1.jsonl)
expect_contains("serving trace-summary" "${serving_summary}"
                "serving: events=")

# --- Binary repeat is bit-stable and convert-identical ------------------
foreach(jobs 1 4)
  run_cli(ignored 0 repeat --sites=1,3,5 --years=5 --reps=4 --jobs=${jobs}
          --json=bjobs${jobs}.json --trace-out=jobs${jobs}.btrace)
endforeach()
expect_same_file(jobs1.btrace jobs4.btrace)
run_cli(ignored 0 trace-convert jobs1.btrace --out=jobs1-converted.jsonl)
expect_same_file(jobs1-converted.jsonl jobs1.jsonl)
