# End-to-end trace smoke for dynvote_cli, run by ctest as cli_trace_smoke:
#   - --version lists every schema, and an unknown subcommand exits 3
#     and lists the known ones;
#   - a traced, metered simulate summarizes cleanly, and its .btrace twin
#     converts to the byte-identical JSONL;
#   - that run's trace and metrics pass the schema checks: every event
#     line has a known kind and a numeric time, the metrics document is
#     dynvote-metrics-v1 with its three sections, TDV/OTDV report a
#     topological carry and ODV none, and each protocol's trace-summary
#     accesses=/granted= equal its accesses_attempted/accesses_granted
#     counters;
#   - a truncated binary trace is a clean error (exit 1), not a crash;
#   - repeat JSON, JSONL and btrace traces and metrics are byte-identical
#     for --jobs=1 and --jobs=4, with and without the serving model;
#   - serve writes its schema-tagged report, and separates its tables by
#     position (--config=ABA prints a blank line after the first A);
#   - a site named with a quote and a backslash reaches repeat's JSON and
#     metrics as valid JSON, and the label reads back exactly;
#   - the simulate traces and the jobs=1 serving repeat traces, in JSONL
#     and btrace, match the SHA-256 digests pinned in
#     GOLDEN_DIR/traces.sha256 (`sha256sum -c` reads the same file).
#
#   cmake -DCLI=path/to/dynvote_cli -DGOLDEN_DIR=tests/cli/golden \
#         -DNETWORK=examples/networks/paper.net -DWORK_DIR=scratch/dir \
#         -P trace_smoke.cmake

if(NOT CLI OR NOT GOLDEN_DIR OR NOT NETWORK OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<dynvote_cli> -DGOLDEN_DIR=<dir> "
    "-DNETWORK=<paper.net> -DWORK_DIR=<dir>")
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

# Fails unless file `name` in WORK_DIR has the SHA-256 digest pinned for
# it in GOLDEN_DIR/traces.sha256.
file(STRINGS "${GOLDEN_DIR}/traces.sha256" pinned_digests)
function(expect_pinned_digest name)
  foreach(line IN LISTS pinned_digests)
    if(line MATCHES "^([0-9a-f]+)  (.+)$" AND CMAKE_MATCH_2 STREQUAL name)
      set(expected "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  if(NOT expected)
    message(FATAL_ERROR "traces.sha256 pins no digest for ${name}")
  endif()
  file(SHA256 "${WORK_DIR}/${name}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
      "${name} has SHA-256 ${actual}, golden pins ${expected}")
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

# --- Trace and metrics schemas, carry attribution, reconciliation -------
file(STRINGS "${WORK_DIR}/sim.jsonl" trace_header LIMIT_COUNT 1)
string(JSON trace_schema ERROR_VARIABLE err GET "${trace_header}" schema)
if(NOT trace_schema STREQUAL "dynvote-trace-v1")
  message(FATAL_ERROR "bad trace header: ${trace_header}")
endif()
file(STRINGS "${WORK_DIR}/sim.jsonl" trace_lines)
file(STRINGS "${WORK_DIR}/sim.jsonl" event_lines REGEX
  "^{\"ev\":\"(net|sim|quorum|access|avail|serving)\",\"t\":-?[0-9][0-9.eE+-]*[,}]")
list(LENGTH trace_lines num_lines)
list(LENGTH event_lines num_events)
math(EXPR num_expected "${num_lines} - 1")
if(num_events EQUAL 0 OR NOT num_events EQUAL num_expected)
  message(FATAL_ERROR "sim.jsonl: ${num_events} of ${num_expected} event "
    "lines have a known kind and a numeric time")
endif()

file(READ "${WORK_DIR}/sim-metrics.json" metrics)
string(JSON metrics_schema ERROR_VARIABLE err GET "${metrics}" schema)
if(NOT metrics_schema STREQUAL "dynvote-metrics-v1")
  message(FATAL_ERROR "bad metrics schema '${metrics_schema}'")
endif()
foreach(section counters gauges histograms)
  string(JSON kind ERROR_VARIABLE err TYPE "${metrics}" ${section})
  if(NOT kind STREQUAL "OBJECT")
    message(FATAL_ERROR "metrics missing '${section}'")
  endif()
endforeach()
# Counter `key`, or 0 when absent (zero counters are not exported).
function(metrics_counter out_var key)
  string(JSON value ERROR_VARIABLE err GET "${metrics}" counters "${key}")
  if(err)
    set(value 0)
  endif()
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()
set(carry "reason=granted_topological_carry")
metrics_counter(tdv_carry "quorum_evaluations{protocol=TDV,${carry}}")
metrics_counter(otdv_carry "quorum_evaluations{protocol=OTDV,${carry}}")
metrics_counter(odv_carry "quorum_evaluations{protocol=ODV,${carry}}")
math(EXPR topological_carry "${tdv_carry} + ${otdv_carry}")
if(topological_carry EQUAL 0)
  message(FATAL_ERROR "no granted_topological_carry for TDV/OTDV")
endif()
if(NOT odv_carry EQUAL 0)
  message(FATAL_ERROR "ODV must never report a topological carry")
endif()
# The trace's access totals reconcile with the attempted/granted counters
# protocol by protocol.
string(REGEX MATCHALL "\n[A-Za-z-]+: accesses=[0-9]+ granted=[0-9]+"
       protocol_lines "${summary}")
if(NOT protocol_lines)
  message(FATAL_ERROR "trace-summary sim.jsonl lists no protocol")
endif()
foreach(line IN LISTS protocol_lines)
  string(REGEX MATCH "([A-Za-z-]+): accesses=([0-9]+) granted=([0-9]+)"
         ignored "${line}")
  set(proto "${CMAKE_MATCH_1}")
  set(accesses "${CMAKE_MATCH_2}")
  set(granted "${CMAKE_MATCH_3}")
  string(JSON attempted ERROR_VARIABLE err GET "${metrics}" counters
         "accesses_attempted{protocol=${proto}}")
  if(err OR NOT attempted EQUAL accesses)
    message(FATAL_ERROR
      "${proto}: ${accesses} access events vs attempted counter '${attempted}'")
  endif()
  metrics_counter(granted_counter "accesses_granted{protocol=${proto}}")
  if(NOT granted_counter EQUAL granted)
    message(FATAL_ERROR
      "${proto}: ${granted} granted access events vs ${granted_counter}")
  endif()
endforeach()

# --- The binary trace converts to the byte-identical JSONL run ----------
run_cli(ignored 0 simulate --sites=1,3,5 --years=5 --trace-out=sim.btrace)
run_cli(ignored 0 trace-convert sim.btrace --out=sim-converted.jsonl)
expect_same_file(sim-converted.jsonl sim.jsonl)
expect_pinned_digest(sim.jsonl)
expect_pinned_digest(sim.btrace)
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

# One blank line between configuration tables, placed by position: a
# letter given twice (ABA) still gets its separator, and none trails.
run_cli(serve_aba 0 serve --config=ABA --years=0.01)
string(REGEX MATCHALL "\n\nconfiguration " separators "${serve_aba}")
list(LENGTH separators num_separators)
if(NOT num_separators EQUAL 2 OR serve_aba MATCHES "\n\n$")
  message(FATAL_ERROR
    "serve --config=ABA wants 2 blank lines between its 3 tables and "
    "none after the last, got ${num_separators}:\n${serve_aba}")
endif()

# --- JSON strings are escaped ------------------------------------------
# The paper network with csvax renamed cs"vax\x: the placement label
# repeat writes must stay a JSON string that reads back exactly.
file(READ "${NETWORK}" paper_net)
string(REPLACE "\nsite csvax " "\nsite cs\"vax\\x " hostile_net "${paper_net}")
file(WRITE "${WORK_DIR}/escape.net" "${hostile_net}")
set(hostile_sites "cs\"vax\\x,beowulf,grendel")
run_cli(ignored 0 repeat --network=escape.net "--sites=${hostile_sites}"
        --years=2 --reps=2 --json=escape.json
        --metrics-out=escape-metrics.json)
file(READ "${WORK_DIR}/escape.json" escape_json)
string(JSON escape_label ERROR_VARIABLE err GET "${escape_json}" label)
if(err OR NOT escape_label STREQUAL hostile_sites)
  message(FATAL_ERROR "repeat --json label '${escape_label}' is not "
    "'${hostile_sites}' (${err})")
endif()
file(READ "${WORK_DIR}/escape-metrics.json" escape_metrics)
string(JSON escape_schema ERROR_VARIABLE err GET "${escape_metrics}" schema)
if(err OR NOT escape_schema STREQUAL "dynvote-metrics-v1")
  message(FATAL_ERROR "escape-metrics.json does not parse: ${err}")
endif()

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
expect_pinned_digest(serving1.jsonl)
run_cli(ignored 0 repeat --sites=1,3,5 --years=1 --reps=4 --jobs=1
        --arrival-rate=5 --policies=MCV,ODV,TDV --trace-out=serving1.btrace)
expect_pinned_digest(serving1.btrace)
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
