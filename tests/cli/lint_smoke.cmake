# End-to-end smoke for `dynvote_lint`, run by ctest as cli_lint_smoke:
#   - the tree's --json report is a clean dynvote-lint-v2 document: no
#     findings, a positive file count, and an acyclic lock graph whose
#     node list is non-empty and sorted;
#   - --dot writes the lock hierarchy (WORK_DIR/lock_order.dot, which CI
#     uploads);
#   - a lock-order cycle makes the tool exit 1.
#
#   cmake -DLINT=path/to/dynvote_lint -DREPO=repo/root \
#         -DWORK_DIR=scratch/dir -P lint_smoke.cmake

if(NOT LINT OR NOT REPO OR NOT WORK_DIR)
  message(FATAL_ERROR
    "pass -DLINT=<dynvote_lint> -DREPO=<repo root> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `dynvote_lint <args>` from the repo root; fails the test unless it
# exits with `expected_rc`, otherwise stores stdout in `out_var`.
function(run_lint out_var expected_rc)
  execute_process(COMMAND "${LINT}" ${ARGN}
    WORKING_DIRECTORY "${REPO}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR
      "dynvote_lint ${args} exited with ${rc} (expected ${expected_rc}):\n"
      "${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(fail msg)
  message(FATAL_ERROR "lint --json: ${msg}")
endfunction()

set(inputs src bench tools docs README.md DESIGN.md EXPERIMENTS.md)

# --- The tree's JSON report -------------------------------------------
run_lint(json 0 --json ${inputs})
string(JSON schema GET "${json}" schema)
if(NOT schema STREQUAL "dynvote-lint-v2")
  fail("unexpected schema '${schema}'")
endif()
string(JSON findings_type TYPE "${json}" findings)
string(JSON findings_len LENGTH "${json}" findings)
if(NOT findings_type STREQUAL "ARRAY" OR NOT findings_len EQUAL 0)
  string(JSON findings GET "${json}" findings)
  fail("findings must be empty, got ${findings}")
endif()
string(JSON files GET "${json}" files_scanned)
if(NOT files MATCHES "^[0-9]+$" OR files EQUAL 0)
  fail("bad files_scanned '${files}'")
endif()
string(JSON graph_type TYPE "${json}" lock_graph)
if(NOT graph_type STREQUAL "OBJECT")
  fail("missing lock_graph")
endif()
string(JSON acyclic GET "${json}" lock_graph acyclic)
if(NOT acyclic STREQUAL "ON")
  string(JSON cycles GET "${json}" lock_graph cycles)
  fail("lock graph not acyclic: cycles=${cycles}")
endif()
string(JSON nodes_type TYPE "${json}" lock_graph nodes)
string(JSON node_count LENGTH "${json}" lock_graph nodes)
if(NOT nodes_type STREQUAL "ARRAY" OR node_count EQUAL 0)
  fail("lock graph lost its mutexes")
endif()
set(nodes)
math(EXPR last "${node_count} - 1")
foreach(i RANGE ${last})
  string(JSON node GET "${json}" lock_graph nodes ${i})
  list(APPEND nodes "${node}")
endforeach()
set(sorted ${nodes})
list(SORT sorted)
if(NOT nodes STREQUAL sorted)
  fail("lock graph nodes must be sorted (deterministic output): ${nodes}")
endif()
string(JSON edge_count LENGTH "${json}" lock_graph edges)
message(STATUS "schema OK: ${files} files, ${node_count} mutex(es), "
               "${edge_count} edge(s), acyclic")

# --- The DOT export ---------------------------------------------------
run_lint(text 0 --dot "${WORK_DIR}/lock_order.dot" ${inputs})
file(READ "${WORK_DIR}/lock_order.dot" dot)
if(NOT dot MATCHES "^digraph lock_order {\n")
  message(FATAL_ERROR "--dot wrote no lock hierarchy:\n${dot}")
endif()

# --- A lock-order cycle fails the run ---------------------------------
run_lint(cycle 1
  tests/lint/fixtures/analyze/src/util/lockorder_fire.cc)
if(NOT cycle MATCHES "\\[lock-order\\]" OR NOT cycle MATCHES "CYCLIC")
  message(FATAL_ERROR "cycle fixture not reported:\n${cycle}")
endif()
