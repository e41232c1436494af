# Short fresh runs of the three perf benches, run by ctest as
# bench_json_fresh: `hotpath_micro`, `serving_latency` and
# `check_throughput` at --min-time-ms=1 each exit 0 and write a document
# that bench/bench_json_check.cmake accepts, schema only. The timing
# gates (-DGATES=ON) need full-length runs and stay in CI's perf-smoke.
#
#   cmake -DBENCH_DIR=path/to/bench -DCHECK_SCRIPT=bench_json_check.cmake \
#         -DWORK_DIR=scratch/dir -P bench_fresh_smoke.cmake

if(NOT BENCH_DIR OR NOT CHECK_SCRIPT OR NOT WORK_DIR)
  message(FATAL_ERROR
    "pass -DBENCH_DIR=<bench dir> -DCHECK_SCRIPT=<bench_json_check.cmake> "
    "-DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `<bench> --min-time-ms=1 --out=<json>` and fails unless it exits 0.
function(run_bench bench json)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --min-time-ms=1 "--out=${json}"
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}:\n${out}${err}")
  endif()
endfunction()

run_bench(hotpath_micro "${WORK_DIR}/BENCH_hotpath.json")
run_bench(serving_latency "${WORK_DIR}/BENCH_serving.json")
run_bench(check_throughput "${WORK_DIR}/BENCH_check.json")

execute_process(
  COMMAND "${CMAKE_COMMAND}"
    "-DHOTPATH=${WORK_DIR}/BENCH_hotpath.json"
    "-DSERVING=${WORK_DIR}/BENCH_serving.json"
    "-DCHECK=${WORK_DIR}/BENCH_check.json"
    -P "${CHECK_SCRIPT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fresh bench documents fail the schema check:\n"
    "${out}${err}")
endif()
message(STATUS "fresh hotpath, serving and check documents pass the schema")
