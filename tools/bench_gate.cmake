# Bench regression gate, run under ctest as <name>_bench_gate: rerun a
# bench_ext_* binary's JSONL twin and diff it *exactly* (tolerance 0)
# against its committed baseline. Every gated record is deterministic
# by construction (bench/baselines/README.md says why, per baseline),
# so any drift means the code behind it changed behaviour; regenerate
# the baseline only after an intentional change. Invoke as
#   cmake -DBENCH_BIN=<bench_ext_*> -DBENCH_DIFF_BIN=<bench_diff>
#         -DBASELINE=<bench/baselines/ext_*.jsonl> -P bench_gate.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(BENCH_BIN BENCH_DIFF_BIN BASELINE)

get_filename_component(name ${BASELINE} NAME_WE)
set(candidate ${name}_candidate.jsonl)
run_checked(unused COMMAND ${BENCH_BIN} ${candidate})
run_checked(unused COMMAND ${BENCH_DIFF_BIN} ${BASELINE} ${candidate})
file(REMOVE ${candidate})
message(STATUS "${name} records match the committed baseline")
