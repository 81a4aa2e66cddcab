# Telemetry + regression-gate smoke test, run under ctest. Exercises
# the full producer/consumer loop: gnnmark writes a telemetry file and
# a chrome trace in the documented schema, bench_diff passes on a
# self-diff and on two fresh processes at zero tolerance, fails on
# injected regressions, distinguishes harness errors (exit 2) from
# perf failures (1), and the STGCN capture matches its committed
# baseline. Invoke as
#   cmake -DGNNMARK_BIN=<gnnmark> -DBENCH_DIFF_BIN=<bench_diff>
#         -DBASELINES=<bench/baselines> -P bench_diff_smoke.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN BENCH_DIFF_BIN BASELINES)

set(tele_a ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_a.jsonl)
set(tele_b ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_b.jsonl)
set(tele_bad ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_bad.jsonl)

# Telemetry is bitwise reproducible across processes (the cache model
# hashes simulated device addresses, DESIGN.md §9), so a file must
# self-diff clean and two fresh processes must agree at zero
# tolerance, histograms included.
expect_exit(0 ${GNNMARK_BIN} run STGCN --scale 0.25 --iters 2
            --telemetry ${tele_a})
expect_exit(0 ${GNNMARK_BIN} run STGCN --scale 0.25 --iters 2
            --telemetry ${tele_b})
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_a})   # self-diff
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_b})

# Inject a regression: every "sim_time_us" value grows ~1000x. The
# gate must fail even at the baselines' 5% tolerance and pass once
# the tolerance covers the injected drift.
file(READ ${tele_a} content)
string(REGEX REPLACE "\"sim_time_us\":([0-9]+)\\."
       "\"sim_time_us\":\\1999." content "${content}")
file(WRITE ${tele_bad} "${content}")
expect_exit(1 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad} --tol 0.05
            --abs 1e-4)
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad}
            --tol-prefix iteration.=1e9 --tol-prefix manifest.=1e9)

# A missing-record candidate is a failure unless --allow-missing.
file(STRINGS ${tele_a} lines)
list(GET lines 0 first_line)
file(WRITE ${tele_bad} "${first_line}\n")
expect_exit(1 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad})
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad} --allow-missing)

# Harness errors are exit 2, never 0 or a "perf" 1.
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a})                       # one arg
# A tolerance must be a plain non-negative number: "5%" once read as
# 5.0 (500%) and passed a 3x regression that 0.05 fails.
set(tol_base ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_tol_base.jsonl)
file(WRITE ${tol_base} "{\"type\":\"x\",\"v\":1.0}\n")
file(WRITE ${tele_bad} "{\"type\":\"x\",\"v\":3.0}\n")
expect_exit(1 ${BENCH_DIFF_BIN} ${tol_base} ${tele_bad} --tol 0.05)
expect_exit(2 ${BENCH_DIFF_BIN} ${tol_base} ${tele_bad} --tol 5%)
expect_exit(2 ${BENCH_DIFF_BIN} ${tol_base} ${tele_bad} --tol -0.05)
file(REMOVE ${tol_base})
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a} no-such-file.jsonl)    # IoError
file(WRITE ${tele_bad} "{not json\n")
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad})           # bad JSON

# The committed STGCN capture. It was recorded at one thread: the
# simulated keys are thread-invariant, but the manifest echoes the
# thread count, so the run pins it.
set(tele ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_stgcn.jsonl)
set(trace ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_stgcn.json)
run_checked(report ENV GNNMARK_THREADS=1
    COMMAND ${GNNMARK_BIN} run STGCN --scale 0.25 --iters 4
            --telemetry ${tele} --chrome-trace ${trace} --json)
string(JSON unused TYPE "${report}")   # the --json report parses

# Schema: one "iteration" record per step, then the run manifest.
file(STRINGS ${tele} records)
list(LENGTH records count)
if(NOT count EQUAL 5)
    message(FATAL_ERROR "expected 5 telemetry records, got ${count}")
endif()
foreach(i RANGE 3)
    list(GET records ${i} record)
    string(JSON type GET "${record}" type)
    string(JSON iteration GET "${record}" iteration)
    if(NOT type STREQUAL "iteration" OR NOT iteration EQUAL i)
        message(FATAL_ERROR
            "record ${i} is '${type}' #${iteration}, want iteration #${i}")
    endif()
    require_json("${record}" "iteration record" workload loss
        sim_time_us kernels host_time_us metrics)
    string(JSON metrics GET "${record}" metrics)
    require_json("${metrics}" "iteration metrics" counters gauges
        histograms)
endforeach()
list(GET records 4 manifest)
string(JSON type GET "${manifest}" type)
if(NOT type STREQUAL "manifest")
    message(FATAL_ERROR "last record is '${type}', want manifest")
endif()
require_json("${manifest}" "manifest" seed scale iterations threads
    host_wall_us profile)

# The chrome trace carries all three lane families: device events
# (pid 1), host spans (pid 2) and the process-name metadata of both.
file(READ ${trace} content)
string(REGEX MATCHALL "\"ph\":\"X\"" events "${content}")
string(REGEX MATCHALL "\"ph\":\"X\",\"pid\":[0-9]+" event_pids
    "${content}")
list(LENGTH events event_count)
list(LENGTH event_pids pid_count)
list(REMOVE_DUPLICATES event_pids)
list(SORT event_pids)
if(NOT pid_count EQUAL event_count OR NOT event_pids STREQUAL
   "\"ph\":\"X\",\"pid\":1;\"ph\":\"X\",\"pid\":2")
    message(FATAL_ERROR
        "complete events on ${event_pids}, want pids 1 and 2")
endif()
string(REGEX MATCHALL "\"process_name\"" processes "${content}")
string(REGEX MATCHALL
    "\"process_name\",\"args\":{\"name\":\"[^\"]*\"" process_names
    "${content}")
list(LENGTH processes process_count)
list(LENGTH process_names name_count)
list(REMOVE_DUPLICATES process_names)
list(SORT process_names)
string(REPLACE "\"process_name\",\"args\":{\"name\":" "" process_names
    "${process_names}")
if(NOT name_count EQUAL process_count OR NOT process_names STREQUAL
   "\"device (sim time)\";\"host (wall clock)\"")
    message(FATAL_ERROR
        "process names ${process_names}, want device (sim time) and "
        "host (wall clock)")
endif()

expect_exit(0 ${BENCH_DIFF_BIN} ${tele} ${tele})   # self-diff
expect_exit(0 ${BENCH_DIFF_BIN} ${BASELINES}/stgcn_scale0.25_iters4.jsonl
            ${tele} --tol 0.05 --abs 1e-4 --hist-pct)

# --hist-pct must catch every kernel-time observation shifted up four
# log2 buckets (16x).
file(READ ${tele} content)
string(REPLACE "\"sim.kernel_time_us\":[" "\"sim.kernel_time_us\":[0,0,0,0,"
       shifted "${content}")
if(shifted STREQUAL content)
    message(FATAL_ERROR "no sim.kernel_time_us histogram to shift")
endif()
file(WRITE ${tele_bad} "${shifted}")
expect_exit(1 ${BENCH_DIFF_BIN} ${tele} ${tele_bad} --tol 0.05 --abs 1e-4
            --hist-pct)

file(REMOVE ${tele_a} ${tele_b} ${tele_bad} ${tele} ${trace})
