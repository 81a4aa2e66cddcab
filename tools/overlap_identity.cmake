# Overlap-model gates, run under ctest:
#
#  1. Determinism: `gnnmark scaling --json` is byte-identical across
#     two separate processes, in each --overlap mode, whether or not
#     --telemetry is armed. (Separate processes so allocator free
#     lists and the device VA arena cannot carry state between runs.)
#  2. Model invariants across the two modes, checked point by point
#     on the parsed numbers: compute time is identical in both modes;
#     with --overlap off comm_exposed_sec == comm_time_sec and
#     overlap_frac == 0; with --overlap on exposure never exceeds the
#     total, the epoch is never slower than the sync epoch, world size
#     1 has no communication, and some point hides communication.
#  3. The --overlap on telemetry matches the committed DDP baseline
#     bench/baselines/scaling_scale0.25_iters2.jsonl.
#
# Invoke as
#   cmake -DGNNMARK_BIN=<gnnmark> -DBENCH_DIFF_BIN=<bench_diff>
#         -DBASELINES=<bench/baselines> -P overlap_identity.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN BENCH_DIFF_BIN BASELINES)

set(scaling_args scaling --scale 0.25 --iters 2 --json)
set(telemetry overlap_identity_telemetry.jsonl)
foreach(mode on off)
    if(mode STREQUAL "on")
        set(sink --telemetry ${telemetry})
    else()
        set(sink)
    endif()
    run_checked(first COMMAND ${GNNMARK_BIN} ${scaling_args}
        --overlap ${mode} ${sink})
    run_checked(second COMMAND ${GNNMARK_BIN} ${scaling_args}
        --overlap ${mode})
    if(NOT first STREQUAL second)
        message(FATAL_ERROR
            "scaling --overlap ${mode} differs between two runs — "
            "the overlap model is not deterministic")
    endif()
    set(json_${mode} "${first}")
    message(STATUS "--overlap ${mode}: deterministic across processes")
endforeach()

run_checked(unused COMMAND ${BENCH_DIFF_BIN}
    ${BASELINES}/scaling_scale0.25_iters2.jsonl ${telemetry}
    --tol 0.05 --abs 1e-8)
file(REMOVE ${telemetry})
message(STATUS "scaling telemetry matches the committed baseline")

string(JSON workloads LENGTH "${json_on}" fig9_scaling)
string(JSON workloads_off LENGTH "${json_off}" fig9_scaling)
if(workloads EQUAL 0 OR NOT workloads EQUAL workloads_off)
    message(FATAL_ERROR
        "--overlap on/off report ${workloads}/${workloads_off} workloads")
endif()
math(EXPR last_wl "${workloads} - 1")
set(hidden_somewhere FALSE)
foreach(i RANGE ${last_wl})
    string(JSON wl MEMBER "${json_on}" fig9_scaling ${i})
    string(JSON wl_off MEMBER "${json_off}" fig9_scaling ${i})
    string(JSON points LENGTH "${json_on}" fig9_scaling ${wl})
    string(JSON points_off LENGTH "${json_off}" fig9_scaling ${wl_off})
    if(NOT wl STREQUAL wl_off OR NOT points EQUAL points_off)
        message(FATAL_ERROR
            "${wl}: --overlap on/off report different scaling points")
    endif()
    math(EXPR last_pt "${points} - 1")
    foreach(j RANGE ${last_pt})
        foreach(mode on off)
            string(JSON point GET "${json_${mode}}" fig9_scaling ${wl} ${j})
            foreach(field world_size compute_time_sec comm_time_sec
                          comm_exposed_sec overlap_frac epoch_time_sec)
                string(JSON ${field}_${mode} GET "${point}" ${field})
            endforeach()
        endforeach()
        set(at "${wl} w${world_size_on}")
        # The toggle only touches the comm model: compute is
        # bit-identical between the two runs.
        if(NOT compute_time_sec_on STREQUAL compute_time_sec_off)
            message(FATAL_ERROR
                "${at}: compute differs across --overlap modes")
        endif()
        # Sync model: fully serialized, nothing hidden.
        if(NOT comm_exposed_sec_off STREQUAL comm_time_sec_off OR
           NOT overlap_frac_off EQUAL 0)
            message(FATAL_ERROR
                "${at}: --overlap off exposes ${comm_exposed_sec_off} of "
                "${comm_time_sec_off} s (frac ${overlap_frac_off}); the "
                "sync model must be fully serialized")
        endif()
        # Overlap model: exposure bounded by the total, and the epoch
        # never worse than the sync epoch.
        if(comm_exposed_sec_on GREATER comm_time_sec_on)
            message(FATAL_ERROR
                "${at}: --overlap on exposes ${comm_exposed_sec_on} > "
                "comm_time_sec ${comm_time_sec_on}")
        endif()
        if(epoch_time_sec_on GREATER epoch_time_sec_off)
            message(FATAL_ERROR
                "${at}: overlap-on epoch ${epoch_time_sec_on} s slower "
                "than the sync epoch ${epoch_time_sec_off} s")
        endif()
        if(world_size_on EQUAL 1 AND NOT comm_time_sec_on EQUAL 0)
            message(FATAL_ERROR "${at}: a single GPU communicates")
        endif()
        if(comm_exposed_sec_on LESS comm_time_sec_on)
            set(hidden_somewhere TRUE)
        endif()
    endforeach()
endforeach()
if(NOT hidden_somewhere)
    message(FATAL_ERROR
        "--overlap on: no point hides any communication — overlap "
        "model inert")
endif()
message(STATUS "overlap invariants hold for ${workloads} workloads")
