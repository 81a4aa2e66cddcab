# Operator-sweep gates, run under ctest: `gnnmark ops --json` must
# produce byte-identical documents (a) across separate processes and
# (b) across thread counts; (c) the GNNMARK_OP_VARIANT override must
# pin every dispatched row to the requested variant, where the free
# run lets the model pick tiled GEMMs; and (d) the pin must move
# nothing but the host variant: every simulated figure is the same.
# The JSON rows carry only simulator-derived numbers (flops, bytes,
# sim time) — never host wall-clock — so a byte compare IS the
# determinism oracle. Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P ops_identity.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN)

run_checked(first ENV GNNMARK_THREADS=1 COMMAND ${GNNMARK_BIN} ops --json)
run_checked(second ENV GNNMARK_THREADS=1 COMMAND ${GNNMARK_BIN} ops --json)
if(NOT first STREQUAL second)
    message(FATAL_ERROR
        "ops --json reports differ between two processes — the sweep "
        "leaked nondeterminism into the machine-readable document")
endif()
message(STATUS "ops reports byte-identical across processes")

run_checked(threaded ENV GNNMARK_THREADS=16
    COMMAND ${GNNMARK_BIN} ops --json)
if(NOT first STREQUAL threaded)
    message(FATAL_ERROR
        "ops --json reports differ across thread counts — a host "
        "kernel's chunking leaked into the simulated numbers")
endif()
message(STATUS "ops reports byte-identical across thread counts")

run_checked(pinned
    ENV GNNMARK_THREADS=1 GNNMARK_OP_VARIANT=gemm=naive,spmm=scalar
    COMMAND ${GNNMARK_BIN} ops --json)
string(REGEX MATCHALL "[^\n]+" free_rows "${first}")
string(REGEX MATCHALL "[^\n]+" pinned_rows "${pinned}")
list(LENGTH free_rows rows)
list(LENGTH pinned_rows pinned_count)
if(NOT rows EQUAL pinned_count)
    message(FATAL_ERROR
        "pinned sweep has ${pinned_count} records, free sweep ${rows}")
endif()
set(naive 0)
set(scalar 0)
set(free_tiled 0)
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
    list(GET free_rows ${i} free)
    list(GET pinned_rows ${i} pin)
    string(JSON type GET "${pin}" type)
    if(NOT type STREQUAL "ops")
        continue()
    endif()
    foreach(field op shape format variant flops min_bytes sim_us gflops
                  roofline_gflops)
        string(JSON free_${field} GET "${free}" ${field})
        string(JSON pin_${field} GET "${pin}" ${field})
    endforeach()
    set(at "${pin_op} ${pin_shape} ${pin_format}")
    # The simulated kernel is the same whichever host variant ran.
    foreach(field op shape format flops min_bytes sim_us gflops
                  roofline_gflops)
        if(NOT free_${field} STREQUAL pin_${field})
            message(FATAL_ERROR
                "${at}: ${field} moved with the host variant "
                "(${free_${field}} -> ${pin_${field}})")
        endif()
    endforeach()
    if(pin_op STREQUAL "gemm")
        if(NOT pin_variant STREQUAL "naive")
            message(FATAL_ERROR
                "${at}: dispatched ${pin_variant} — the gemm=naive "
                "override is not reaching the dispatcher")
        endif()
        math(EXPR naive "${naive} + 1")
        if(free_variant STREQUAL "tiled")
            math(EXPR free_tiled "${free_tiled} + 1")
        endif()
    elseif(pin_op STREQUAL "spmm" AND pin_format STREQUAL "csr")
        if(NOT pin_variant STREQUAL "csr_scalar")
            message(FATAL_ERROR
                "${at}: dispatched ${pin_variant} — the spmm=scalar "
                "override is not reaching the dispatcher")
        endif()
        math(EXPR scalar "${scalar} + 1")
    endif()
endforeach()
if(naive LESS 5 OR scalar LESS 3 OR free_tiled EQUAL 0)
    message(FATAL_ERROR
        "override run pinned ${naive} gemm and ${scalar} csr spmm rows "
        "(expected 5 and 3); the free run picked tiled for ${free_tiled} "
        "(expected at least one)")
endif()
message(STATUS "GNNMARK_OP_VARIANT pins every row; sim figures unmoved")
