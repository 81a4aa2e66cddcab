# Allocator-identity gate, run under ctest: the simulated report of
# every suite workload must be byte-identical whether the host bytes
# come from the caching arena or plain posix_memalign. Two separate
# processes per workload, because the caching arena's free lists (and
# the device VA arena) carry state across runs inside one process.
# Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P alloc_identity.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN)

set(workloads
    PSAGE-MVL PSAGE-NWP STGCN DGCN GW KGNNL KGNNH ARGA TLSTM)

foreach(wl IN LISTS workloads)
    foreach(mode system caching)
        run_checked(${mode}_json ENV GNNMARK_ALLOC=${mode}
            COMMAND ${GNNMARK_BIN} run ${wl} --scale 0.2 --iters 2 --json)
    endforeach()
    if(NOT system_json STREQUAL caching_json)
        message(FATAL_ERROR
            "${wl}: --json report differs between GNNMARK_ALLOC="
            "system and caching — the allocator leaked into the "
            "simulated measurements")
    endif()
    message(STATUS "${wl}: reports identical across allocator modes")
endforeach()
