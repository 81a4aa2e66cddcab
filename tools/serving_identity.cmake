# Serving gates, run under ctest:
#
#  1. Determinism: the same fault plan and seed produce byte-identical
#     --json serving reports across two separate processes. The
#     simulator runs entirely on simulated time ((time, seq)-ordered
#     events, seeded arrivals, priced cost tables), so any divergence
#     means wall-clock time, iteration order of an unordered
#     container, or uninitialised state leaked into the report.
#  2. Plan round trip: a run from a saved plan file reproduces the run
#     that saved it, for the straggler and the mixed scenarios.
#  3. Robustness ablation: under the straggler, hedging + shedding +
#     fallback buy at least 2x the goodput of the bare pool, requests
#     are conserved, and --telemetry leads with the "serving" record.
#
# Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P serving_identity.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN)

set(serve_args serve --faults straggler --replicas 3 --rps 40000
    --duration 0.25 --seed 7 --json)

run_checked(first COMMAND ${GNNMARK_BIN} ${serve_args})
run_checked(second COMMAND ${GNNMARK_BIN} ${serve_args})
if(NOT first STREQUAL second)
    message(FATAL_ERROR
        "serving --json reports differ between two processes with "
        "the same plan and seed — determinism broke")
endif()
message(STATUS "serving reports byte-identical across processes")

# The only allowed difference between the saving and the loading run
# is the scenario label ("<faults>" vs "plan"); normalise it before
# comparing.
set(plan_file serving_identity_plan.txt)
foreach(faults straggler mixed)
    if(faults STREQUAL "straggler")
        set(rate --rps 40000)
    else()
        set(rate)
    endif()
    set(run_args --replicas 3 ${rate} --duration 0.25 --seed 7 --json)
    run_checked(saved COMMAND ${GNNMARK_BIN} serve --faults ${faults}
        ${run_args} --save-plan ${plan_file})
    run_checked(loaded COMMAND ${GNNMARK_BIN} serve --plan ${plan_file}
        ${run_args})
    file(REMOVE ${plan_file})
    string(REPLACE "\"faults\":\"${faults}\"" "\"faults\":\"plan\""
        saved_normalised "${saved}")
    if(saved STREQUAL saved_normalised OR
       NOT saved_normalised STREQUAL loaded)
        message(FATAL_ERROR
            "${faults}: serving report from a loaded plan file differs "
            "from the run that saved it — the plan round trip is lossy")
    endif()
endforeach()
message(STATUS "saved/loaded fault plans reproduce identical runs")

set(ablation_args serve --faults straggler --replicas 3 --duration 0.25
    --seed 7 --json)
set(telemetry serving_identity_telemetry.jsonl)
run_checked(on COMMAND ${GNNMARK_BIN} ${ablation_args}
    --telemetry ${telemetry})
run_checked(off COMMAND ${GNNMARK_BIN} ${ablation_args}
    --hedge off --shed off --fallback off)
# Both runs share one duration, so goodput (SLO-met requests per
# second) at least doubles exactly when the integer slo_met count does.
string(JSON slo_met_on GET "${on}" serving outcomes slo_met)
string(JSON slo_met_off GET "${off}" serving outcomes slo_met)
math(EXPR slo_met_floor "2 * ${slo_met_off}")
if(slo_met_on LESS slo_met_floor)
    message(FATAL_ERROR
        "robustness stack met the SLO on only ${slo_met_on}/${slo_met_off} "
        "requests under the straggler (want >= 2x)")
endif()
foreach(field offered full fallback shed lost)
    string(JSON ${field} GET "${on}" serving outcomes ${field})
endforeach()
math(EXPR accounted "${full} + ${fallback} + ${shed} + ${lost}")
if(NOT offered EQUAL accounted)
    message(FATAL_ERROR
        "request conservation violated: offered ${offered}, "
        "accounted ${accounted}")
endif()
file(STRINGS ${telemetry} records)
file(REMOVE ${telemetry})
list(GET records 0 record)
string(JSON type GET "${record}" type)
string(JSON label GET "${record}" label)
if(NOT type STREQUAL "serving" OR NOT label STREQUAL "serve")
    message(FATAL_ERROR
        "first telemetry record is type '${type}' label '${label}', "
        "want 'serving'/'serve'")
endif()
message(STATUS
    "SLO-met requests on/off = ${slo_met_on}/${slo_met_off}; "
    "requests conserved")
