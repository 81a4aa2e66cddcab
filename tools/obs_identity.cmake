# Windowed-observability gates, run under ctest:
#
#  1. Determinism: the timeline (per-window p50/p95/p99, goodput,
#     queue depth, burn-rate alerts) and the request-trace lanes are
#     byte-identical across separate processes AND across thread
#     counts, with or without --telemetry/--chrome-trace armed.
#     Everything in the observability layer is integer bucket
#     arithmetic over simulated time, so any divergence means a
#     wall-clock or iteration-order leak. The chrome trace is compared
#     on its pid-3 request lanes only: pids 1/2 carry wall-clock host
#     spans that are allowed to differ.
#  2. Content: every window conserves requests and carries its
#     percentile/burn fields, an alert overlaps the injected faults,
#     the telemetry's slo_alert records match the report's alerts, and
#     the request lanes hold both exemplar and sampled requests with
#     arrival and infer spans.
#
# Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P obs_identity.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN)

set(serve_args serve --faults mixed --replicas 3 --rps 30000
    --duration 0.5 --seed 11 --window 50 --trace-requests 32 --json)

run_checked(first ENV GNNMARK_THREADS=1 COMMAND ${GNNMARK_BIN} ${serve_args})
run_checked(second ENV GNNMARK_THREADS=1 COMMAND ${GNNMARK_BIN} ${serve_args})
if(NOT first STREQUAL second)
    message(FATAL_ERROR
        "windowed serving --json reports differ between two "
        "processes — timeline determinism broke")
endif()
message(STATUS "windowed serving reports byte-identical across processes")

# The request lanes are the last thing the writer emits, so the file
# tail from the pid-3 process meta onwards is exactly the lane data.
# (file(STRINGS) + foreach would not work here: the unclosed "[" after
# "traceEvents" makes CMake's list parser swallow every separator.)
set(telemetry obs_identity_telemetry.jsonl)
foreach(threads 1 16)
    set(trace obs_identity_t${threads}.json)
    run_checked(report ENV GNNMARK_THREADS=${threads}
        COMMAND ${GNNMARK_BIN} ${serve_args} --chrome-trace ${trace}
                --telemetry ${telemetry})
    if(NOT first STREQUAL report)
        message(FATAL_ERROR
            "windowed serving --json report differs between "
            "GNNMARK_THREADS=1 and ${threads} with telemetry armed — a "
            "thread count or a sink leaked into the timeline")
    endif()
    file(READ ${trace} content)
    file(REMOVE ${trace})
    string(FIND "${content}" "\"serving requests (sim time)\"" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "chrome trace has no pid-3 request lanes")
    endif()
    string(SUBSTRING "${content}" ${pos} -1 lanes${threads})
endforeach()
if(NOT lanes1 STREQUAL lanes16)
    message(FATAL_ERROR
        "chrome-trace request lanes differ between thread counts")
endif()
message(STATUS "reports and request lanes byte-identical across threads")

# Timeline: 50 ms windows, each conserving its requests and carrying
# the percentile, goodput, queue and burn-budget figures.
string(JSON window_sec GET "${first}" serving timeline window_sec)
if(NOT window_sec EQUAL 0.05)
    message(FATAL_ERROR "timeline window_sec ${window_sec}, want 0.05")
endif()
string(JSON windows LENGTH "${first}" serving timeline windows)
if(windows EQUAL 0)
    message(FATAL_ERROR "timeline has no windows")
endif()
math(EXPR last "${windows} - 1")
foreach(i RANGE ${last})
    string(JSON w GET "${first}" serving timeline windows ${i})
    require_json("${w}" "window ${i}" p50_ms p95_ms p99_ms
        goodput_per_sec queue_depth_mean burn_rate budget_consumed)
    foreach(field offered full fallback shed lost)
        string(JSON ${field} GET "${w}" ${field})
    endforeach()
    math(EXPR accounted "${full} + ${fallback} + ${shed} + ${lost}")
    if(NOT offered EQUAL accounted)
        message(FATAL_ERROR
            "window ${i} leaks requests: offered ${offered}, "
            "accounted ${accounted}")
    endif()
endforeach()

string(JSON traced GET "${first}" serving tracing traced_requests)
if(NOT traced GREATER 0)
    message(FATAL_ERROR "no requests traced")
endif()

# The mixed scenario injects its faults inside [0.15d, 0.85d] of the
# 0.5 s run; at least one alert interval must overlap that span.
string(JSON alerts LENGTH "${first}" serving timeline alerts)
if(alerts EQUAL 0)
    message(FATAL_ERROR "mixed faults raised no slo_alert")
endif()
math(EXPR last "${alerts} - 1")
set(overlaps FALSE)
foreach(i RANGE ${last})
    string(JSON start GET "${first}" serving timeline alerts ${i} start_sec)
    string(JSON end GET "${first}" serving timeline alerts ${i} end_sec)
    if(start LESS 0.425 AND end GREATER 0.075)
        set(overlaps TRUE)
    endif()
endforeach()
if(NOT overlaps)
    message(FATAL_ERROR "no alert overlaps the injected fault interval")
endif()

# Telemetry: the serving record first, then one slo_alert record per
# report alert, in order, with matching fields.
file(STRINGS ${telemetry} records)
file(REMOVE ${telemetry})
list(GET records 0 record)
string(JSON type GET "${record}" type)
if(NOT type STREQUAL "serving")
    message(FATAL_ERROR "first telemetry record is '${type}', want serving")
endif()
set(index 0)
foreach(record IN LISTS records)
    string(JSON type GET "${record}" type)
    if(NOT type STREQUAL "slo_alert")
        continue()
    endif()
    if(index GREATER_EQUAL alerts)
        message(FATAL_ERROR "more slo_alert records than report alerts")
    endif()
    foreach(field rule severity start_window end_window start_sec end_sec
                  peak_burn error_fraction)
        string(JSON got GET "${record}" ${field})
        string(JSON want GET "${first}" serving timeline alerts ${index}
            ${field})
        if(NOT got STREQUAL want)
            message(FATAL_ERROR
                "slo_alert ${index} ${field}: telemetry ${got}, "
                "report ${want}")
        endif()
    endforeach()
    string(JSON got_window GET "${record}" window_sec)
    string(JSON got_faults GET "${record}" faults)
    if(NOT got_window EQUAL 0.05 OR NOT got_faults STREQUAL "mixed")
        message(FATAL_ERROR
            "slo_alert ${index}: window_sec ${got_window}, faults "
            "${got_faults}; want 0.05 and mixed")
    endif()
    math(EXPR index "${index} + 1")
endforeach()
if(NOT index EQUAL alerts)
    message(FATAL_ERROR
        "${index} slo_alert records for ${alerts} report alerts")
endif()
message(STATUS "${alerts} slo_alert records match the report")

# Request lanes: named thread lanes for exemplar and sampled requests,
# each carrying spans, among them arrival and infer.
string(REGEX MATCHALL
    "\"thread_name\",\"args\":{\"name\":\"[^\"]*\"" lane_names "${lanes1}")
string(REGEX MATCHALL "\\[exemplar\\]" exemplars "${lane_names}")
list(LENGTH lane_names lane_count)
list(LENGTH exemplars exemplar_count)
if(exemplar_count EQUAL 0 OR exemplar_count EQUAL lane_count)
    message(FATAL_ERROR
        "${lane_count} request lanes, ${exemplar_count} exemplars: want "
        "both exemplar and sampled lanes")
endif()
string(REGEX MATCHALL
    "\"ph\":\"X\",\"pid\":3,\"tid\":[0-9]+,\"name\":\"[a-z_]+\""
    spans "${lanes1}")
foreach(kind arrival infer)
    string(FIND "${spans}" "\"name\":\"${kind}\"" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "request lanes carry no '${kind}' span")
    endif()
endforeach()
list(LENGTH spans span_count)
message(STATUS "${lane_count} request lanes, ${span_count} spans")
