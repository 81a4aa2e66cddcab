# Generation gates, run under ctest:
#
#  1. Determinism: `gnnmark gen --json` produces byte-identical
#     reports (a) across separate processes, (b) across thread counts,
#     with or without the streamed-training windows, and (c) — after
#     normalising the config echo — across chunk granularities. The
#     JSON document deliberately carries only deterministic fields
#     (edges, chunk count, checksum halves, degree stats, losses;
#     never wall-clock), so a byte compare IS the determinism oracle:
#     any divergence means per-unit seeding broke or emission order
#     started depending on the schedule.
#  2. Schema: the streamed-training report carries its config, stream,
#     degree and training sections, stays within its residency budget,
#     keeps the hyperbolic power-law tail and a falling loss, and
#     leaves the wall-clock figures to the --telemetry record.
#  3. Telemetry: two --telemetry captures of the same run pass
#     `bench_diff --tol 0` with no --ignore, so the record's wall-clock
#     keys fall under bench_diff's by-name `host_*` skip.
#
# Invoke as
#   cmake -DGNNMARK_BIN=<gnnmark> -DBENCH_DIFF_BIN=<bench_diff>
#         -P gen_identity.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN BENCH_DIFF_BIN)

set(gen_args gen --family hyperbolic --n 20000 --m 200000 --seed 99
    --stats --json)

run_checked(first ENV GNNMARK_THREADS=1
    COMMAND ${GNNMARK_BIN} ${gen_args} --chunks 8)
run_checked(second ENV GNNMARK_THREADS=1
    COMMAND ${GNNMARK_BIN} ${gen_args} --chunks 8)
if(NOT first STREQUAL second)
    message(FATAL_ERROR
        "gen --json reports differ between two processes with the "
        "same config and seed — determinism broke")
endif()
message(STATUS "gen reports byte-identical across processes")

run_checked(threaded ENV GNNMARK_THREADS=16
    COMMAND ${GNNMARK_BIN} ${gen_args} --chunks 8)
if(NOT first STREQUAL threaded)
    message(FATAL_ERROR
        "gen --json reports differ between GNNMARK_THREADS=1 and 16 "
        "— the emitted edge set depends on the thread count")
endif()
message(STATUS "gen reports byte-identical across thread counts")

# Chunk granularity legitimately changes the config echo and the
# residency figures; the emitted edge *content* — edge count and the
# order-dependent checksum — must not move.
foreach(chunks 1 64)
    run_checked(report ENV GNNMARK_THREADS=4
        COMMAND ${GNNMARK_BIN} ${gen_args} --chunks ${chunks})
    string(JSON edges GET "${report}" generation stream edges)
    string(JSON hi GET "${report}" generation stream checksum_hi)
    string(JSON lo GET "${report}" generation stream checksum_lo)
    set(fingerprint_${chunks} "${edges} ${hi} ${lo}")
endforeach()
if(NOT fingerprint_1 STREQUAL fingerprint_64)
    message(FATAL_ERROR
        "edge checksum differs between --chunks 1 and 64 — chunk "
        "granularity leaked into the emitted edge set")
endif()
message(STATUS "edge checksum identical across chunk granularity")

# Streamed training, windowed: byte-identical across thread counts,
# and the windows tile every emitted chunk. The 32 requested chunks
# clamp to the 31 hyperbolic units (~16k edges each) of this graph.
set(stream_args gen --family hyperbolic --n 50000 --m 500000 --chunks 32
    --stream)
run_checked(windowed COMMAND ${GNNMARK_BIN} ${stream_args}
    --train-window 8 --json)
run_checked(windowed16 ENV GNNMARK_THREADS=16
    COMMAND ${GNNMARK_BIN} ${stream_args} --train-window 8 --json)
if(NOT windowed STREQUAL windowed16)
    message(FATAL_ERROR
        "streamed-training windows differ across thread counts")
endif()
string(JSON window_chunks GET "${windowed}"
    generation training window_chunks)
string(JSON windows LENGTH "${windowed}" generation training windows)
string(JSON emitted GET "${windowed}" generation stream chunks_emitted)
if(NOT window_chunks EQUAL 8 OR windows EQUAL 0 OR NOT emitted EQUAL 31)
    message(FATAL_ERROR
        "window_chunks ${window_chunks}, ${windows} windows, ${emitted} "
        "chunks emitted; want 8, at least one, 31")
endif()
set(covered 0)
math(EXPR last "${windows} - 1")
foreach(i RANGE ${last})
    string(JSON w GET "${windowed}" generation training windows ${i})
    foreach(field chunks min_loss mean_loss max_loss)
        string(JSON ${field} GET "${w}" ${field})
    endforeach()
    if(min_loss GREATER mean_loss OR mean_loss GREATER max_loss)
        message(FATAL_ERROR
            "window ${i}: want min ${min_loss} <= mean ${mean_loss} <= "
            "max ${max_loss}")
    endif()
    math(EXPR covered "${covered} + ${chunks}")
endforeach()
if(NOT covered EQUAL emitted)
    message(FATAL_ERROR
        "training windows cover ${covered} of ${emitted} chunks")
endif()
message(STATUS "${windows} training windows cover ${emitted} chunks")

# Streamed training with degree stats: arming --telemetry must not
# change the report, and the report keeps its schema.
set(telemetry gen_identity_telemetry.jsonl)
run_checked(train COMMAND ${GNNMARK_BIN} ${stream_args} --stats
    --telemetry ${telemetry} --json)
run_checked(train_b COMMAND ${GNNMARK_BIN} ${stream_args} --stats --json)
if(NOT train STREQUAL train_b)
    message(FATAL_ERROR
        "streamed-training reports differ between two processes")
endif()
string(JSON doc GET "${train}" generation)
string(JSON stream GET "${doc}" stream)
string(JSON degrees GET "${doc}" degrees)
string(JSON training GET "${doc}" training)
string(JSON config GET "${doc}" config)
require_json("${config}" "config" family n target_edges chunks lookahead
    seed)
require_json("${stream}" "stream" edges chunks_emitted checksum_hi
    checksum_lo peak_resident_bytes resident_budget_bytes)
require_json("${degrees}" "degrees" tracked stride min max mean
    modal_degree distinct slope_valid loglog_slope)
string(JSON peak GET "${stream}" peak_resident_bytes)
string(JSON budget GET "${stream}" resident_budget_bytes)
if(peak GREATER budget)
    message(FATAL_ERROR "resident peak ${peak} B exceeds budget ${budget} B")
endif()
string(JSON slope_valid GET "${degrees}" slope_valid)
string(JSON slope GET "${degrees}" loglog_slope)
if(NOT slope_valid OR NOT slope LESS -1.0)
    message(FATAL_ERROR
        "hyperbolic family lost its power-law tail (slope ${slope})")
endif()
string(JSON batches GET "${training}" batches)
string(JSON first_loss GET "${training}" first_loss)
string(JSON last_loss GET "${training}" last_loss)
if(NOT batches GREATER 0 OR NOT last_loss LESS first_loss)
    message(FATAL_ERROR
        "${batches} batches, loss ${first_loss} -> ${last_loss}: the "
        "loss did not fall")
endif()
# Wall-clock never leaks into the deterministic document; the
# telemetry record carries the throughput figures instead.
foreach(key wall_sec edges_per_sec)
    string(FIND "${train}" "${key}" pos)
    if(NOT pos EQUAL -1)
        message(FATAL_ERROR "gen --json report carries ${key}")
    endif()
endforeach()
file(STRINGS ${telemetry} records)
file(REMOVE ${telemetry})
list(GET records 0 record)
string(JSON type GET "${record}" type)
string(JSON label GET "${record}" label)
if(NOT type STREQUAL "generation" OR NOT label STREQUAL "gen")
    message(FATAL_ERROR
        "telemetry record is type '${type}' label '${label}', want "
        "'generation'/'gen'")
endif()
require_json("${record}" "generation telemetry record" host_wall_sec
    host_edges_per_sec)
string(JSON edges GET "${stream}" edges)
message(STATUS "generation schema ok: ${edges} edges")

# Two captures of one run differ only in wall clock, which bench_diff
# skips by name; any other key that differs is a determinism break or
# a wall-clock key outside the host_* convention.
foreach(capture a b)
    run_checked(unused COMMAND ${GNNMARK_BIN} gen --family rmat --n 4096
        --stats --stream --train-window 3
        --telemetry gen_identity_telemetry_${capture}.jsonl)
endforeach()
run_checked(unused COMMAND ${BENCH_DIFF_BIN}
    gen_identity_telemetry_a.jsonl gen_identity_telemetry_b.jsonl --tol 0)
file(REMOVE gen_identity_telemetry_a.jsonl gen_identity_telemetry_b.jsonl)
message(STATUS "generation telemetry identical under bench_diff --tol 0")
