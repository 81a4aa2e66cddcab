# CLI contract smoke test, run under ctest: bad invocations must exit
# with the usage status (2) and good ones with 0. Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P cli_smoke.cmake

cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)
require_vars(GNNMARK_BIN)
set(gnnmark ${GNNMARK_BIN})

expect_exit(2 ${gnnmark})                           # no command
expect_exit(2 ${gnnmark} frobnicate)                # unknown command
expect_exit(2 ${gnnmark} run)                       # run without a workload
expect_exit(2 ${gnnmark} run NO-SUCH-WORKLOAD)      # unknown workload name
expect_exit(2 ${gnnmark} faults NO-SUCH-WORKLOAD)
expect_exit(2 ${gnnmark} run STGCN --bogus)         # unknown option
expect_exit(2 ${gnnmark} list --scale)              # option missing its value
expect_exit(2 ${gnnmark} trace)                     # trace without a verb
expect_exit(2 ${gnnmark} trace frobnicate)          # unknown trace verb
expect_exit(2 ${gnnmark} trace record)              # record without a workload
expect_exit(2 ${gnnmark} trace diff one.gnntrace)   # diff needs two traces
expect_exit(2 ${gnnmark} sweep)                     # sweep without a workload
expect_exit(2 ${gnnmark} sweep STGCN --param bogus)
expect_exit(1 ${gnnmark} trace info no-such.gnntrace)  # IoError, not a crash
expect_exit(2 ${gnnmark} serve --arrival sometimes)  # unknown arrival process
expect_exit(2 ${gnnmark} serve --faults meteor)     # unknown fault scenario
expect_exit(2 ${gnnmark} serve --hedge maybe)       # on|off toggles only
expect_exit(2 ${gnnmark} serve --replicas 0)
expect_exit(1 ${gnnmark} serve --plan no-such.plan)  # IoError, not a crash
expect_exit(1 ${gnnmark} faults STGCN --plan no-such.plan)
expect_exit(2 ${gnnmark} gen)                       # gen requires --family
expect_exit(2 ${gnnmark} gen --family klein-bottle)  # unknown family
expect_exit(2 ${gnnmark} gen --family rmat --n -4)  # vertex count must be > 1
expect_exit(2 ${gnnmark} gen --family rmat --bogus)  # unknown option
# Chunking must be positive; gamma must be > 2.
expect_exit(2 ${gnnmark} gen --family rmat --chunks 0)
expect_exit(2 ${gnnmark} gen --family hyperbolic --gamma 2.0)
# Numbers must parse whole and lie in the flag's range: each of these
# used to crash (segfault or GNN_ASSERT abort) or run misconfigured.
expect_exit(2 ${gnnmark} run STGCN --iters 0)
expect_exit(2 ${gnnmark} run STGCN --iters abc)
expect_exit(2 ${gnnmark} faults STGCN --iters 0)
expect_exit(2 ${gnnmark} faults STGCN --interval -3)
expect_exit(2 ${gnnmark} scaling --iters 0)
expect_exit(2 ${gnnmark} sweep STGCN --points abc)
expect_exit(2 ${gnnmark} sweep STGCN --param sms --points 0)
expect_exit(2 ${gnnmark} serve --seed -1)
expect_exit(2 ${gnnmark} serve --rps banana)
# A flag only works with the verbs that read it.
expect_exit(2 ${gnnmark} list --weak)
expect_exit(2 ${gnnmark} ops --scale 1)
expect_exit(2 ${gnnmark} trace info x --l2 4)
expect_exit(2 ${gnnmark} characterize --csv)        # removed, never read
# Operands beyond the verb's own are stray.
expect_exit(2 ${gnnmark} list extra)
expect_exit(2 ${gnnmark} run STGCN extra)
expect_exit(0 ${gnnmark} list)                      # healthy baseline

# The "not a crash" checks above hold only if run_checked() tells a
# signal from an exit status: a child that exits 1 must pass EXIT 1,
# one killed by SIGABRT (what GNN_ASSERT does) must fail it.
set(probe ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_probe.cmake)
foreach(child "exit 1" "kill -ABRT $$")
    file(WRITE ${probe}
        "include(${CMAKE_CURRENT_LIST_DIR}/test_helpers.cmake)\n"
        "run_checked(unused EXIT 1 ENV GNNMARK_THREADS=1\n"
        "    COMMAND sh -c \"${child}\")\n")
    execute_process(COMMAND ${CMAKE_COMMAND} -P ${probe}
        RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
    if(child STREQUAL "exit 1" AND NOT rv EQUAL 0)
        message(FATAL_ERROR "run_checked() rejected a clean exit 1")
    elseif(child MATCHES "kill" AND rv EQUAL 0)
        message(FATAL_ERROR "run_checked() took a SIGABRT for exit 1")
    endif()
endforeach()
file(REMOVE ${probe})

# A short serving run with every robustness mechanism engaged, plus
# the save-plan/load-plan round trip on the faults scenario.
set(plan ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_serve.plan)
expect_exit(0 ${gnnmark} serve --faults mixed --replicas 3 --duration 0.1
            --save-plan ${plan} --json)
expect_exit(0 ${gnnmark} serve --plan ${plan} --replicas 3 --duration 0.1)
file(REMOVE ${plan})

# Generation at a tiny scale: every family materializes, and the
# streamed-training path plus degree stats work in both output modes.
expect_exit(0 ${gnnmark} gen --family rmat --n 4096 --stats)
expect_exit(0 ${gnnmark} gen --family rgg2d --n 4096)
expect_exit(0 ${gnnmark} gen --family grid2d --n 4096 --json)
expect_exit(0 ${gnnmark} gen --family hyperbolic --n 4096 --stream --stats
            --json)

# The full trace-once/analyze-many pipeline at a tiny scale: record,
# inspect, replay on the recording config, self-diff, sweep the L2.
set(trc ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_stgcn.gnntrace)
expect_exit(0 ${gnnmark} trace record STGCN --scale 0.25 --iters 2
            --out ${trc})
expect_exit(0 ${gnnmark} trace info ${trc})
expect_exit(0 ${gnnmark} trace replay ${trc})
expect_exit(0 ${gnnmark} trace diff ${trc} ${trc})
expect_exit(0 ${gnnmark} sweep --trace ${trc} --param l2 --points 2,6)
file(REMOVE ${trc})
