# Helpers shared by the tools/*.cmake ctest scripts; include() it.
#
#   require_vars(<var>...)
#     Fails unless every <var> was passed with -D<var>=...
#
#   run_checked(<out_var> [EXIT <code>] [ENV <NAME=value>...]
#               COMMAND <argv>...)
#     Runs <argv> with the given environment overrides, stores its
#     stdout in <out_var> and fails the test, quoting stdout and
#     stderr, unless the exit status is <code> (default 0).
#
#   expect_exit(<code> <argv>...)
#     run_checked() when only the exit status matters.
#
#   require_json(<json> <what> <member>...)
#     Fails unless the JSON object <json> has every <member>.

function(require_vars)
    foreach(var IN LISTS ARGN)
        if(NOT DEFINED ${var})
            message(FATAL_ERROR "pass -D${var}=...")
        endif()
    endforeach()
endfunction()

function(run_checked out_var)
    cmake_parse_arguments(PARSE_ARGV 1 arg "" "EXIT" "ENV;COMMAND")
    if(NOT DEFINED arg_EXIT)
        set(arg_EXIT 0)
    endif()
    # The overrides go into this process's environment around a direct
    # execute_process: `cmake -E env` would turn a child killed by a
    # signal into a plain exit 1, while run directly a crash reports a
    # non-numeric status ("Child aborted", ...) that matches no <code>.
    set(names)
    foreach(pair IN LISTS arg_ENV)
        string(FIND "${pair}" "=" eq)
        string(SUBSTRING "${pair}" 0 ${eq} name)
        math(EXPR eq "${eq} + 1")
        string(SUBSTRING "${pair}" ${eq} -1 value)
        if(DEFINED ENV{${name}})
            set(old_${name} "$ENV{${name}}")
        endif()
        set(ENV{${name}} "${value}")
        list(APPEND names ${name})
    endforeach()
    execute_process(
        COMMAND ${arg_COMMAND}
        RESULT_VARIABLE rv
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    foreach(name IN LISTS names)
        if(DEFINED old_${name})
            set(ENV{${name}} "${old_${name}}")
        else()
            unset(ENV{${name}})
        endif()
    endforeach()
    if(NOT rv STREQUAL arg_EXIT)
        string(REPLACE ";" " " cmd "${arg_ENV};${arg_COMMAND}")
        message(FATAL_ERROR
            "${cmd}: expected exit ${arg_EXIT}, got '${rv}'\n${out}${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_exit code)
    run_checked(unused EXIT ${code} COMMAND ${ARGN})
endfunction()

function(require_json json what)
    foreach(member IN LISTS ARGN)
        string(JSON type ERROR_VARIABLE err TYPE "${json}" ${member})
        if(err)
            message(FATAL_ERROR "${what} missing \"${member}\": ${err}")
        endif()
    endforeach()
endfunction()
