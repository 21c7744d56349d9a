# Replays a corpus trace copied to a path that JSON has to escape (a quote
# and a backslash) and parses the `vedr_replay --json` line: it must be valid
# JSON whose "trace" field reads back as that path.
#
#   cmake -DREPLAY=<vedr_replay> -DTRACE=<corpus .vtrc> -DWORKDIR=<dir>
#         -P json_path_smoke.cmake
set(dir "${WORKDIR}/json_path_smoke")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
set(path "${dir}/a\"b\\c.vtrc")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${TRACE}" "${path}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot copy ${TRACE} to ${path}")
endif()

execute_process(COMMAND "${REPLAY}" "${path}" --json
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vedr_replay --json failed with exit code ${rc}")
endif()
string(JSON trace ERROR_VARIABLE err GET "${out}" trace)
if(err)
  message(FATAL_ERROR "vedr_replay --json wrote invalid JSON (${err}):\n${out}")
endif()
if(NOT trace STREQUAL path)
  message(FATAL_ERROR "\"trace\" reads back as '${trace}', not '${path}'")
endif()
file(REMOVE_RECURSE "${dir}")
