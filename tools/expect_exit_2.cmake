# Runs TOOL with ARGS (one space-separated string) followed by FLAG and
# VALUE, which may be empty, and fails unless the tool exits 2: a bad flag
# value must end in a usage error, never in a run or an abort.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args} ${FLAG} "${VALUE}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${FLAG} \"${VALUE}\": expected exit code 2, got ${rc}")
endif()
