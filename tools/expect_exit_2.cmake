# Runs each of TOOLS (a list of executables) with ARGS (one space-separated
# string) followed by FLAG and VALUE, which may be empty, and fails unless
# every tool exits 2: a bad flag value must end in a usage error, never in a
# run or an abort.
if(NOT TOOLS)
  message(FATAL_ERROR "expect_exit_2.cmake: no TOOLS given")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(tool IN LISTS TOOLS)
  execute_process(COMMAND ${tool} ${args} ${FLAG} "${VALUE}" RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    get_filename_component(name "${tool}" NAME)
    message(FATAL_ERROR "${name} ${FLAG} \"${VALUE}\": expected exit code 2, got ${rc}")
  endif()
endforeach()
