# Runs CMD with ARGS and fails unless it exits with status EXPECT. A process
# killed by a signal (e.g. std::terminate's abort on an uncaught exception)
# reports a non-numeric result and fails as well.
#
#   cmake -DCMD=<exe> -DARGS=<arg;...> -DEXPECT=<n> -P expect_exit_code.cmake
execute_process(COMMAND ${CMD} ${ARGS}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
