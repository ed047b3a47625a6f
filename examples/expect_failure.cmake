# Runs the command after "--" and passes only if it exits with EXIT_CODE and
# its stderr matches STDERR_REGEX.  PASS_REGULAR_EXPRESSION alone ignores the
# exit status, so an abort that printed the same text would still pass.
#
#   cmake -DEXIT_CODE=2 -DSTDERR_REGEX=<regex> -P expect_failure.cmake -- CMD...
cmake_minimum_required(VERSION 3.16)

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_failure: no command after --")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT "${rc}" STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
    "expected exit status ${EXIT_CODE}, got '${rc}'; stderr:\n${err}")
endif()
if(NOT "${err}" MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
