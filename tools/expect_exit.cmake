# Runs a command and passes only when it exits with EXIT and its combined
# stdout/stderr matches REGEX — a ctest can pin one exact non-zero exit
# code, which PASS_REGULAR_EXPRESSION and WILL_FAIL cannot. An optional
# -DTIMEOUT=SECONDS kills a command that does not exit. Usage:
#
#   cmake -DEXIT=3 -DREGEX=could -P expect_exit.cmake -- prog arg...
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

if(DEFINED TIMEOUT)
  set(timeout TIMEOUT ${TIMEOUT})
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ${timeout}
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit ${EXIT}, got ${rc}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}'")
endif()
