# Runs a command and passes only if it exits with exactly EXPECT_EXIT:
#
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake <program> [args...]
#
# WILL_FAIL cannot tell a clean usage error (exit 2) from a crash, since an
# abort "fails" too; this check can.
set(cmd)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "expect_exit\\.cmake$")
    set(collect TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${rc}': ${cmd}")
endif()
