# Deletes every file matching GLOB (relative to the working directory):
#
#   cmake -DGLOB=<pattern> -P remove_glob.cmake
#
# Used as a ctest fixture setup step so a test that consumes every file of
# a pattern sees only what this build's run wrote, not parts left by
# earlier runs in the same directory.
if(NOT DEFINED GLOB)
  message(FATAL_ERROR "remove_glob.cmake needs -DGLOB=<pattern>")
endif()
file(GLOB stale "${GLOB}")
if(stale)
  file(REMOVE ${stale})
endif()
