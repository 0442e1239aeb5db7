# Negative-input table runner: every row must exit nonzero within a few
# seconds and name the offending input on stderr.  A count that wraps
# around (e.g. "-5" read as ~2^64 trials) would hang instead; the
# per-row timeout turns that into a fast failure.
#
#   cmake -DBIN_DIR=<dir> -P cli_negative_inputs.cmake -- <row>...
#
# Row format: "<text stderr must contain>|<program> <arguments>", where
# <program> is a binary in BIN_DIR.  The row tables live next to the
# add_test() calls that pass them (tools/ and bench/ CMakeLists.txt).

if(NOT BIN_DIR)
  message(FATAL_ERROR "pass -DBIN_DIR=<directory holding the binaries>")
endif()

set(rows)
set(in_rows FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_rows)
    list(APPEND rows "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_rows TRUE)
  endif()
endforeach()
if(NOT rows)
  message(FATAL_ERROR "pass the rows after '--'")
endif()

set(failures 0)
foreach(row IN LISTS rows)
  string(FIND "${row}" "|" bar)
  string(SUBSTRING "${row}" 0 ${bar} expect)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${row}" ${start} -1 command)
  separate_arguments(argv UNIX_COMMAND "${command}")
  list(POP_FRONT argv program)
  execute_process(COMMAND "${BIN_DIR}/${program}" ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 5)
  string(FIND "${err}" "${expect}" named)
  if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(SEND_ERROR "${command}: expected a nonzero exit, got '${rc}'")
    math(EXPR failures "${failures} + 1")
  elseif(named EQUAL -1)
    message(SEND_ERROR "${command}: stderr does not name '${expect}':\n${err}")
    math(EXPR failures "${failures} + 1")
  else()
    string(STRIP "${err}" err)
    message(STATUS "ok (exit ${rc}): ${command} -> ${err}")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} negative-input row(s) failed")
endif()
