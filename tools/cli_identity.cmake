# Output-identity runner: every command must exit 0, and the text its
# stdout matches with PATTERN (all matches, concatenated) must be
# non-empty and equal to the first command's.
#
#   cmake -DBIN_DIR=<dir> -DPATTERN=<regex> -P cli_identity.cmake -- <command>...
#
# Each <command> is "<program> <arguments>", where <program> is a binary in
# BIN_DIR.  The rows live next to the add_test() calls that pass them.

if(NOT BIN_DIR OR NOT PATTERN)
  message(FATAL_ERROR "pass -DBIN_DIR=<directory> and -DPATTERN=<regex>")
endif()

set(commands)
set(in_rows FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_rows)
    list(APPEND commands "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_rows TRUE)
  endif()
endforeach()
list(LENGTH commands count)
if(count LESS 2)
  message(FATAL_ERROR "pass at least two commands after '--'")
endif()

set(reference "")
set(failures 0)
foreach(command IN LISTS commands)
  separate_arguments(argv UNIX_COMMAND "${command}")
  list(POP_FRONT argv program)
  execute_process(COMMAND "${BIN_DIR}/${program}" ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  string(REGEX MATCHALL "${PATTERN}" matched "${out}")
  string(JOIN "\n" matched ${matched})
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${command}: exit '${rc}':\n${err}")
    math(EXPR failures "${failures} + 1")
  elseif(matched STREQUAL "")
    message(SEND_ERROR "${command}: no output matches '${PATTERN}'")
    math(EXPR failures "${failures} + 1")
  elseif(reference STREQUAL "")
    set(reference "${matched}")
    message(STATUS "reference: ${command}\n${matched}")
  elseif(NOT matched STREQUAL reference)
    message(SEND_ERROR "${command} differs from the reference:\n${matched}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "identical: ${command}")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} command(s) broke output identity")
endif()
