# Negative-input table for the nbclos CLI: every row must exit nonzero
# within a few seconds and name the offending input on stderr.  A count
# that wraps around (e.g. "-5" read as ~2^64 trials) would hang instead;
# the per-row timeout turns that into a fast failure.
#
#   cmake -DNBCLOS=<path to the nbclos binary> -P cli_negative_inputs.cmake
#
# Row format: "<text stderr must contain>|<command line>".
set(rows
  "--trials|verify 4 8 random --trials -5"
  "--threads|verify 4 8 random --threads -1"
  "--trials|verify 4 8 random --trials 12abc"
  "--steps|verify 4 8 adversarial --steps 99999999999"
  "kary:0,3|flow-sim kary:0,3 0.2")

if(NOT NBCLOS)
  message(FATAL_ERROR "pass -DNBCLOS=<path to the nbclos binary>")
endif()

set(failures 0)
foreach(row IN LISTS rows)
  string(FIND "${row}" "|" bar)
  string(SUBSTRING "${row}" 0 ${bar} expect)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${row}" ${start} -1 command)
  separate_arguments(argv UNIX_COMMAND "${command}")
  execute_process(COMMAND "${NBCLOS}" ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 5)
  string(FIND "${err}" "${expect}" named)
  if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(SEND_ERROR "nbclos ${command}: expected a nonzero exit, got '${rc}'")
    math(EXPR failures "${failures} + 1")
  elseif(named EQUAL -1)
    message(SEND_ERROR
      "nbclos ${command}: stderr does not name '${expect}':\n${err}")
    math(EXPR failures "${failures} + 1")
  else()
    string(STRIP "${err}" err)
    message(STATUS "ok (exit ${rc}): nbclos ${command} -> ${err}")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} negative-input row(s) failed")
endif()
