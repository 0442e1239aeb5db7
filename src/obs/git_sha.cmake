# Build-time step: write NBCLOS_GIT_SHA (the checkout's short commit id,
# "-dirty" when tracked files differ from it) to the header OUT, touching
# it only when the value changed, so only run_info.cpp recompiles.
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P git_sha.cmake
execute_process(COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR} RESULT_VARIABLE failed
  OUTPUT_VARIABLE sha OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
if(failed OR NOT sha)
  set(sha "unknown")
else()
  execute_process(COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY ${SOURCE_DIR} OUTPUT_VARIABLE changes ERROR_QUIET)
  if(changes)
    string(APPEND sha "-dirty")
  endif()
endif()
set(text "#define NBCLOS_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE ${OUT} "${text}")
endif()
