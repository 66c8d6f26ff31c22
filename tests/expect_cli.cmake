# Runs one CLI invocation and checks its outcome, for ctests that need
# more than a zero exit:
#   cmake -DEXE=<binary> -DARGS="<space-separated args>"
#         -DEXPECT_EXIT=<code> -DEXPECT=<regex> [-DFORBID=<regex>]
#         [-DOUT_FILE=<path> -DFILE_EXPECT=<regex> [-DFILE_FORBID=<regex>]]
#         -P expect_cli.cmake
# Passes when the exit code equals EXPECT_EXIT, the combined
# stdout+stderr matches EXPECT, and (if given) nothing matches FORBID.
# With OUT_FILE, the file the run wrote (removed first) must match
# FILE_EXPECT and must not match FILE_FORBID.
if(DEFINED OUT_FILE)
  file(REMOVE "${OUT_FILE}")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${arg_list}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_EXIT}:\n${all}")
endif()
if(NOT all MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${all}")
endif()
if(DEFINED FORBID AND all MATCHES "${FORBID}")
  message(FATAL_ERROR "output matches forbidden '${FORBID}':\n${all}")
endif()
if(DEFINED OUT_FILE)
  if(NOT EXISTS "${OUT_FILE}")
    message(FATAL_ERROR "the run wrote no ${OUT_FILE}")
  endif()
  file(READ "${OUT_FILE}" written)
  if(NOT written MATCHES "${FILE_EXPECT}")
    message(FATAL_ERROR "${OUT_FILE} does not match '${FILE_EXPECT}'")
  endif()
  if(DEFINED FILE_FORBID AND written MATCHES "${FILE_FORBID}")
    message(FATAL_ERROR "${OUT_FILE} matches forbidden '${FILE_FORBID}'")
  endif()
endif()
