# Runs one CLI and checks its exit status and one line of its output.
#
#   cmake -DBIN=<binary> -DARGS=<args joined by |> -DRC=<exit status>
#         -DEXPECT=<text> -P cli_expect.cmake
#
# EXPECT must appear verbatim in stdout + stderr.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "exit status ${rc}, expected ${RC}\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks \"${EXPECT}\":\n${out}${err}")
endif()
