# Documented-recipe check: every ./build/examples/... and ./build/bench/...
# command in README.md and EXPERIMENTS.md must still parse.
#
#   cmake -DSOURCE_DIR=<repo> -DBINARY_DIR=<build tree> -P cli_recipes.cmake
#
# Each command (backslash continuations joined, trailing `# comment` and
# closing backtick dropped) runs through sh with ./build/ pointing at
# BINARY_DIR and --help appended. Every CLI honours --help only after all
# other arguments parsed, so exit 0 means the recipe's flags and values
# are all valid; nothing is executed. The scratch working directory
# keeps a CLI that ignored --help from writing into the source tree. A
# recipe this finds broken gets fixed in the doc or the CLI, not skipped.

# Fewer extracted commands than this means the extraction broke.
set(floor 79)

set(workdir "${BINARY_DIR}/cli_recipes")
file(MAKE_DIRECTORY "${workdir}")
set(count 0)
set(failures "")
foreach(doc README.md EXPERIMENTS.md)
  file(READ "${SOURCE_DIR}/${doc}" text)
  string(REPLACE "\\\n" " " text "${text}")
  # Protect list separators before splitting into lines.
  string(REPLACE ";" "\;" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  foreach(line IN LISTS lines)
    string(REGEX MATCHALL "\\./build/(examples|bench)/[^`#]*" cmds "${line}")
    foreach(cmd IN LISTS cmds)
      string(STRIP "${cmd}" cmd)
      string(REPLACE "./build/" "${BINARY_DIR}/" run "${cmd}")
      execute_process(COMMAND sh -c "${run} --help"
                      WORKING_DIRECTORY "${workdir}"
                      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
      math(EXPR count "${count} + 1")
      if(NOT rc EQUAL 0)
        string(APPEND failures "\n${doc}: ${cmd} --help -> exit ${rc}\n${err}")
      endif()
    endforeach()
  endforeach()
endforeach()

message(STATUS "checked ${count} documented command(s)")
if(count LESS floor)
  message(FATAL_ERROR "extracted ${count} command(s), expected >= ${floor}")
endif()
if(failures)
  message(FATAL_ERROR "broken recipe(s):${failures}")
endif()
