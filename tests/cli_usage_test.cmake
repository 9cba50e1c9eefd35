# Runs one acoustic command line and checks how it ends.
#
#   MODE=usage (default)  the command must be rejected as a usage error
#                         before it does any work: exit code 2, a stderr
#                         line matching EXPECT (the offending flag or
#                         argument), and no "training" line on either
#                         stream.
#   MODE=help             the command must print text matching EXPECT on
#                         stdout, nothing on stderr, and exit 0.
#
# Invoked from tests/CMakeLists.txt with -DACOUSTIC_BIN, -DARGS (the
# command line, space-separated) and -DEXPECT (a regular expression).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${ACOUSTIC_BIN} ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(report "acoustic ${ARGS}\nexit ${rc}\nstdout:\n${out}\nstderr:\n${err}")

if(MODE STREQUAL "help")
  if(NOT rc EQUAL 0 OR NOT err STREQUAL "" OR NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "expected help matching '${EXPECT}' on stdout and "
                        "exit 0:\n${report}")
  endif()
  return()
endif()

if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2:\n${report}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "no stderr line names '${EXPECT}':\n${report}")
endif()
if("${out}${err}" MATCHES "training")
  message(FATAL_ERROR "the command started work before rejecting its "
                      "arguments:\n${report}")
endif()
