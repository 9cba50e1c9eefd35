# Checks that a table program writes a bench.v1 document: the program
# writes it with --json, then `acoustic bench --compare` reads it back.
# parse_bench_json rejects any document that is not bench.v1, so a
# private schema fails the compare. Every table entry is then "missing"
# from the plan suite's run, which lists it by name; EXPECT must match
# that listing.
#
# Invoked from tests/CMakeLists.txt with -DTABLE_BIN, -DACOUSTIC_BIN,
# -DDOC and -DEXPECT.
file(REMOVE ${DOC})
execute_process(
  COMMAND ${TABLE_BIN} --json ${DOC}
  RESULT_VARIABLE write_rc
  OUTPUT_QUIET)
if(NOT write_rc EQUAL 0)
  message(FATAL_ERROR "${TABLE_BIN} --json failed (exit ${write_rc})")
endif()
if(NOT EXISTS ${DOC})
  message(FATAL_ERROR "${TABLE_BIN} wrote no document")
endif()

execute_process(
  COMMAND ${ACOUSTIC_BIN} bench --suite plan --quick --iters 1 --warmup 0
          --no-counters --compare ${DOC}
  RESULT_VARIABLE compare_rc
  OUTPUT_VARIABLE compare_out
  ERROR_VARIABLE compare_err)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "acoustic bench --compare rejected ${DOC} (exit ${compare_rc}):\n"
          "${compare_err}")
endif()
if(NOT compare_out MATCHES "${EXPECT}")
  message(FATAL_ERROR "compare output lacks '${EXPECT}':\n${compare_out}")
endif()
