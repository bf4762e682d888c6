# Drives kcc's batched multi-program mode: several input files run
# through one shared work-stealing scheduler; per-file reports land on
# stderr, program outputs pass through stdout in command-line order,
# --batch-stats prints the shared-scheduler counters, and the exit code
# is 139 if any program is undefined, 1 if any fails to compile (and
# none is undefined), else 0. Run via ctest (test name: kcc_batch_cli).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> -DWORKDIR=<dir> -P CheckBatchCli.cmake")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
set(UB_C ${WORKDIR}/batch_ub.c)
file(WRITE ${UB_C} "int d = 5;\nint setDenom(int x) { return d = x; }\nint main(void) { return (10 / d) + setDenom(0); }\n")
set(OK_C ${WORKDIR}/batch_ok.c)
file(WRITE ${OK_C} "int main(void) { return 0; }\n")
set(BAD_C ${WORKDIR}/batch_bad.c)
file(WRITE ${BAD_C} "int main(void) { return 0 }\n")

# UB + clean: exit 139, stats block, per-file headers, UB report.
execute_process(
  COMMAND ${KCC} ${UB_C} ${OK_C} --batch-stats --search=64 --search-jobs=2
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 139)
  message(FATAL_ERROR "kcc batch (ub, ok): expected exit 139, got ${RC}")
endif()
if(NOT ERR MATCHES "Batch stats: programs=2")
  message(FATAL_ERROR "kcc batch: missing --batch-stats block: ${ERR}")
endif()
if(NOT ERR MATCHES "== .*batch_ub.c ==" OR NOT ERR MATCHES "== .*batch_ok.c ==")
  message(FATAL_ERROR "kcc batch: missing per-file headers: ${ERR}")
endif()
if(NOT ERR MATCHES "Error: 00001")
  message(FATAL_ERROR "kcc batch: missing division-by-zero report: ${ERR}")
endif()
if(NOT ERR MATCHES "batch_ub.c: UNDEFINED" OR NOT ERR MATCHES "batch_ok.c: clean")
  message(FATAL_ERROR "kcc batch: missing per-program verdict lines: ${ERR}")
endif()
# Neither file opens with #include, so the header-prefix cache was
# never consulted.
if(NOT ERR MATCHES "Header prefix: hits=0 joins=0 misses=0 evictions=0")
  message(FATAL_ERROR "kcc batch: header-prefix line missing or moved: ${ERR}")
endif()

# All clean: exit 0.
execute_process(
  COMMAND ${KCC} ${OK_C} ${OK_C} --batch-stats
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc batch (ok, ok): expected exit 0, got ${RC}: ${ERR}")
endif()

# Compile failure without UB: exit 1, diagnostics on stderr.
execute_process(
  COMMAND ${KCC} ${BAD_C} ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "kcc batch (bad, ok): expected exit 1, got ${RC}")
endif()
if(ERR STREQUAL "")
  message(FATAL_ERROR "kcc batch (bad, ok): no compile diagnostic on stderr")
endif()

# Batch witnesses match the single-file ones byte for byte.
execute_process(
  COMMAND ${KCC} ${UB_C} --show-witness --search=64
  RESULT_VARIABLE RC1 OUTPUT_VARIABLE OUT1 ERROR_VARIABLE ERR1)
execute_process(
  COMMAND ${KCC} ${UB_C} --show-witness --search=64 --batch-stats
  RESULT_VARIABLE RC2 OUTPUT_VARIABLE OUT2 ERROR_VARIABLE ERR2)
if(NOT RC1 EQUAL 139 OR NOT RC2 EQUAL 139)
  message(FATAL_ERROR "kcc witness runs: expected exit 139, got ${RC1}/${RC2}")
endif()
string(REGEX MATCH "Witness decisions:[^\n]*" W1 "${ERR1}")
string(REGEX MATCH "Witness decisions:[^\n]*" W2 "${ERR2}")
if(NOT W1 STREQUAL W2 OR W1 STREQUAL "")
  message(FATAL_ERROR "kcc batch witness differs from single-file: '${W1}' vs '${W2}'")
endif()

# Duplicate-heavy batch through the result cache: the duplicates must
# resolve warm (hit rate > 0 in the honest counters) and the rendered
# reports must be byte-identical to the cache-off A/B run.
execute_process(
  COMMAND ${KCC} ${UB_C} ${UB_C} ${UB_C} ${UB_C} --batch-stats --search=64
  RESULT_VARIABLE RC_ON OUTPUT_VARIABLE OUT_ON ERROR_VARIABLE ERR_ON)
execute_process(
  COMMAND ${KCC} ${UB_C} ${UB_C} ${UB_C} ${UB_C} --batch-stats --search=64
          --result-cache=off
  RESULT_VARIABLE RC_OFF OUTPUT_VARIABLE OUT_OFF ERROR_VARIABLE ERR_OFF)
if(NOT RC_ON EQUAL 139 OR NOT RC_OFF EQUAL 139)
  message(FATAL_ERROR "kcc duplicate batch: expected exit 139, got ${RC_ON}/${RC_OFF}")
endif()
# The duplicates resolve warm either way the race falls: as hits on
# the published entry or as joins of the in-flight search. Exactly one
# search may run.
if(NOT ERR_ON MATCHES "Result cache: hits=([0-9]+) joins=([0-9]+) misses=1")
  message(FATAL_ERROR "kcc duplicate batch: duplicates did not resolve from the result cache: ${ERR_ON}")
endif()
math(EXPR RC_WARM "${CMAKE_MATCH_1} + ${CMAKE_MATCH_2}")
if(NOT RC_WARM EQUAL 3)
  message(FATAL_ERROR "kcc duplicate batch: expected 3 warm resolutions, got hits=${CMAKE_MATCH_1} joins=${CMAKE_MATCH_2}")
endif()
if(NOT ERR_OFF MATCHES "Result cache: hits=0 joins=0 misses=0")
  message(FATAL_ERROR "kcc --result-cache=off: cache counters moved: ${ERR_OFF}")
endif()
if(NOT OUT_ON STREQUAL OUT_OFF)
  message(FATAL_ERROR "kcc duplicate batch: stdout differs between cache on and off")
endif()
# stderr minus the wall-clock-bearing stats lines must match too: the
# per-file reports and verdicts are cache-invisible.
string(REGEX REPLACE "[^\n]*(Batch stats|cache):[^\n]*\n" "" REPORT_ON "${ERR_ON}")
string(REGEX REPLACE "[^\n]*(Batch stats|cache):[^\n]*\n" "" REPORT_OFF "${ERR_OFF}")
if(NOT REPORT_ON STREQUAL REPORT_OFF)
  message(FATAL_ERROR "kcc duplicate batch: reports differ between cache on and off:\n${REPORT_ON}\n--- vs ---\n${REPORT_OFF}")
endif()

# peak_frontier is per program: batched with a deeper search, in either
# order, a program reports the value it reports alone.
set(SHALLOW_C ${WORKDIR}/batch_shallow.c)
file(WRITE ${SHALLOW_C} "static int g(int x) { return x + 1; }\nint main(void) { return g(1) + g(2) > 0 ? 0 : 1; }\n")
set(DEEP_C ${WORKDIR}/batch_deep.c)
file(WRITE ${DEEP_C} "static int g(int x) { return x + 1; }\nint main(void) { int t = g(0) + g(1) + g(2) + g(3) + g(4) + g(5) + g(6) + g(7);\n  return t > 0 ? 0 : 1; }\n")
function(peak_frontiers OUT_VAR)
  execute_process(
    COMMAND ${KCC} --json --search=5000 --search-jobs=1 ${ARGN}
    RESULT_VARIABLE RC OUTPUT_VARIABLE JSON ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "kcc --json ${ARGN}: expected exit 0, got ${RC}: ${ERR}")
  endif()
  set(PEAKS "")
  string(JSON N LENGTH "${JSON}" programs)
  math(EXPR LAST "${N} - 1")
  foreach(I RANGE ${LAST})
    string(JSON P GET "${JSON}" programs ${I} search peak_frontier)
    list(APPEND PEAKS ${P})
  endforeach()
  set(${OUT_VAR} "${PEAKS}" PARENT_SCOPE)
endfunction()
peak_frontiers(SHALLOW_ALONE ${SHALLOW_C})
peak_frontiers(DEEP_ALONE ${DEEP_C})
if(NOT DEEP_ALONE GREATER SHALLOW_ALONE)
  message(FATAL_ERROR "kcc peak_frontier: the deep program (${DEEP_ALONE}) must peak above the shallow one (${SHALLOW_ALONE})")
endif()
peak_frontiers(DEEP_FIRST ${DEEP_C} ${SHALLOW_C})
peak_frontiers(SHALLOW_FIRST ${SHALLOW_C} ${DEEP_C})
if(NOT DEEP_FIRST STREQUAL "${DEEP_ALONE};${SHALLOW_ALONE}" OR
   NOT SHALLOW_FIRST STREQUAL "${SHALLOW_ALONE};${DEEP_ALONE}")
  message(FATAL_ERROR "kcc peak_frontier is not per program: alone ${SHALLOW_ALONE} and ${DEEP_ALONE}, batched ${DEEP_FIRST} and ${SHALLOW_FIRST}")
endif()

message(STATUS "kcc batched CLI behaves as documented")
