# Drives kcc's machine-readable mode: --json must emit one
# cundef-kcc-v1 document on stdout (docs/JSON_OUTPUT.md documents the
# schema) with nothing else around it, embed program output instead of
# passing it through, suppress the human report on stderr, and keep the
# exit-code contract (139 undefined / 1 compile failure / 4 internal
# error / program exit code otherwise). Run via ctest (test name:
# kcc_json_cli).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> -DWORKDIR=<dir> -P CheckJsonCli.cmake")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
set(UB_C ${WORKDIR}/json_ub.c)
file(WRITE ${UB_C} "int d = 5;\nint setDenom(int x) { return d = x; }\nint main(void) { return (10 / d) + setDenom(0); }\n")
set(OK_C ${WORKDIR}/json_ok.c)
file(WRITE ${OK_C} "#include <stdio.h>\nint main(void) { printf(\"hi-json\\n\"); return 5; }\n")
set(BAD_C ${WORKDIR}/json_bad.c)
file(WRITE ${BAD_C} "int main(void) { return 0 }\n")

# Undefined program: exit 139, verdict, findings with the catalog code,
# the witness array, and the scheduler counters.
execute_process(
  COMMAND ${KCC} --json --search=64 ${UB_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 139)
  message(FATAL_ERROR "kcc --json (ub): expected exit 139, got ${RC}")
endif()
if(NOT OUT MATCHES "\"schema\": \"cundef-kcc-v1\"")
  message(FATAL_ERROR "kcc --json: missing schema marker: ${OUT}")
endif()
if(NOT OUT MATCHES "\"exit_code\": 139")
  message(FATAL_ERROR "kcc --json: exit_code field disagrees with contract: ${OUT}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"undefined\"")
  message(FATAL_ERROR "kcc --json: missing undefined verdict: ${OUT}")
endif()
if(NOT OUT MATCHES "\"code\": \"00001\"")
  message(FATAL_ERROR "kcc --json: missing division-by-zero finding: ${OUT}")
endif()
if(NOT OUT MATCHES "\"witness\": \\[1\\]")
  message(FATAL_ERROR "kcc --json: missing witness bytes: ${OUT}")
endif()
if(NOT OUT MATCHES "\"orders_explored\":" OR NOT OUT MATCHES "\"wall_micros\":")
  message(FATAL_ERROR "kcc --json: missing search/timing fields: ${OUT}")
endif()
# The cundef-kcc-v1 compile block (backward-compatible addition): the
# per-job cache flag and the frontend/search cost split, plus the
# engine-wide translation_cache object.
if(NOT OUT MATCHES "\"compile\": \\{" OR NOT OUT MATCHES "\"cache_hit\":"
   OR NOT OUT MATCHES "\"frontend_micros\":"
   OR NOT OUT MATCHES "\"search_micros\":")
  message(FATAL_ERROR "kcc --json: missing compile block fields: ${OUT}")
endif()
if(NOT OUT MATCHES "\"translation_cache\": \\{" OR NOT OUT MATCHES "\"inflight_joins\":")
  message(FATAL_ERROR "kcc --json: missing translation_cache block: ${OUT}")
endif()
# Both cache objects render one counter table, so translation_cache
# carries abandoned (compiles whose owner threw) too.
if(NOT OUT MATCHES "\"translation_cache\": \\{[^}]*\"abandoned\":")
  message(FATAL_ERROR "kcc --json: translation_cache lacks abandoned: ${OUT}")
endif()
# The result-cache additions (same backward-compatible lineage): the
# per-job hit flag in the compile block and the engine-wide
# result_cache counters object.
if(NOT OUT MATCHES "\"result_cache_hit\":" OR NOT OUT MATCHES "\"result_cache\": \\{"
   OR NOT OUT MATCHES "\"abandoned\":")
  message(FATAL_ERROR "kcc --json: missing result_cache fields: ${OUT}")
endif()
# Cross-program snapshot sharing was removed; its pool counter went
# with it and must not come back.
if(OUT MATCHES "snapshot_shared_hits")
  message(FATAL_ERROR "kcc --json: retired snapshot_shared_hits counter present: ${OUT}")
endif()
if(ERR MATCHES "ERROR! KCC")
  message(FATAL_ERROR "kcc --json: human report leaked to stderr: ${ERR}")
endif()
# The document must be the entire stdout (machine-readable boundary).
if(NOT OUT MATCHES "^\\{" OR NOT OUT MATCHES "\\}\n$")
  message(FATAL_ERROR "kcc --json: stdout is not exactly one JSON document")
endif()

# Clean program: its exit code passes through the contract; output is
# embedded, not printed.
execute_process(
  COMMAND ${KCC} --json ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 5)
  message(FATAL_ERROR "kcc --json (ok): expected exit 5, got ${RC}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"clean\"")
  message(FATAL_ERROR "kcc --json (ok): missing clean verdict: ${OUT}")
endif()
if(NOT OUT MATCHES "\"output\": \"hi-json\\\\n\"")
  message(FATAL_ERROR "kcc --json (ok): program output not embedded: ${OUT}")
endif()
if(OUT MATCHES "^hi-json")
  message(FATAL_ERROR "kcc --json (ok): program output leaked around the document")
endif()

# Compile failure: exit 1, verdict compile-error, diagnostics embedded.
execute_process(
  COMMAND ${KCC} --json ${BAD_C} ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "kcc --json (bad, ok): expected exit 1, got ${RC}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"compile-error\"")
  message(FATAL_ERROR "kcc --json (bad): missing compile-error verdict: ${OUT}")
endif()
if(NOT OUT MATCHES "\"compile_errors\": \"[^\"]")
  message(FATAL_ERROR "kcc --json (bad): compile diagnostics not embedded: ${OUT}")
endif()

# A program the machine cannot finish (no main) has no verdict: it must
# read "internal-error" and exit 4, never "clean" and 0.
set(NOMAIN_C ${WORKDIR}/json_nomain.c)
file(WRITE ${NOMAIN_C} "int y;\n")
execute_process(
  COMMAND ${KCC} --json ${NOMAIN_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 4)
  message(FATAL_ERROR "kcc --json (no main): expected exit 4, got ${RC}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"internal-error\"" OR NOT OUT MATCHES "\"exit_code\": 4")
  message(FATAL_ERROR "kcc --json (no main): missing internal-error verdict: ${OUT}")
endif()
execute_process(
  COMMAND ${KCC} ${NOMAIN_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 4 OR NOT ERR MATCHES "Internal error")
  message(FATAL_ERROR "kcc (no main): expected exit 4 and a report, got ${RC}: ${ERR}")
endif()

# Batch: one document, both programs, pool counters.
execute_process(
  COMMAND ${KCC} --json --search=64 --search-jobs=2 ${UB_C} ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 139)
  message(FATAL_ERROR "kcc --json (batch): expected exit 139, got ${RC}")
endif()
if(NOT OUT MATCHES "json_ub.c" OR NOT OUT MATCHES "json_ok.c")
  message(FATAL_ERROR "kcc --json (batch): missing per-program entries: ${OUT}")
endif()
if(NOT OUT MATCHES "\"pool\": \\{" OR NOT OUT MATCHES "\"programs\": 2")
  message(FATAL_ERROR "kcc --json (batch): missing pool stats: ${OUT}")
endif()

# Coverage mode: --json --catalog-coverage emits the coverage document
# of the same schema (backward-compatible: a new top-level block, the
# schema marker and exit_code keys unchanged), the four verdict counts
# must partition all 221 catalog rows, and per-entry verdicts are
# present.
execute_process(
  COMMAND ${KCC} --json --catalog-coverage=quick
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc --json --catalog-coverage: expected exit 0, got ${RC}: ${ERR}")
endif()
if(NOT OUT MATCHES "\"schema\": \"cundef-kcc-v1\"")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing schema marker: ${OUT}")
endif()
if(NOT OUT MATCHES "\"coverage\": \\{" OR NOT OUT MATCHES "\"mode\": \"quick\"")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing coverage block: ${OUT}")
endif()
if(NOT OUT MATCHES "\"total\": 221")
  message(FATAL_ERROR "kcc --json --catalog-coverage: total is not 221: ${OUT}")
endif()
if(NOT OUT MATCHES "\"covered\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing covered count")
endif()
set(COV_COVERED ${CMAKE_MATCH_1})
if(NOT OUT MATCHES "\"wrong_code\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing wrong_code count")
endif()
set(COV_WRONG ${CMAKE_MATCH_1})
if(NOT OUT MATCHES "\"missed\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing missed count")
endif()
set(COV_MISSED ${CMAKE_MATCH_1})
if(NOT OUT MATCHES "\"inexpressible\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing inexpressible count")
endif()
set(COV_INEXPR ${CMAKE_MATCH_1})
math(EXPR COV_SUM "${COV_COVERED} + ${COV_WRONG} + ${COV_MISSED} + ${COV_INEXPR}")
if(NOT COV_SUM EQUAL 221)
  message(FATAL_ERROR "kcc --json --catalog-coverage: counts ${COV_COVERED}+${COV_WRONG}+${COV_MISSED}+${COV_INEXPR}=${COV_SUM} != 221")
endif()
if(NOT OUT MATCHES "\"entries\": \\[" OR NOT OUT MATCHES "\"verdict\": \"covered\"")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing per-entry verdicts: ${OUT}")
endif()
if(NOT OUT MATCHES "\"exit_code\": 0")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing exit_code: ${OUT}")
endif()
if(NOT OUT MATCHES "^\\{" OR NOT OUT MATCHES "\\}\n$")
  message(FATAL_ERROR "kcc --json --catalog-coverage: stdout is not exactly one JSON document")
endif()

# Eviction gate on the counters: deepTreeProgram(10, 512) from
# bench/BenchUtil.h at --search=5000 and one worker peaks at 810
# pending snapshots, inside the 1024 budget, so the search must fork
# every child and evict nothing (deterministic at one worker). A change
# that demotes forks to prefix replay (~5x slower here) fails this
# check.
set(DEEP_C ${WORKDIR}/json_deep_tree.c)
set(DEEP_SRC "int buf[512];\nstatic int g(int x) { buf[(x + 0) % 512] += x; return x + 1; }\nint main(void) {\n  int t = 0;\n")
foreach(I RANGE 0 9)
  math(EXPR A "2 * ${I}")
  math(EXPR B "2 * ${I} + 1")
  string(APPEND DEEP_SRC "  t += g(${A}) + g(${B});\n")
endforeach()
string(APPEND DEEP_SRC "  return t > 0 ? 0 : 1;\n}\n")
file(WRITE ${DEEP_C} "${DEEP_SRC}")
execute_process(
  COMMAND ${KCC} --json --search=5000 --search-jobs=1 ${DEEP_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc --json (deep tree): expected exit 0, got ${RC}: ${ERR}")
endif()
if(NOT OUT MATCHES "\"orders_explored\": 2782,")
  message(FATAL_ERROR "kcc --json (deep tree): expected 2782 committed orders: ${OUT}")
endif()
string(REGEX MATCHALL "\"snapshot_evictions\": [0-9]+" EVICTIONS "${OUT}")
list(LENGTH EVICTIONS N_EVICTIONS)
if(N_EVICTIONS LESS 2)
  message(FATAL_ERROR "kcc --json (deep tree): missing snapshot_evictions counters: ${OUT}")
endif()
foreach(E ${EVICTIONS})
  if(NOT E MATCHES ": 0$")
    message(FATAL_ERROR "kcc --json (deep tree): the search evicted snapshots (${E}): ${OUT}")
  endif()
endforeach()

# The header-prefix counters: N units that open with the same include
# list preprocess it once (one miss) and replay or join it N-1 times; a
# unit with no leading #include looks nothing up.
set(PREFIX_FILES "")
foreach(I RANGE 1 4)
  set(F ${WORKDIR}/json_prefix_${I}.c)
  file(WRITE ${F} "#include <stdio.h>\n#include <stdlib.h>\nint main(void) { printf(\"%d\\n\", ${I}); return EXIT_SUCCESS; }\n")
  list(APPEND PREFIX_FILES ${F})
endforeach()
set(NOINC_C ${WORKDIR}/json_prefix_none.c)
file(WRITE ${NOINC_C} "int main(void) { return 0; }\n")
execute_process(
  COMMAND ${KCC} --json --search=8 ${PREFIX_FILES} ${NOINC_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc --json (header prefix): expected exit 0, got ${RC}: ${ERR}")
endif()
foreach(KEY lookups hits inflight_joins misses abandoned)
  string(JSON V_${KEY} GET "${OUT}" header_prefix ${KEY})
endforeach()
math(EXPR SERVED "${V_hits} + ${V_inflight_joins}")
if(NOT V_lookups EQUAL 4 OR NOT V_misses EQUAL 1 OR NOT SERVED EQUAL 3
   OR NOT V_abandoned EQUAL 0)
  message(FATAL_ERROR "kcc --json (header prefix): expected lookups 4, misses 1, hits + inflight_joins 3, abandoned 0; got ${V_lookups}, ${V_misses}, ${SERVED}, ${V_abandoned}: ${OUT}")
endif()

message(STATUS "kcc --json behaves as documented")
