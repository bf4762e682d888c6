# Drives the kcc CLI's strict flag parsing: non-numeric values for
# numeric flags must be diagnosed on stderr and exit with code 2 (they
# used to be silently atoi'd to 0 and clamped to 1), while the
# documented special values keep working (--search-jobs=0 auto-detects
# hardware concurrency). When KCC_SERVE is given, the daemon's flag
# surface is validated the same way (no daemon is ever started: every
# rejection happens before listen()). Run via ctest (test name:
# kcc_cli_errors).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> [-DKCC_SERVE=<kcc-serve>] -DWORKDIR=<dir> -P CheckCliErrors.cmake")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
set(OK_C ${WORKDIR}/cli_ok.c)
file(WRITE ${OK_C} "int main(void) { return 0; }\n")

# Each entry: flag that must be rejected with exit 2 + a diagnostic.
set(BAD_FLAGS
  --search=abc
  --search=12x
  --search=
  --search=0
  --search-jobs=abc
  --search-jobs=1O
  --search-jobs=-4
  --search-jobs=
  --seed=banana
  # Retired selectors (one production scheduler, no user-facing forced
  # replay): every value is now an unknown flag.
  --search-engine=warp
  --search-engine=fork
  --search-engine=replay
  --search-sched=steal
  --search-sched=wave
  --translation-cache=maybe
  --translation-cache=
  --result-cache=maybe
  --result-cache=
  --catalog-coverage=bogus
  --catalog-coverage=12x
  --catalog-coverage=0
  --catalog-coverage=
  --static-analyze=garbage
  --static-analyze=ON
  --static-analyze=
  # --remote endpoint syntax: every malformed target is rejected before
  # any connection attempt (HOST:PORT needs a nonempty host and a port
  # in 1..65535; unix: needs a nonempty path).
  --remote=
  --remote=unix:
  --remote=nocolon
  --remote=:7777
  --remote=host:
  --remote=host:0
  --remote=host:abc
  --remote=host:70000
  --remote=host:1O)

foreach(FLAG ${BAD_FLAGS})
  execute_process(
    COMMAND ${KCC} ${FLAG} ${OK_C}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "kcc ${FLAG}: expected exit 2, got ${RC}")
  endif()
  if(ERR STREQUAL "")
    message(FATAL_ERROR "kcc ${FLAG}: exit 2 but no diagnostic on stderr")
  endif()
endforeach()

# Valid numeric values (including the 0 = auto-detect jobs default)
# must still run the program through to its own exit code.
set(GOOD_ARGS
  "--search=8;--search-jobs=0"
  "--search=8;--search-jobs=4"
  "--search=8;--translation-cache=off"
  "--search=8;--translation-cache=on"
  "--search=8;--result-cache=off"
  "--search=8;--result-cache=on"
  "--seed=42;--order=random"
  "--static-analyze=on"
  "--static-analyze=off"
  "--static-analyze=only")

foreach(ARGS ${GOOD_ARGS})
  execute_process(
    COMMAND ${KCC} ${ARGS} ${OK_C}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "kcc ${ARGS}: expected exit 0, got ${RC}: ${ERR}")
  endif()
endforeach()

# --catalog-coverage is a mode, not a per-file option: combining it
# with input files is a usage error, and the bare flag (plus its
# quick/full/N forms) must run the harness to exit 0.
execute_process(
  COMMAND ${KCC} --catalog-coverage=quick ${OK_C}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)
if(NOT RC EQUAL 2)
  message(FATAL_ERROR "kcc --catalog-coverage=quick with an input file: expected exit 2, got ${RC}")
endif()
if(NOT ERR MATCHES "no input files")
  message(FATAL_ERROR "kcc --catalog-coverage with a file: missing diagnostic, got: ${ERR}")
endif()

# The coverage harness grades the combined static+dynamic verdict, so
# restricting it to the static layer alone is rejected up front.
execute_process(
  COMMAND ${KCC} --catalog-coverage=quick --static-analyze=only
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)
if(NOT RC EQUAL 2)
  message(FATAL_ERROR "kcc --catalog-coverage=quick --static-analyze=only: expected exit 2, got ${RC}")
endif()
if(NOT ERR MATCHES "incompatible")
  message(FATAL_ERROR "kcc --catalog-coverage=quick --static-analyze=only: missing diagnostic, got: ${ERR}")
endif()

execute_process(
  COMMAND ${KCC} --catalog-coverage=quick
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc --catalog-coverage=quick: expected exit 0, got ${RC}: ${ERR}")
endif()
if(NOT OUT MATCHES "coverage: covered=")
  message(FATAL_ERROR "kcc --catalog-coverage=quick: missing summary line")
endif()

# --remote ships sources to a daemon that owns the engine, so modes
# that need the local engine (or reconfigure it) cannot combine with
# it: the coverage harness drives the engine directly, static-only
# never runs the engine at all, and the translation cache lives in the
# daemon's process.
set(REMOTE_CONFLICTS
  "--catalog-coverage=quick"
  "--static-analyze=only|${OK_C}"
  "--translation-cache=off|${OK_C}")

foreach(CONFLICT ${REMOTE_CONFLICTS})
  string(REPLACE "|" ";" ARGS "${CONFLICT}")
  execute_process(
    COMMAND ${KCC} --remote=localhost:9 ${ARGS}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "kcc --remote ${CONFLICT}: expected exit 2, got ${RC}")
  endif()
  if(NOT ERR MATCHES "incompatible")
    message(FATAL_ERROR "kcc --remote ${CONFLICT}: missing incompatibility diagnostic, got: ${ERR}")
  endif()
endforeach()

# --result-cache is per-request (it rides the wire to the daemon), so
# it must NOT join the incompatibility list: with an unreachable
# endpoint the combination gets as far as the connection attempt and
# fails with the transport exit code 3, never the usage exit 2.
foreach(RC_VALUE off on)
  execute_process(
    COMMAND ${KCC} --remote=localhost:9 --result-cache=${RC_VALUE} ${OK_C}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 3)
    message(FATAL_ERROR "kcc --remote --result-cache=${RC_VALUE}: expected transport exit 3, got ${RC}: ${ERR}")
  endif()
endforeach()

# The daemon's flag surface follows the same strict-parse contract.
# None of these ever reach listen(): rejection happens while reading
# argv, so no socket or port is touched.
if(DEFINED KCC_SERVE)
  set(BAD_SERVE_FLAGS
    --port=abc
    --port=70000
    --port=-1
    --port=
    --socket=
    --host=
    --max-clients=0
    --max-clients=abc
    --max-inflight=0
    --max-inflight=abc
    --max-queue=0
    --max-queue=abc
    --workers=abc
    --translation-cache=maybe
    --result-cache=maybe
    --result-cache=
    --bogus-flag)

  foreach(FLAG ${BAD_SERVE_FLAGS})
    execute_process(
      COMMAND ${KCC_SERVE} ${FLAG}
      RESULT_VARIABLE RC
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR)
    if(NOT RC EQUAL 2)
      message(FATAL_ERROR "kcc-serve ${FLAG}: expected exit 2, got ${RC}")
    endif()
    if(ERR STREQUAL "")
      message(FATAL_ERROR "kcc-serve ${FLAG}: exit 2 but no diagnostic on stderr")
    endif()
  endforeach()

  # No endpoint at all is a usage error, not a silent default.
  execute_process(
    COMMAND ${KCC_SERVE}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "kcc-serve with no endpoint: expected exit 2, got ${RC}")
  endif()
  if(NOT ERR MATCHES "endpoint")
    message(FATAL_ERROR "kcc-serve with no endpoint: missing diagnostic, got: ${ERR}")
  endif()
endif()

message(STATUS "kcc CLI flag validation behaves as documented")
