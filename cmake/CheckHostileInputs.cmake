# Drives kcc over inputs that once made the parser loop, allocating
# without bound: a file holding only '}', and '{' initializers where an
# expression is expected. Each must end promptly as a plain compile
# error (exit 1 with a diagnostic), under a wall-clock timeout and, when
# MEMCAP_KB is nonempty, an address-space cap (`ulimit -v`) on kcc's own
# process. A unit opening with 20 000 guarded #include lines must run
# under the same caps. Run via ctest (test name: kcc_hostile_inputs).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> -DWORKDIR=<dir> [-DMEMCAP_KB=<kb>] -P CheckHostileInputs.cmake")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
file(WRITE ${WORKDIR}/stray_brace.c "}")
file(WRITE ${WORKDIR}/return_braced.c "int main(void){ return {1}; }\n")
file(WRITE ${WORKDIR}/return_compound_literal.c
  "int main(void){ return (int){1}; }\n")

if(MEMCAP_KB)
  set(CAP "ulimit -v ${MEMCAP_KB} && ")
else()
  set(CAP "")
endif()

# 20 000 include lines of one guarded header: every line after the
# first lexes stdio.h again and skips it. The unit is a valid program
# and must end promptly under the same caps, with the include run keyed
# and cached like any other.
string(REPEAT "#include <stdio.h>\n" 20000 MANY_INCLUDES)
file(WRITE ${WORKDIR}/many_includes.c
  "${MANY_INCLUDES}int main(void) { printf(\"ok\\n\"); return 0; }\n")
execute_process(
  COMMAND sh -c "${CAP}exec \"$0\" \"$1\"" ${KCC} ${WORKDIR}/many_includes.c
  TIMEOUT 30
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0 OR NOT OUT STREQUAL "ok\n")
  message(FATAL_ERROR "kcc many_includes.c: expected exit 0 and \"ok\", got ${RC}: ${OUT}\n${ERR}")
endif()

foreach(NAME stray_brace return_braced return_compound_literal)
  set(SRC ${WORKDIR}/${NAME}.c)
  execute_process(
    COMMAND sh -c "${CAP}exec \"$0\" \"$1\"" ${KCC} ${SRC}
    TIMEOUT 30
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "kcc ${NAME}.c: expected exit 1, got ${RC}\n${ERR}")
  endif()
  if(NOT ERR MATCHES "error:")
    message(FATAL_ERROR "kcc ${NAME}.c: exit 1 but no diagnostic:\n${ERR}")
  endif()
  if(ERR MATCHES "internal error")
    message(FATAL_ERROR "kcc ${NAME}.c: the frontend failed:\n${ERR}")
  endif()
endforeach()
