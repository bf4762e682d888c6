# Drives kcc over inputs that once made the parser loop, allocating
# without bound: a file holding only '}', and '{' initializers where an
# expression is expected. Each must end promptly as a plain compile
# error (exit 1 with a diagnostic), under a wall-clock timeout and, when
# MEMCAP_KB is nonempty, an address-space cap (`ulimit -v`) on kcc's own
# process. Run via ctest (test name: kcc_hostile_inputs).
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
