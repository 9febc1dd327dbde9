# Runs `TOOL FLAG VALUE` and fails unless the tool rejects the value with
# its usage status (2) and names the flag on stderr — a crash, a silent
# clamp or a vacuous PASS all fail. Used by the tier-1 CLI tests:
#
#   cmake -DTOOL=path -DFLAG=--frames -DVALUE=abc -P expect_usage_error.cmake
#
# A FLAG ending in '=' (b2c's `--ram=N` form) is joined with its value
# into one argument: -DFLAG=--ram= -DVALUE=-4 runs `TOOL --ram=-4`.
if(FLAG MATCHES "=$")
  set(Args "${FLAG}${VALUE}")
  string(REGEX REPLACE "=$" "" FLAG "${FLAG}")
else()
  set(Args ${FLAG} ${VALUE})
endif()
execute_process(COMMAND ${TOOL} ${Args}
                RESULT_VARIABLE Status
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT Status STREQUAL "2")
  message(FATAL_ERROR "${TOOL} ${FLAG} '${VALUE}' exited with '${Status}', "
                      "not the usage status 2\nstdout: ${Out}\nstderr: ${Err}")
endif()
string(FIND "${Err}" "${FLAG}" At)
if(At EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${FLAG} '${VALUE}': stderr does not name "
                      "the flag\nstderr: ${Err}")
endif()
