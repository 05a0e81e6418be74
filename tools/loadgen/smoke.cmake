# loadgen smoke run: one client, a few closed-loop sessions, no --failover.
# The report must be valid JSON with zero errors, carry the warm/cold split
# that did run, and leave out the failover and open-loop drills that did not.
#
#   cmake -DLOADGEN=<loadgen binary> -DOUT=<report path> -P smoke.cmake
execute_process(COMMAND ${LOADGEN} --clients 1 --sessions 3 --budget 6 --out ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "loadgen exited with ${rc}")
endif()
file(READ ${OUT} report)
string(JSON errors GET "${report}" errors)
if(NOT errors EQUAL 0)
  message(FATAL_ERROR "loadgen reported ${errors} errors")
endif()
string(JSON warm ERROR_VARIABLE missing GET "${report}" warm_start)
if(missing)
  message(FATAL_ERROR "the warm/cold split ran but its block is missing")
endif()
foreach(skipped failover open_loop)
  string(JSON value ERROR_VARIABLE missing GET "${report}" ${skipped})
  if(NOT missing)
    message(FATAL_ERROR "drill '${skipped}' did not run but the report has it: ${value}")
  endif()
endforeach()
