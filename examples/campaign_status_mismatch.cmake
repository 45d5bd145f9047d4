# felis_trace.py --campaign MANIFEST STATUS cross-checks the status document
# against its own fold of the manifest. A copy of a finished campaign's
# status.json with one case's state changed must fail with exit 1 and an
# error naming that case.
#
#   cmake -DPYTHON=<python3> -DTRACE=<felis_trace.py> -DDIR=<campaign dir>
#         -DOUT=<scratch dir> -P campaign_status_mismatch.cmake
foreach(var PYTHON TRACE DIR OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_status_mismatch.cmake needs -D${var}=...")
  endif()
endforeach()

file(READ "${DIR}/status.json" status)
string(REGEX MATCH [=["case": "([^"]+)", "state": "done"]=] row "${status}")
if(NOT row)
  message(FATAL_ERROR "no done case in ${DIR}/status.json")
endif()
set(victim "${CMAKE_MATCH_1}")
string(REPLACE "${row}" "\"case\": \"${victim}\", \"state\": \"failed\""
       status "${status}")

file(REMOVE_RECURSE "${OUT}")
file(WRITE "${OUT}/status.json" "${status}")
execute_process(COMMAND "${PYTHON}" "${TRACE}" --campaign
                        "${DIR}/manifest.ndjson" "${OUT}/status.json"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "case '${victim}' is 'failed'")
  message(FATAL_ERROR "expected exit 1 naming '${victim}', got '${rc}':\n"
                      "${err}")
endif()
file(REMOVE_RECURSE "${OUT}")
