# felis_perfgate.py on the committed fixtures in testdata/: the scaling mode
# and --require-speedup each pass on perfgate_pass.json (exit 0) and fail on
# perfgate_fail.json (exit 1). In both files the degree-3 OpenMP record reads
# 200x slow, as a sweep's first OpenMP records do, so scaling passes only
# through the best-degree rule.
#
#   cmake -DPYTHON=<python3> -DGATE=<felis_perfgate.py> -DDATA=<testdata dir>
#         -P perfgate_fixtures.cmake
foreach(var PYTHON GATE DATA)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perfgate_fixtures.cmake needs -D${var}=...")
  endif()
endforeach()

# expect(<exit code> <args...>)
function(expect code)
  execute_process(COMMAND "${PYTHON}" "${GATE}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "expected exit ${code}, got '${rc}' from:\n"
                        "${ARGN}\n${out}${err}")
  endif()
endfunction()

foreach(fixture pass fail)
  set(json "${DATA}/perfgate_${fixture}.json")
  if(fixture STREQUAL "pass")
    set(code 0)
  else()
    set(code 1)
  endif()
  expect(${code} --mode scaling --fresh "${json}")
  expect(${code} --baseline "${json}" --fresh "${json}" --only-backend serial
         --require-speedup BM_AxHelmholtz:BM_AxHelmholtzRef:7:1.0)
endforeach()
