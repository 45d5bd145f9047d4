# Bad input to the example hosts stops with a named error and the documented
# exit code (64 usage, 65 bad data, 66 missing input), never an abort (134).
#
#   cmake -DQUICKSTART=<quickstart> -DDISTRIBUTED=<distributed_run>
#         -DCAMPAIGN=<felis_campaign> -DDIR=<scratch dir> -P input_errors.cmake
foreach(var QUICKSTART DISTRIBUTED CAMPAIGN DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "input_errors.cmake needs -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE "${DIR}")
file(WRITE "${DIR}/no_equals.txt" "case.Ra = 1e4\nno equals sign\n")
file(WRITE "${DIR}/big_nx.txt" "mesh.nx = 99999999999\n")
file(WRITE "${DIR}/big_ra.txt" "case.Ra = 1e400\n")
file(WRITE "${DIR}/slab_nx2.txt" "mesh.nx = 2\n")
file(WRITE "${DIR}/monitor.txt" "campaign.monitor = true\n")

# expect(<exit code> <stderr regex> <command> [args...])
function(expect code pattern)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}" OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "expected exit ${code} naming '${pattern}', got "
                        "'${rc}' from:\n${ARGN}\n${err}")
  endif()
endfunction()

expect(65 "missing '='" "${CAMPAIGN}" "${DIR}/no_equals.txt" --dry-run)
expect(65 "mesh.nx" "${CAMPAIGN}" "${DIR}/big_nx.txt" --dry-run)
expect(65 "case.Ra" "${CAMPAIGN}" "${DIR}/big_ra.txt" --dry-run)
expect(65 "campaign.monitor.*--status" "${CAMPAIGN}" "${DIR}/monitor.txt" --dry-run)
expect(65 "mesh.nx" "${QUICKSTART}" --case "${DIR}/big_nx.txt" 1)
expect(65 "case.Ra" "${QUICKSTART}" --case "${DIR}/big_ra.txt" 1)
expect(65 "periodic x requires at least 3 elements"
       "${QUICKSTART}" --case "${DIR}/slab_nx2.txt" 1)
expect(66 "cannot read case file" "${QUICKSTART}" --case "${DIR}/missing.txt")
expect(64 "usage: quickstart" "${QUICKSTART}" --help)
expect(64 "usage: quickstart" "${QUICKSTART}" 1e4 abc)
expect(64 "usage: distributed_run" "${DISTRIBUTED}" --bogus)
expect(64 "usage: distributed_run" "${DISTRIBUTED}" 0)
file(REMOVE_RECURSE "${DIR}")
