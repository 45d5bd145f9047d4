# Bad input to the example hosts stops with a named error and the documented
# exit code (64 usage, 65 bad data, 66 missing input), never an abort (134).
#
# felis_check's usage code is 2, and it reports on stdout.
#
#   cmake -DQUICKSTART=<quickstart> -DDISTRIBUTED=<distributed_run>
#         -DCAMPAIGN=<felis_campaign> -DCYLINDER=<rbc_cylinder>
#         -DINSITU=<compression_insitu> -DCHECK=<felis_check>
#         -DDIR=<scratch dir> -P input_errors.cmake
foreach(var QUICKSTART DISTRIBUTED CAMPAIGN CYLINDER INSITU CHECK DIR)
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
file(WRITE "${DIR}/trace_cap.txt" "telemetry.max_trace_events = -1\n")
file(WRITE "${DIR}/stagnation.txt" "telemetry.stagnation_run = -2\n")
# Misspelt keys: the first one (in key order) is named with its nearest
# declared key.
file(WRITE "${DIR}/typos.txt"
     "case.Raa = 1e5\nmesh.nxx = 9\nfluid.ovelrap = true\n")
file(WRITE "${DIR}/sweep_typo.txt" "sweep.Raa = 1e4,1e5\n")
file(WRITE "${DIR}/wokers.txt" "campaign.wokers = 3\n")
file(WRITE "${DIR}/interval0.txt" "telemetry.interval = 0\n")

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
expect(65 "periodic x requires at least 3 elements"
       "${CAMPAIGN}" "${DIR}/slab_nx2.txt" --dry-run)
expect(65 "telemetry.stagnation_run"
       "${CAMPAIGN}" "${DIR}/stagnation.txt" --dry-run)
foreach(steps abc -3 7x 0)
  expect(64 "usage: felis_campaign"
         "${CAMPAIGN}" "${DIR}/slab_nx2.txt" --dry-run --steps ${steps})
endforeach()
expect(64 "usage: felis_campaign"
       "${CAMPAIGN}" --status "${DIR}" --watch --interval abc)
expect(65 "mesh.nx" "${QUICKSTART}" --case "${DIR}/big_nx.txt" 1)
expect(65 "case.Ra" "${QUICKSTART}" --case "${DIR}/big_ra.txt" 1)
expect(65 "periodic x requires at least 3 elements"
       "${QUICKSTART}" --case "${DIR}/slab_nx2.txt" 1)
expect(65 "telemetry.max_trace_events"
       "${QUICKSTART}" --case "${DIR}/trace_cap.txt" 1)
expect(66 "cannot read case file" "${QUICKSTART}" --case "${DIR}/missing.txt")
expect(64 "usage: quickstart" "${QUICKSTART}" --help)
expect(64 "usage: quickstart" "${QUICKSTART}" 1e4 abc)
expect(64 "usage: distributed_run" "${DISTRIBUTED}" --bogus)
expect(64 "usage: distributed_run" "${DISTRIBUTED}" 0)
expect(64 "usage: rbc_cylinder" "${CYLINDER}" abc 3)
expect(64 "usage: compression_insitu" "${INSITU}" 1e4 2 0)
expect(64 "usage: compression_insitu" "${INSITU}" 1e4 abc 0)
expect(64 "usage: compression_insitu" "${INSITU}" 1e4 2 5)
expect(65 "case.Raa.*case.Ra'"
       "${QUICKSTART}" --case "${DIR}/typos.txt" 1)
expect(65 "sweep.Raa.*case.Ra'"
       "${CAMPAIGN}" "${DIR}/sweep_typo.txt" --dry-run)
expect(65 "campaign.wokers.*campaign.workers"
       "${CAMPAIGN}" "${DIR}/wokers.txt" --dry-run)
expect(65 "telemetry.interval" "${QUICKSTART}" --case "${DIR}/interval0.txt" 1)
expect(65 "telemetry.interval" "${CAMPAIGN}" "${DIR}/interval0.txt" --dry-run)
foreach(args "--cases;abc" "--max-states;99999999999" "--model;manifest;--cases;-1")
  execute_process(COMMAND "${CHECK}" ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc STREQUAL "2" OR NOT out MATCHES "usage: felis_check")
    message(FATAL_ERROR "expected exit 2 with the usage of felis_check, got "
                        "'${rc}' from:\n${CHECK} ${args}\n${out}")
  endif()
endforeach()
# Counts past the documented bounds are the models' to take: these run into
# the state cap (exit 3), as at any size the models accept.
foreach(args "--model;manifest;--cases;9;--max-states;1000"
             "--model;checkpoint;--keep;20;--faults;20;--max-states;1000")
  execute_process(COMMAND "${CHECK}" ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc STREQUAL "3" OR NOT out MATCHES "TRUNCATED")
    message(FATAL_ERROR "expected exit 3 at the state cap, got '${rc}' from:\n"
                        "${CHECK} ${args}\n${out}")
  endif()
endforeach()
file(REMOVE_RECURSE "${DIR}")
