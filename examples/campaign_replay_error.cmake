# A campaign directory whose manifest the replay rules reject must stop both
# a resume and `--status` with the named error and exit 65 (data error), and
# neither may touch the manifest. Two such manifests: a duplicate terminal
# record, and the admission ledger of the retired campaign service mode.
#
#   cmake -DCAMPAIGN=<felis_campaign> -DSPEC=<campaign.txt> -DDIR=<scratch dir>
#         -P campaign_replay_error.cmake
foreach(var CAMPAIGN SPEC DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_replay_error.cmake needs -D${var}=...")
  endif()
endforeach()

set(header [=[{"type":"header","schema":"felis-campaign-1","campaign":"ra_sweep","cases":4,"workers":2,"thread_budget":2,"ranks":1}]=])
set(done [=[{"type":"run","case":"case0000-Ra20000","state":"done","attempt":1,"t":1,"wall_seconds":1}]=])
set(submit [=[{"type":"submit","submission":"dave-5e0d","tenant":"dave","priority":2,"decision":"admitted","cases":1,"cost_seconds":3,"t":0.5}]=])

foreach(bad "${done}\n${done}" "${submit}")
  file(REMOVE_RECURSE "${DIR}")
  file(MAKE_DIRECTORY "${DIR}")
  set(manifest "${DIR}/manifest.ndjson")
  file(WRITE "${manifest}" "${header}\n${bad}\n")
  file(SHA256 "${manifest}" before)
  foreach(mode resume status)
    if(mode STREQUAL "resume")
      set(args "${SPEC}" --steps 1 --dir "${DIR}")
    else()
      set(args --status "${DIR}")
    endif()
    execute_process(COMMAND "${CAMPAIGN}" ${args}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 65)
      message(FATAL_ERROR "${mode}: expected exit 65, got '${rc}' for:\n"
                          "${bad}\n${err}")
    endif()
    if(NOT err MATCHES "corrupt campaign manifest")
      message(FATAL_ERROR "${mode}: error not named:\n${err}")
    endif()
    file(SHA256 "${manifest}" after)
    if(NOT after STREQUAL before)
      message(FATAL_ERROR "${mode}: the manifest was modified")
    endif()
  endforeach()
endforeach()
file(REMOVE_RECURSE "${DIR}")
