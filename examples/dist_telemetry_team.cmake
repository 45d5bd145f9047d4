# Both rank headers of a `distributed_run 2 <steps> <DIR>` telemetry run name
# the team distributed_run gave that rank: half the process team
# (OMP_NUM_THREADS, else the logical core count), at least one thread, of the
# process-default backend family (FELIS_BACKEND, else auto: openmp above one
# thread, serial at one).
#
#   cmake -DDIR=<telemetry dir> -P dist_telemetry_team.cmake
if(NOT DEFINED DIR)
  message(FATAL_ERROR "dist_telemetry_team.cmake needs -DDIR=...")
endif()

set(process 0)
if("$ENV{OMP_NUM_THREADS}" MATCHES "^[0-9]+")
  set(process ${CMAKE_MATCH_0})
endif()
if(process LESS 1)
  cmake_host_system_information(RESULT process QUERY NUMBER_OF_LOGICAL_CORES)
endif()
math(EXPR threads "${process} / 2")
if(threads LESS 1)
  set(threads 1)
endif()
set(family "$ENV{FELIS_BACKEND}")
if(family STREQUAL "" OR family STREQUAL "auto")
  if(threads GREATER 1)
    set(family openmp)
  else()
    set(family serial)
  endif()
endif()
if(family STREQUAL "serial")
  set(threads 1)
endif()

foreach(rank 0 1)
  set(stream "${DIR}/rank${rank}/run.ndjson")
  if(NOT EXISTS "${stream}")
    message(FATAL_ERROR "rank ${rank}: no telemetry stream at ${stream}")
  endif()
  file(STRINGS "${stream}" header LIMIT_COUNT 1)
  foreach(field "\"backend\":\"${family}\"" "\"threads\":\"${threads}\"")
    string(FIND "${header}" "${field}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "rank ${rank}: header lacks ${field}:\n${header}")
    endif()
  endforeach()
endforeach()
