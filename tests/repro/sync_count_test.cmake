# `knl-repro run` commits once per run, so its durability barriers must not
# grow with the number of experiments. Runs two experiments and then all of
# them with sync_count_shim preloaded and compares the counted sync calls.
#
#   cmake -DREPRO=<knl-repro> -DSHIM=<shim .so> -DWORK=<scratch dir> -P sync_count_test.cmake
foreach(var REPRO SHIM WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sync_count_test: -D${var}= is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(count_syncs name result)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "LD_PRELOAD=${SHIM}"
            "${REPRO}" run --out "${WORK}/${name}" --runs-dir "${WORK}/runs" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "knl-repro run (${name}) exited ${code}:\n${stderr}")
  endif()
  if(NOT stderr MATCHES "knl-sync-calls: ([0-9]+)")
    message(FATAL_ERROR "no sync count from the shim (${name}):\n${stderr}")
  endif()
  set(${result} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

count_syncs(two two --only fig2_stream,table2_numa)
count_syncs(all all)
message(STATUS "sync calls: ${two} for 2 experiments, ${all} for all")
if(two EQUAL 0)
  message(FATAL_ERROR "the shim counted no sync calls: it is not intercepting")
endif()
if(NOT two EQUAL all)
  message(FATAL_ERROR "sync calls grow with the experiment count: ${two} for 2, ${all} for all")
endif()
if(all GREATER 3)
  message(FATAL_ERROR "${all} sync calls per run (want at most 3)")
endif()
file(REMOVE_RECURSE "${WORK}")
