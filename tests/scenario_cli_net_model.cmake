# scenario_cli --net-model reaches every framework it runs, run via
# `cmake -P` (see tests/CMakeLists.txt): with --baselines, the flag and
# MALLEUS_NET_MODEL naming the same model must print the same report, byte
# for byte. Each flag run sets the environment to the other model, so the
# check does not depend on the caller's environment.
# Expects -DSCENARIO_CLI.

set(run_args --model=32b --nodes=4 --trace=normal,s2 --steps=2 --baselines)

function(run_cli out_var env_model)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MALLEUS_NET_MODEL=${env_model}
            ${SCENARIO_CLI} ${run_args} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "scenario_cli ${run_args} ${ARGN} "
                        "(MALLEUS_NET_MODEL=${env_model}) exited ${result}:\n"
                        "${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

foreach(pair "flow;analytic" "analytic;flow")
  list(GET pair 0 model)
  list(GET pair 1 other)
  run_cli(by_flag ${other} --net-model=${model})
  run_cli(by_env ${model})
  if(NOT by_flag STREQUAL by_env)
    message(FATAL_ERROR
            "--net-model=${model} and MALLEUS_NET_MODEL=${model} differ:\n"
            "--- flag ---\n${by_flag}\n--- environment ---\n${by_env}")
  endif()
endforeach()
