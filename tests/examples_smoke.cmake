# The engine examples, run via `cmake -P` (see tests/CMakeLists.txt): each
# plays its timeline through the trace driver, must exit 0 and must print
# the transitions it demonstrates.
#   dynamic_stragglers  the Figure 7 trace: re-plans that migrate;
#   elastic_failures    GPU 5 fails and returns: a checkpoint reload, then
#                       a migration that re-includes it.
# Expects -DDYNAMIC_STRAGGLERS and -DELASTIC_FAILURES.

function(run_example out_var binary)
  execute_process(
    COMMAND ${binary}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${binary} exited ${result}:\n${stdout}\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_line stdout needle binary)
  string(FIND "${stdout}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${binary} printed no \"${needle}\" line:\n"
                        "${stdout}")
  endif()
endfunction()

run_example(dynamic ${DYNAMIC_STRAGGLERS})
expect_line("${dynamic}" "migrated" ${DYNAMIC_STRAGGLERS})

run_example(elastic ${ELASTIC_FAILURES})
expect_line("${elastic}" "checkpoint reload" ${ELASTIC_FAILURES})
expect_line("${elastic}" "migrated" ${ELASTIC_FAILURES})
