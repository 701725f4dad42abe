# End-to-end daemon contract, run via `cmake -P` (see tests/CMakeLists.txt):
#   - malleus_served --stdio serves a scripted session: register, plan,
#     a warm replan, status, graceful shutdown — exit 0;
#   - a malformed line mid-stream gets a typed error and does NOT kill the
#     daemon (the requests after it are still answered);
#   - the cache written by --cache-save warm-loads on a restarted daemon
#     (register reports "warm":true) and malleus_client's --port usage
#     errors exit 2;
#   - scenario_cli and the daemon share cache files both ways: a
#     scenario_cli --cache-save of the same scenario is byte-stable and
#     warm-loads the daemon, and scenario_cli --cache-load warm-starts
#     from the daemon's file.
# Expects -DMALLEUS_SERVED, -DMALLEUS_CLIENT, -DSCENARIO_CLI, -DWORK_DIR.

set(cache "${WORK_DIR}/serve_smoke.cache")
set(cli_cache "${WORK_DIR}/serve_smoke_cli.cache")
set(cli_cache_again "${WORK_DIR}/serve_smoke_cli_again.cache")
set(scenario_file "${WORK_DIR}/serve_smoke.scenario")
file(REMOVE ${cache} ${cli_cache} ${cli_cache_again})

set(scenario "model = tiny\\nnodes = 1\\nbatch = 8\\nphase = s1")
set(session "${WORK_DIR}/serve_smoke_session.jsonl")
file(WRITE ${session}
"{\"v\":1,\"id\":1,\"method\":\"register\",\"params\":{\"name\":\"c1\",\"scenario\":\"${scenario}\"}}
{\"v\":1,\"id\":2,\"method\":\"plan\",\"params\":{\"cluster\":\"c1\",\"situation\":\"s1\"}}
this line is not even json
{\"v\":1,\"id\":3,\"method\":\"replan\",\"params\":{\"cluster\":\"c1\",\"situation\":\"s2\"}}
{\"v\":1,\"id\":4,\"method\":\"status\"}
{\"v\":1,\"id\":5,\"method\":\"shutdown\"}
")

execute_process(COMMAND ${MALLEUS_SERVED} --stdio --cache-save=${cache}
                INPUT_FILE ${session}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "daemon exited ${result}\nstdout:\n${stdout}\n"
          "stderr:\n${stderr}")
endif()

function(expect_response needle)
  if(NOT stdout MATCHES "${needle}")
    message(FATAL_ERROR "daemon output lacks '${needle}':\n${stdout}")
  endif()
endfunction()

# Every request answered, in order; the junk line got a typed error with
# id 0 and did not take the daemon down (ids 3-5 still answered after it).
expect_response("\"id\":1,\"ok\":true")
expect_response("\"id\":2,\"ok\":true")
expect_response("\"id\":0,\"ok\":false.*INVALID_ARGUMENT")
expect_response("\"id\":3,\"ok\":true")
expect_response("\"id\":4,\"ok\":true")
expect_response("\"parse_errors\":1")
expect_response("\"id\":5,\"ok\":true.*draining")

if(NOT EXISTS ${cache})
  message(FATAL_ERROR "--cache-save did not write ${cache}")
endif()

# Restarted daemon warm-loads the persisted cache.
file(WRITE ${session}
"{\"v\":1,\"id\":1,\"method\":\"register\",\"params\":{\"name\":\"c1\",\"scenario\":\"${scenario}\"}}
{\"v\":1,\"id\":2,\"method\":\"shutdown\"}
")
execute_process(COMMAND ${MALLEUS_SERVED} --stdio --cache-load=${cache}
                INPUT_FILE ${session}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "warm daemon exited ${result}\nstderr:\n${stderr}")
endif()
expect_response("\"warm\":true")

# scenario_cli -> daemon: a one-shot save of the same scenario, twice.
file(WRITE ${scenario_file} "model = tiny\nnodes = 1\nbatch = 8\nphase = s1\n")
foreach(out ${cli_cache} ${cli_cache_again})
  execute_process(COMMAND ${SCENARIO_CLI} --scenario=${scenario_file}
                          --cache-save=${out}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE cli_stdout
                  ERROR_VARIABLE cli_stderr)
  if(NOT result EQUAL 0 OR NOT EXISTS ${out})
    message(FATAL_ERROR "scenario_cli --cache-save=${out} exited ${result}"
            "\nstdout:\n${cli_stdout}\nstderr:\n${cli_stderr}")
  endif()
endforeach()
file(READ ${cli_cache} cli_bytes HEX)
file(READ ${cli_cache_again} cli_bytes_again HEX)
if(NOT cli_bytes STREQUAL cli_bytes_again)
  message(FATAL_ERROR "two identical scenario_cli saves wrote different bytes")
endif()
execute_process(COMMAND ${MALLEUS_SERVED} --stdio --cache-load=${cli_cache}
                INPUT_FILE ${session}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "daemon on the scenario_cli cache exited ${result}\n"
          "stderr:\n${stderr}")
endif()
expect_response("\"warm\":true")

# daemon -> scenario_cli: warm-start from the file the daemon saved.
execute_process(COMMAND ${SCENARIO_CLI} --scenario=${scenario_file}
                        --cache-load=${cache}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE cli_stdout
                ERROR_VARIABLE cli_stderr)
if(NOT result EQUAL 0 OR
   NOT cli_stdout MATCHES "warm solve cache: [1-9][0-9]* entries")
  message(FATAL_ERROR "scenario_cli did not warm-load the daemon cache "
          "(exit ${result})\nstdout:\n${cli_stdout}\nstderr:\n${cli_stderr}")
endif()

# Usage errors are distinct from request failures.
execute_process(COMMAND ${MALLEUS_CLIENT} status
                RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "client without --port should exit 2, got ${result}")
endif()
execute_process(COMMAND ${MALLEUS_SERVED} --no-such-flag
                RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "daemon bad flag should exit 2, got ${result}")
endif()

file(REMOVE ${cache} ${cli_cache} ${cli_cache_again} ${scenario_file}
            ${session})
