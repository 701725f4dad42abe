# CLI contract test, run via `cmake -P` (see tests/CMakeLists.txt):
#   - scenario_cli exits 1 when the framework cannot produce a valid plan,
#     0 on a clean lint, 2 on usage errors and on a scenario that does not
#     resolve (bad model or phase, empty cluster, straggler off the
#     cluster, a dynamic field out of range);
#   - malleus_lint exits 0 / 1 / 2 for clean / errors-or-unanalyzable /
#     usage, and its json/sarif outputs carry the schema markers;
#   - a malformed flag value exits 2 with a message naming the flag.
# Expects -DSCENARIO_CLI, -DMALLEUS_LINT, -DMALLEUS_FUZZ, -DSCENARIO_DIR.

function(expect_exit code)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT result EQUAL ${code})
    message(FATAL_ERROR
            "expected exit ${code}, got ${result} from: ${ARGN}\n"
            "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(last_stdout "${stdout}" PARENT_SCOPE)
  set(last_stderr "${stderr}" PARENT_SCOPE)
endfunction()

function(expect_stdout_contains needle)
  if(NOT last_stdout MATCHES "${needle}")
    message(FATAL_ERROR
            "stdout does not contain '${needle}':\n${last_stdout}")
  endif()
endfunction()

function(expect_stderr_contains needle)
  if(NOT last_stderr MATCHES "${needle}")
    message(FATAL_ERROR
            "stderr does not contain '${needle}':\n${last_stderr}")
  endif()
endfunction()

set(clean_scenario "${SCENARIO_DIR}/healthy_32b.scenario")

# An unplannable run is a failed run: 110B cannot fit on a single node.
expect_exit(1 ${SCENARIO_CLI} --model=110b --nodes=1 --steps=1
            --trace=normal)

# Linting a clean scenario succeeds in every format.
expect_exit(0 ${SCENARIO_CLI} --scenario=${clean_scenario} --lint)
expect_exit(0 ${SCENARIO_CLI} --scenario=${clean_scenario} --lint=json)
expect_stdout_contains("\"errors\":0")
expect_exit(0 ${SCENARIO_CLI} --scenario=${clean_scenario} --lint=sarif)
expect_stdout_contains("sarif-2.1.0")

# Usage errors are distinct from lint failures.
expect_exit(2 ${SCENARIO_CLI} --lint)                 # --lint needs a file.
expect_exit(2 ${SCENARIO_CLI} --no-such-flag)

# A scenario the run cannot resolve is a usage error: an unknown model or
# trace phase, an empty cluster, or a straggler outside the cluster.
expect_exit(2 ${SCENARIO_CLI} --model=13b)
expect_stderr_contains("unknown model: 13b")
expect_exit(2 ${SCENARIO_CLI} --trace=normal,s9)
expect_stderr_contains("unknown trace phase: s9")
expect_exit(2 ${SCENARIO_CLI} --nodes=0)
set(far_straggler "${CMAKE_CURRENT_BINARY_DIR}/far_straggler.scenario")
file(WRITE ${far_straggler}
     "model = tiny\nnodes = 2\nsteps = 1\nphase = normal\n"
     "straggler = 99:2\n")
expect_exit(2 ${SCENARIO_CLI} --scenario=${far_straggler})
expect_stderr_contains("straggler GPU 99 outside the cluster")
# A dynamic block the linter rejects does not run: straggler levels drawn
# from [1, 0] would divide by zero in the event generator.
set(no_levels "${CMAKE_CURRENT_BINARY_DIR}/no_levels.scenario")
file(WRITE ${no_levels}
     "model = tiny\nnodes = 2\nsteps = 1\nphase = normal\n"
     "dynamic = { iterations=40 max_level=0 straggle_rate=0.05 }\n")
expect_exit(2 ${SCENARIO_CLI} --scenario=${no_levels})
expect_stderr_contains("max_level 0 must be in \\[1, 8\\]")

# Standalone linter: clean file.
expect_exit(0 ${MALLEUS_LINT} ${clean_scenario})
expect_stdout_contains("no diagnostics")
expect_exit(0 ${MALLEUS_LINT} --format=sarif ${clean_scenario})
expect_stdout_contains("https://json.schemastore.org/sarif-2.1.0.json")
expect_exit(0 ${MALLEUS_LINT} --list)
expect_stdout_contains("plan.stage-imbalance")

# Semantic errors in the file exit 1 (and are reported, not fatal).
set(broken "${CMAKE_CURRENT_BINARY_DIR}/broken.scenario")
file(WRITE ${broken} "model = 13b\nphase = s9\nstraggler = 99:2\n")
expect_exit(1 ${MALLEUS_LINT} ${broken})
expect_exit(1 ${MALLEUS_LINT} --format=json ${broken})
expect_stdout_contains("scenario.unknown-model")

# Unanalyzable (missing / unparsable) files and bad usage.
expect_exit(1 ${MALLEUS_LINT} ${SCENARIO_DIR}/does-not-exist.scenario)
expect_exit(2 ${MALLEUS_LINT})
expect_exit(2 ${MALLEUS_LINT} --format=yaml ${clean_scenario})

# Malformed flag values are usage errors that name the flag; values are
# parsed from the whole string.
expect_exit(2 ${SCENARIO_CLI} --seed=abc)
expect_stderr_contains("--seed=abc")
expect_exit(2 ${SCENARIO_CLI} --planner-threads=two)
expect_stderr_contains("--planner-threads=two")
expect_exit(2 ${MALLEUS_FUZZ} --seed=12abc --runs=1)
expect_stderr_contains("--seed=12abc")
