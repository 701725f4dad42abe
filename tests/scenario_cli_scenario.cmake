# scenario_cli runs a scenario file on the cluster it declares, run via
# `cmake -P` (see tests/CMakeLists.txt):
#   - a fat-tree file's fabric, pod size and taper reach the run's cluster
#     and survive into the --record-out bundle's run.scenario;
#   - a file's gpus_per_node reaches the run's cluster;
#   - --trace after --scenario replaces the file's phases.
# Expects -DSCENARIO_CLI, -DSCENARIO_DIR, -DWORK_DIR.

function(run_cli)
  execute_process(COMMAND ${SCENARIO_CLI} ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "scenario_cli ${ARGN} exited ${result}:\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(last_stdout "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_matches text needle what)
  if(NOT text MATCHES "${needle}")
    message(FATAL_ERROR "${what} does not match '${needle}':\n${text}")
  endif()
endfunction()

set(fat_tree "${WORK_DIR}/cli_fat_tree.scenario")
file(WRITE ${fat_tree}
     "model = tiny\nnodes = 4\ngpus_per_node = 8\nfabric = fat-tree\n"
     "nodes_per_pod = 2\noversubscription = 2\nbatch = 64\nsteps = 1\n"
     "phase = normal\nphase = s3\n")
set(bundle "${WORK_DIR}/cli_fat_tree_bundle")
file(REMOVE_RECURSE ${bundle})
run_cli(--scenario=${fat_tree} --record-out=${bundle})
expect_matches("${last_stdout}"
               "cluster : [^\n]*fat-tree pods of 2 @ 2\\.00:1" "stdout")
file(READ ${bundle}/run.scenario recorded)
expect_matches("${recorded}" "fabric = fat-tree\n" "run.scenario")
expect_matches("${recorded}" "nodes_per_pod = 2\n" "run.scenario")

set(four_gpu "${WORK_DIR}/cli_four_gpu.scenario")
file(WRITE ${four_gpu}
     "model = tiny\nnodes = 2\ngpus_per_node = 4\nsteps = 1\n"
     "phase = normal\n")
run_cli(--scenario=${four_gpu})
expect_matches("${last_stdout}" "cluster : Cluster\\(2 nodes x 4 GPUs"
               "stdout")

# straggle_s3.scenario lists the phases normal, s3; --trace=normal leaves
# a one-phase table.
run_cli(--scenario=${SCENARIO_DIR}/straggle_s3.scenario --trace=normal
        --steps=1)
expect_matches("${last_stdout}" "\\| Framework +\\| Normal +\\|\n" "stdout")
if(last_stdout MATCHES "S3")
  message(FATAL_ERROR "--trace=normal kept the file's S3 phase:\n"
                      "${last_stdout}")
endif()
