# End-to-end recorded-run / what-if contract, run via `cmake -P` (see
# tests/CMakeLists.txt):
#   - scenario_cli --record-out writes a loadable bundle;
#   - malleus_whatif sweeps it, verifies the snapshot, and ranks the
#     injected S3 straggler above every healthy-GPU removal;
#   - the JSON and CSV reports are byte-identical across repeat runs at
#     different --threads values;
#   - a corrupted bundle member fails with exit 1, bad usage with exit 2.
# Expects -DSCENARIO_CLI, -DMALLEUS_WHATIF, -DSCENARIO_DIR, -DWORK_DIR.

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
endfunction()

function(expect_stdout_contains needle)
  if(NOT last_stdout MATCHES "${needle}")
    message(FATAL_ERROR
            "stdout does not contain '${needle}':\n${last_stdout}")
  endif()
endfunction()

function(expect_same_bytes a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ byte-wise")
  endif()
endfunction()

set(bundle "${WORK_DIR}/whatif_smoke_bundle")
file(REMOVE_RECURSE ${bundle})

# Record the S3 case study as a bundle.
expect_exit(0 ${SCENARIO_CLI}
            --scenario=${SCENARIO_DIR}/straggle_s3.scenario
            --record-out=${bundle})
expect_stdout_contains("recorded run bundle")
foreach(member MANIFEST run.scenario snapshot.txt trace.json metrics.json
        events.jsonl run.csv)
  if(NOT EXISTS "${bundle}/${member}")
    message(FATAL_ERROR "bundle is missing ${member}")
  endif()
endforeach()

# Sweep it twice at different thread counts; reports must match byte-wise.
expect_exit(0 ${MALLEUS_WHATIF} ${bundle} --auto-grid --verify-snapshot
            --threads=1 --top=5
            --report-out=${WORK_DIR}/whatif_smoke_a.json
            --csv-out=${WORK_DIR}/whatif_smoke_a.csv)
expect_stdout_contains("snapshot verified")
expect_stdout_contains("what-if attribution")
set(first_run "${last_stdout}")

expect_exit(0 ${MALLEUS_WHATIF} ${bundle} --auto-grid
            --threads=4 --top=0
            --report-out=${WORK_DIR}/whatif_smoke_b.json
            --csv-out=${WORK_DIR}/whatif_smoke_b.csv)
expect_same_bytes(${WORK_DIR}/whatif_smoke_a.json
                  ${WORK_DIR}/whatif_smoke_b.json)
expect_same_bytes(${WORK_DIR}/whatif_smoke_a.csv
                  ${WORK_DIR}/whatif_smoke_b.csv)

# The injected S3 stragglers must outrank every healthy-GPU removal: the
# first remove_straggler row in the ranking targets GPU 0 or GPU 8 (the
# canonical S3 placements) with positive attribution. The CSV is ranked,
# so scan its remove_straggler rows in order.
file(READ ${WORK_DIR}/whatif_smoke_a.csv csv)
string(REPLACE "\n" ";" csv_lines "${csv}")
set(first_removal "")
foreach(line ${csv_lines})
  if(line MATCHES "remove_straggler" AND first_removal STREQUAL "")
    set(first_removal "${line}")
  endif()
endforeach()
if(NOT first_removal MATCHES "remove_straggler gpu=(0|8)")
  message(FATAL_ERROR
          "top-ranked straggler removal is not an injected S3 straggler:\n"
          "${first_removal}")
endif()

# A flipped byte in a member is caught by the manifest hashes: exit 1.
file(READ "${bundle}/trace.json" trace_bytes)
string(SUBSTRING "${trace_bytes}" 1 -1 trace_tail)
file(WRITE "${bundle}/trace.json" "X${trace_tail}")
expect_exit(1 ${MALLEUS_WHATIF} ${bundle} --auto-grid)

# Bad usage is distinct from bad bundles.
expect_exit(2 ${MALLEUS_WHATIF})
expect_exit(2 ${MALLEUS_WHATIF} ${bundle} --no-such-flag)
expect_exit(2 ${MALLEUS_WHATIF} ${bundle} --top=abc)  # Malformed value.
