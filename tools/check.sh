#!/usr/bin/env bash
# Builds the tree and runs the test suite under sanitizers.
#
# Default preset — ASan + UBSan over the full suite, proving the
# process-global metrics registry (and everything else) UB/leak-clean. The
# suite runs twice: once per network cost model (MALLEUS_NET_MODEL=
# analytic / flow), so both the closed-form and the contention-aware
# flow-level fabric paths stay green.
#
# TSan preset (--tsan) — ThreadSanitizer over the concurrency surface: the
# exec thread pool, the metrics registry and the parallel planner sweep,
# all forced to >= 4 worker threads via MALLEUS_PLANNER_THREADS; the
# planner determinism tests run under both net models.
#
#   tools/check.sh             # ASan/UBSan configure + build + 2x ctest
#                              #   + a 25-run malleus_fuzz smoke
#                              #   + detlint sweep + format check
#   tools/check.sh --fast      # reuse an existing build-asan configure
#   tools/check.sh --tsan      # TSan build + concurrency-focused tests
#   tools/check.sh --tsan --fast
#   tools/check.sh --lint      # static-analysis gate (see below)
#   tools/check.sh --detlint   # determinism/concurrency analyzer only:
#                              #   Release build of malleus_detlint, sweep
#                              #   src/ tools/ tests/ bench/ examples/
#                              #   against tools/detlint_baseline.txt, and
#                              #   a seeded known-bad self-check
#   tools/check.sh --fuzz      # 200-run oracle fuzz under ASan/UBSan,
#                              #   once per --net-model (analytic, flow)
#   tools/check.sh --whatif    # record every example scenario as a bundle
#                              #   and sweep it with malleus_whatif under
#                              #   ASan/UBSan, once per net model, checking
#                              #   byte-identical reports at 1 and 4
#                              #   threads
#   tools/check.sh --serve     # the serving control plane: serve_test,
#                              #   the malleus_served smoke (with the
#                              #   scenario_cli cache round trip) and
#                              #   planner_cache_test under ASan/UBSan,
#                              #   then serve_test under TSan with 4
#                              #   workers/planner threads
#   tools/check.sh --policy    # the online fault-tolerance policy engine:
#                              #   policy_test, engine_test,
#                              #   trace_driver_test and baselines_test
#                              #   under ASan/UBSan, a seeded
#                              #   --dynamic fuzz budget, the checked-in
#                              #   dynamic corpus replays, the
#                              #   golden_dynamic snapshot comparison and
#                              #   bench_policy, whose BENCH_policy.json
#                              #   must equal the committed one in every
#                              #   field but commit and host_nproc
#   tools/check.sh --scale     # kilo-GPU smoke: plan + flow-level sim of
#                              #   the examples/scenarios/scale/ fat-tree
#                              #   scenarios (1024 GPUs end-to-end, 2048
#                              #   GPUs one normal phase) under ASan/UBSan,
#                              #   plus scale_test in the sanitized build
#
# Fuzz preset (--fuzz) — the seeded scenario fuzzer (tools/malleus_fuzz,
# DESIGN.md §11) over 200 runs per net model, in the ASan/UBSan build, so
# every oracle violation AND every memory/UB bug on a generated scenario
# fails the run. On a violation the minimized `.scenario` repro paths are
# printed; replay one with `malleus_fuzz --replay=<file>`.
#
# Lint preset (--lint) — the static-analysis gate, in six stages:
#   1. a -Werror build (-DMALLEUS_WERROR=ON): compiler warnings fail
#      (including [[nodiscard]] Status/Result discards); bench_e2e/ is
#      configured into build-lint-e2e and its bench_e2e target built the
#      same way, so a library API change that breaks the benchmark fails
#      here rather than in a benchmark run;
#   2. malleus_lint over examples/scenarios/*.scenario and the dynamic
#      fuzz corpus tests/dynamic_corpus/*.scenario: every shipped scenario
#      and every replayed corpus file must be free of error-level
#      diagnostics (the same rules ResolveScenario enforces);
#   3. malleus_detlint over src/ tools/ tests/ bench/ examples/ against
#      tools/detlint_baseline.txt, plus the seeded known-bad self-check
#      (DESIGN.md §15);
#   4. clang-tidy over src/ against the checked-in .clang-tidy, compared
#      to the baseline count below (skipped with a note when clang-tidy
#      is not installed — the container ships only gcc);
#   5. tools/format.sh --check (skips itself when clang-format is absent);
#   6. the reachability gate (run_reach below, in build-reach and
#      build-reach-e2e): a library function outside libmalleus_testkit
#      that no shipped binary keeps fails unless tools/reach_allowlist.txt
#      lists it with a reason; a stale allowlist entry fails too.
#
# The default preset also runs stage 3 and the format check after the
# sanitized test sweep, so `tools/check.sh` alone gates on detlint.
set -euo pipefail

cd "$(dirname "$0")/.."

# clang-tidy findings currently in the tree (stage 4 fails when the count
# grows past this; shrink it as findings are fixed).
CLANG_TIDY_BASELINE=0

MODE=asan
FAST=0
for arg in "$@"; do
  case "$arg" in
    --tsan) MODE=tsan ;;
    --lint) MODE=lint ;;
    --detlint) MODE=detlint ;;
    --fuzz) MODE=fuzz ;;
    --whatif) MODE=whatif ;;
    --serve) MODE=serve ;;
    --policy) MODE=policy ;;
    --scale) MODE=scale ;;
    --fast) FAST=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# run_detlint BINARY — the determinism/concurrency analyzer gate
# (DESIGN.md §15): the tree sweep must be clean modulo the checked-in
# baseline, and a seeded known-bad corpus snippet must still fail with a
# SARIF finding at its marked line — proving the gate can catch what it
# claims to before trusting its green.
run_detlint() {
  local detlint=$1
  echo "== malleus_detlint over src/ tools/ tests/ bench/ examples/ =="
  "$detlint" --baseline=tools/detlint_baseline.txt \
    src tools tests bench examples

  local bad=tests/detlint_corpus/bad_unordered_iteration.cc
  echo "== detlint self-check (seeded known-bad snippet) =="
  local sarif
  if sarif=$("$detlint" --format=sarif "$bad"); then
    echo "detlint self-check: $bad unexpectedly passed" >&2
    exit 1
  fi
  if ! grep -q '"startLine":8' <<<"$sarif" || \
     ! grep -q 'bad_unordered_iteration.cc' <<<"$sarif"; then
    echo "detlint self-check: SARIF finding missing or mislocated:" >&2
    echo "$sarif" >&2
    exit 1
  fi
}

# run_reach — the reachability gate: every global function a
# libmalleus_*.a archive defines must be kept by at least one shipped
# binary (examples/, tools/, bench/ and bench_e2e), except in
# libmalleus_testkit and the entries of tools/reach_allowlist.txt. The
# binaries are built at -O0 (nothing is inlined away) with one section per
# function and linked with --gc-sections, so a function survives the link
# only if some binary calls it. The gate also fails on an allowlist entry
# that no longer names a library function or that a binary now keeps. The
# probe cannot see inline or template code in headers (it is not a global
# `T` symbol of any archive). The output lists every unkept function with
# its archive and size.
run_reach() {
  local reach_flags=(
    -G Ninja
    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS_DEBUG=-O0
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  )
  if [[ "$FAST" != 1 || ! -f build-reach/CMakeCache.txt ]]; then
    cmake -B build-reach -S . "${reach_flags[@]}" >/dev/null
  fi
  if [[ "$FAST" != 1 || ! -f build-reach-e2e/CMakeCache.txt ]]; then
    cmake -B build-reach-e2e -S bench_e2e "${reach_flags[@]}" >/dev/null
  fi
  echo "== reachability: -O0 --gc-sections build of every shipped binary =="
  cmake --build build-reach -j"$(nproc)" \
    --target examples/all tools/all bench/all
  cmake --build build-reach-e2e -j"$(nproc)" --target bench_e2e
  local binaries
  mapfile -t binaries < <(
    find build-reach/examples build-reach/tools build-reach/bench \
      -maxdepth 1 -type f -perm -u+x | sort)
  binaries+=(build-reach-e2e/bench_e2e)
  local archives
  mapfile -t archives < <(find build-reach/src -name 'libmalleus_*.a' | sort)
  python3 - tools/reach_allowlist.txt "${archives[@]}" -- "${binaries[@]}" \
    <<'PY'
import os
import re
import subprocess
import sys

EXEMPT = "libmalleus_testkit.a"
POSIX = re.compile(r"^(.*) ([A-Za-z]) ([0-9a-f]+)(?: ([0-9a-f]+))?$")

def symbols(path, *flags):
    """(name, type, size) of every defined symbol nm -C prints for path."""
    out = subprocess.run(["nm", "-C", "--defined-only", "--format=posix",
                          *flags, path], check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        m = POSIX.match(line)
        if m:
            yield m.group(1), m.group(2), int(m.group(4) or "0", 16)

allowlist_path, rest = sys.argv[1], sys.argv[2:]
split = rest.index("--")
archives, binaries = rest[:split], rest[split + 1:]

functions = {}  # demangled name -> (archive, size)
for archive in archives:
    for name, kind, size in symbols(archive, "-g"):
        if kind == "T":
            functions[name] = (os.path.basename(archive), size)
kept = set()
for binary in binaries:
    kept.update(name for name, _, _ in symbols(binary))

allowed = set()
with open(allowlist_path) as f:
    for number, line in enumerate(f, 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        if not reason.strip():
            sys.exit("%s:%d: entry has no reason: %s"
                     % (allowlist_path, number, line.strip()))
        allowed.add(name.strip())

unkept = sorted(n for n in functions if n not in kept)
testkit = [n for n in unkept if functions[n][0] == EXEMPT]
product = [n for n in unkept if functions[n][0] != EXEMPT]
print("reach: %d binaries keep %d of %d library functions; %d unkept "
      "(%d in %s, exempt)" % (len(binaries), len(functions) - len(unkept),
                              len(functions), len(unkept), len(testkit),
                              EXEMPT))
failures = 0
for name in product:
    archive, size = functions[name]
    note = "allowlisted" if name in allowed else "UNKEPT"
    failures += name not in allowed
    print("  %-11s %-24s %6d B  %s" % (note, archive, size, name))
for name in sorted(allowed):
    if name not in functions:
        print("  STALE       allowlist entry is no library function: " + name)
        failures += 1
    elif name in kept:
        print("  STALE       allowlist entry is kept by a binary: " + name)
        failures += 1
if failures:
    sys.exit("reach: %d failure(s); delete an UNKEPT function, move it to "
             "testkit or list it with a reason in %s, and drop STALE entries"
             % (failures, allowlist_path))
PY
}

if [[ "$MODE" == "detlint" ]]; then
  BUILD_DIR=build-lint
  if [[ "$FAST" != 1 || ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE=Release \
      -DMALLEUS_WERROR=ON
  fi
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target malleus_detlint_tool
  run_detlint "$BUILD_DIR/tools/malleus_detlint"
  echo "OK: detlint sweep clean (baseline applied), self-check still fails"
  exit 0
fi

if [[ "$MODE" == "lint" ]]; then
  BUILD_DIR=build-lint
  if [[ "$FAST" != 1 || ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE=Release \
      -DMALLEUS_WERROR=ON
  fi
  echo "== -Werror build =="
  cmake --build "$BUILD_DIR" -j"$(nproc)"

  echo "== -Werror build of bench_e2e =="
  if [[ "$FAST" != 1 || ! -f build-lint-e2e/CMakeCache.txt ]]; then
    cmake -S bench_e2e -B build-lint-e2e \
      -DCMAKE_BUILD_TYPE=Release \
      -DMALLEUS_WERROR=ON
  fi
  cmake --build build-lint-e2e -j"$(nproc)" --target bench_e2e

  echo "== malleus_lint over shipped scenarios and the dynamic corpus =="
  "$BUILD_DIR/tools/malleus_lint" examples/scenarios/*.scenario \
    tests/dynamic_corpus/*.scenario

  run_detlint "$BUILD_DIR/tools/malleus_detlint"

  echo "== clang-tidy (baseline: $CLANG_TIDY_BASELINE findings) =="
  if command -v clang-tidy >/dev/null 2>&1; then
    mapfile -t sources < <(git ls-files 'src/*.cc' 'tools/*.cc')
    findings=$(clang-tidy -p "$BUILD_DIR" --quiet "${sources[@]}" 2>/dev/null \
                 | grep -c 'warning:' || true)
    echo "clang-tidy: $findings finding(s)"
    if (( findings > CLANG_TIDY_BASELINE )); then
      echo "clang-tidy: findings grew past the baseline" \
           "($findings > $CLANG_TIDY_BASELINE)" >&2
      exit 1
    fi
  else
    echo "clang-tidy not found; skipping (install LLVM to enforce)"
  fi

  echo "== format check =="
  tools/format.sh --check

  run_reach

  echo "OK: -Werror build (tree + bench_e2e) + scenario lint + detlint" \
       "+ clang-tidy + format check + reachability"
  exit 0
fi

if [[ "$MODE" == "serve" ]]; then
  # The serving control plane, both sanitizer families: memory/UB bugs in
  # the protocol + server + cache persistence paths under ASan/UBSan
  # (including the end-to-end daemon smoke), then the admission queue /
  # drainer / per-request metrics concurrency under TSan with real
  # parallelism forced.
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export ASAN_OPTIONS="detect_leaks=1"
  if [[ "$FAST" != 1 || ! -f build-asan/CMakeCache.txt ]]; then
    cmake -B build-asan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DMALLEUS_SANITIZE=address,undefined
  fi
  cmake --build build-asan -j"$(nproc)" \
    --target serve_test malleus_served malleus_client_tool scenario_cli \
             planner_cache_test
  echo "== serve tests + daemon smoke (ASan/UBSan) =="
  ctest --test-dir build-asan -R 'serve' --output-on-failure -j"$(nproc)"
  # `-R serve` matches no serve_test case name, so run the binaries
  # directly; PlannerCache::Load parses cache-file bytes from disk.
  echo "== serve_test + planner cache load tests (ASan/UBSan) =="
  build-asan/tests/serve_test
  build-asan/tests/planner_cache_test
  # The stdio session is order-sensitive; repeat it so a race cannot
  # come back silently.
  echo "== serve_smoke x10 (ASan/UBSan) =="
  ctest --test-dir build-asan -R '^serve_smoke$' --repeat until-fail:10 \
    --output-on-failure

  if [[ "$FAST" != 1 || ! -f build-tsan/CMakeCache.txt ]]; then
    cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DMALLEUS_SANITIZE=thread
  fi
  cmake --build build-tsan -j"$(nproc)" --target serve_test
  echo "== serve_test (TSan, 4 planner threads) =="
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    MALLEUS_PLANNER_THREADS=4 build-tsan/tests/serve_test
  echo "OK: serve tests + smoke + planner cache loads clean under" \
       "ASan/UBSan, serve_test clean under TSan (4 planner threads)"
  exit 0
fi

if [[ "$MODE" == "tsan" ]]; then
  BUILD_DIR=build-tsan
  SANITIZE=thread
else
  BUILD_DIR=build-asan
  SANITIZE=address,undefined
fi

# Seed for the oracle fuzzer (default smoke + --fuzz). Fixed so failures
# reproduce with `malleus_fuzz --seed=$FUZZ_SEED`; bump deliberately to
# rotate the explored scenario population.
FUZZ_SEED=20260807

# run_fuzz RUNS — one seeded fuzz sweep per net model in $BUILD_DIR's
# instrumented malleus_fuzz. Prints the repro paths and exits non-zero on
# any oracle violation (sanitizer findings abort the binary directly).
run_fuzz() {
  local runs=$1
  local out_dir="$BUILD_DIR/fuzz-out"
  mkdir -p "$out_dir"
  for net_model in analytic flow; do
    echo "== malleus_fuzz --seed=$FUZZ_SEED --runs=$runs" \
         "--net-model=$net_model (sanitized) =="
    if ! "$BUILD_DIR/tools/malleus_fuzz" \
           --seed="$FUZZ_SEED" --runs="$runs" --net-model="$net_model" \
           --out="$out_dir" --report="$out_dir/report-$net_model.json"; then
      echo "fuzz: oracle violation(s); minimized repro(s):" >&2
      ls "$out_dir"/repro-*.scenario >&2 2>/dev/null || true
      echo "replay with: $BUILD_DIR/tools/malleus_fuzz --replay=<repro>" \
           "--net-model=$net_model" >&2
      exit 1
    fi
  done
}

if [[ "$FAST" != 1 || ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMALLEUS_SANITIZE="$SANITIZE"
fi

if [[ "$MODE" == "tsan" ]]; then
  # Only the binaries exercising threads: the pool itself, the metrics
  # registry hammer, the planner (serial + parallel-sweep suites) and the
  # serving control plane.
  TSAN_TARGETS=(exec_test obs_test planner_parallel_test planner_test
                serve_test)
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TSAN_TARGETS[@]}"

  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  # Force real concurrency even where tests leave the thread count at the
  # default, so TSan sees the racy interleavings.
  export MALLEUS_PLANNER_THREADS=4
  for net_model in analytic flow; do
    echo "== TSan tests (MALLEUS_NET_MODEL=$net_model, 4 planner threads) =="
    for t in "${TSAN_TARGETS[@]}"; do
      MALLEUS_NET_MODEL="$net_model" "$BUILD_DIR/tests/$t"
    done
  done
  echo "OK: thread pool + metrics + planner sweep clean under TSan" \
       "(analytic + flow net models, MALLEUS_PLANNER_THREADS=4)"
  exit 0
fi

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"

if [[ "$MODE" == "fuzz" ]]; then
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target malleus_fuzz
  run_fuzz 200
  echo "OK: 2x200 fuzz runs clean under ASan/UBSan" \
       "(analytic + flow net models, seed $FUZZ_SEED)"
  exit 0
fi

if [[ "$MODE" == "whatif" ]]; then
  # Record-and-sweep every shipped scenario in the instrumented build so
  # the whole bundle + what-if pipeline (scenario_cli --record-out,
  # LoadRunBundle, the counterfactual sweep, both report renderers) runs
  # under ASan/UBSan, once per net model. Each bundle is swept twice, at
  # --threads=1 and --threads=4, and the ranked JSON/CSV reports and the
  # text report on stdout (minus its "wrote ..." lines, which name the
  # output files) must come out byte-identical.
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target scenario_cli malleus_whatif_tool
  out_dir="$BUILD_DIR/whatif-out"
  mkdir -p "$out_dir"
  for net_model in analytic flow; do
    for scenario in examples/scenarios/*.scenario; do
      name=$(basename "$scenario" .scenario)
      bundle="$out_dir/$name-$net_model"
      rm -rf "$bundle"
      echo "== record + sweep $name (MALLEUS_NET_MODEL=$net_model) =="
      MALLEUS_NET_MODEL="$net_model" "$BUILD_DIR/examples/scenario_cli" \
        --scenario="$scenario" --record-out="$bundle" >/dev/null
      MALLEUS_NET_MODEL="$net_model" "$BUILD_DIR/tools/malleus_whatif" \
        "$bundle" --auto-grid --verify-snapshot --threads=1 --top=3 \
        --report-out="$bundle.a.json" --csv-out="$bundle.a.csv" \
        >"$bundle.a.txt"
      MALLEUS_NET_MODEL="$net_model" "$BUILD_DIR/tools/malleus_whatif" \
        "$bundle" --auto-grid --verify-snapshot --threads=4 --top=3 \
        --report-out="$bundle.b.json" --csv-out="$bundle.b.csv" \
        >"$bundle.b.txt"
      cat "$bundle.a.txt"
      cmp "$bundle.a.json" "$bundle.b.json"
      cmp "$bundle.a.csv" "$bundle.b.csv"
      cmp <(grep -v '^wrote ' "$bundle.a.txt") \
          <(grep -v '^wrote ' "$bundle.b.txt")
    done
  done
  echo "OK: recorded + swept every example scenario under ASan/UBSan" \
       "(analytic + flow models, reports identical at 1 and 4 threads)"
  exit 0
fi

if [[ "$MODE" == "policy" ]]; then
  # The policy engine's hardening sweep, all in the instrumented build:
  # the property tests (trace determinism, the adaptive cost bound, engine
  # validity, byte-identical replay, the re-plan overflow rule),
  # engine_test (the engine shares the Planner::Replan fallback rule and
  # the overflow rule), trace_driver_test and baselines_test (every
  # framework's transitions pass through the driver's one report), a
  # short seeded --dynamic fuzz budget driving the dynamic.* oracles on
  # generated scenarios, every checked-in dynamic corpus replay, and the
  # per-selector golden snapshot. Last, bench_policy writes its result into
  # the build directory, and every field but commit and host_nproc must
  # equal the committed BENCH_policy.json.
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target policy_test engine_test trace_driver_test baselines_test \
    malleus_fuzz malleus_golden bench_policy
  echo "== policy_test (ASan/UBSan) =="
  "$BUILD_DIR/tests/policy_test"
  for t in engine_test trace_driver_test baselines_test; do
    echo "== $t (ASan/UBSan) =="
    "$BUILD_DIR/tests/$t"
  done
  out_dir="$BUILD_DIR/fuzz-out"
  mkdir -p "$out_dir"
  echo "== malleus_fuzz --seed=$FUZZ_SEED --runs=15 --dynamic (sanitized) =="
  if ! "$BUILD_DIR/tools/malleus_fuzz" \
         --seed="$FUZZ_SEED" --runs=15 --dynamic --out="$out_dir" \
         --report="$out_dir/report-dynamic.json"; then
    echo "fuzz --dynamic: oracle violation(s); minimized repro(s):" >&2
    ls "$out_dir"/repro-*.scenario >&2 2>/dev/null || true
    exit 1
  fi
  echo "== dynamic corpus replays (sanitized) =="
  for corpus in tests/dynamic_corpus/*.scenario; do
    "$BUILD_DIR/tools/malleus_fuzz" --replay="$corpus"
  done
  echo "== golden_dynamic snapshot comparison (sanitized) =="
  "$BUILD_DIR/tools/malleus_golden" \
    --scenario-dir=examples/scenarios/dynamic --golden-dir=tests/golden
  echo "== bench_policy against the committed BENCH_policy.json (sanitized) =="
  MALLEUS_BENCH_OUT_DIR="$BUILD_DIR" "$BUILD_DIR/bench/bench_policy" \
    >/dev/null
  python3 - "$BUILD_DIR/BENCH_policy.json" BENCH_policy.json <<'PY'
import json
import sys

def fields(path):
    with open(path) as f:
        result = json.load(f)
    for key in ("commit", "host_nproc"):
        result.pop(key, None)
    return result

if fields(sys.argv[1]) != fields(sys.argv[2]):
    sys.exit("bench_policy: %s differs from %s beyond commit and host_nproc"
             % (sys.argv[1], sys.argv[2]))
PY
  echo "OK: policy tests + dynamic fuzz budget + corpus replays" \
       "+ golden snapshots + BENCH_policy.json clean under ASan/UBSan"
  exit 0
fi

if [[ "$MODE" == "scale" ]]; then
  # Kilo-GPU scale-out smoke in the instrumented build: hierarchical
  # planning and the incremental flow simulator on pod-structured
  # fat-trees, where a memory bug would scale with the cluster. The
  # 1024-GPU scenario runs its full phase trace end-to-end; the 2048-GPU
  # acceptance case plans one normal phase (ASan makes the full trace
  # needlessly slow for a smoke); scale_test re-checks plan validity,
  # determinism and the island-memo delta re-plan, sanitized.
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target scenario_cli scale_test
  echo "== 1024-GPU fat-tree scenario (plan + flow sim, ASan/UBSan) =="
  "$BUILD_DIR/examples/scenario_cli" \
    --scenario=examples/scenarios/scale/fat_tree_1024.scenario >/dev/null
  echo "== 2048-GPU fat-tree scenario (plan, normal phase, ASan/UBSan) =="
  "$BUILD_DIR/examples/scenario_cli" \
    --scenario=examples/scenarios/scale/fat_tree_2048.scenario \
    --trace=normal >/dev/null
  echo "== scale_test (ASan/UBSan) =="
  "$BUILD_DIR/tests/scale_test"
  echo "OK: kilo-GPU planning + flow sim clean under ASan/UBSan"
  exit 0
fi

cmake --build "$BUILD_DIR" -j"$(nproc)"

# The ctest pass covers the `fuzz`-labeled smoke too; exclude it here and
# run it explicitly below so both net models are swept and the repro path
# is printed on failure.
for net_model in analytic flow; do
  echo "== ctest (MALLEUS_NET_MODEL=$net_model) =="
  MALLEUS_NET_MODEL="$net_model" \
    ctest --test-dir "$BUILD_DIR" -LE fuzz --output-on-failure -j"$(nproc)"
done

run_fuzz 25

# Static gates ride the default preset too: the (sanitized) detlint binary
# sweeps the tree, and formatting drifts fail here rather than in review.
run_detlint "$BUILD_DIR/tools/malleus_detlint"
echo "== format check =="
tools/format.sh --check

echo "OK: build + tests + 2x25 fuzz runs + detlint + format check clean" \
     "under ASan/UBSan (analytic + flow net models)"
