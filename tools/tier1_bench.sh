#!/usr/bin/env bash
# Times the tier-1 test suite end to end and records it as
# BENCH_tier1.json at the repository root.
#
#   tools/tier1_bench.sh                # Release build in build/
#   tools/tier1_bench.sh --build-dir=DIR
#
# Configures and builds a Release tree, runs `ctest -j4` once over every
# registered test, and writes: host_nproc, commit (`git describe --always
# --dirty`, as bench/CMakeLists.txt stamps its benches), wall_seconds of
# the ctest run, test_seconds (the per-test times summed), the test and
# failure counts, and the ten slowest cases. Exits with ctest's status;
# the file is written either way.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j4 >/dev/null

junit="$BUILD_DIR/tier1_junit.xml"
start=$(date +%s.%N)
status=0
(cd "$BUILD_DIR" && ctest -j4 --output-junit tier1_junit.xml >/dev/null) ||
  status=$?
end=$(date +%s.%N)

commit=$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)
python3 - "$junit" "$(nproc)" "$commit" "$start" "$end" \
  >BENCH_tier1.json <<'EOF'
import json
import sys
import xml.etree.ElementTree as ET

junit, nproc, commit, start, end = sys.argv[1:]
cases = []
failures = 0
for case in ET.parse(junit).getroot().iter("testcase"):
    cases.append((case.get("name"), float(case.get("time", "0"))))
    if case.get("status") in ("fail", "notrun"):
        failures += 1
slowest = sorted(cases, key=lambda c: (-c[1], c[0]))[:10]
print(json.dumps({
    "bench": "tier1",
    "host_nproc": int(nproc),
    "commit": commit,
    "ctest_jobs": 4,
    "wall_seconds": round(float(end) - float(start), 2),
    "test_seconds": round(sum(t for _, t in cases), 2),
    "tests": len(cases),
    "failures": failures,
    "slowest": [{"name": n, "seconds": round(t, 2)} for n, t in slowest],
}, indent=2))
EOF
echo "wrote BENCH_tier1.json"
exit "$status"
