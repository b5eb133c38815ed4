#!/usr/bin/env bash
# Output-check smoke of the end-to-end benchmark: run every e2ebench
# workload once, for one second, and fail unless its result line reports
# "correct": true and "failed": 0. The benchmark checks every reply and
# journal record byte for byte against an in-process recomputation, so a
# wrong served byte fails here rather than first in a benchmark run.
# Timings are not gated.
#
#   scripts/e2ebench_smoke.sh
#
# Used by `scripts/verify.sh --e2ebench` and the CI e2ebench-selftest job.
# e2ebench/run.py builds the benchmark into .bench_build/ first.
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in serve-hot sweep-fleet sweep-detailed; do
  echo "=== e2ebench smoke: ${workload} (seed 1, 1 s) ==="
  result="$(python3 e2ebench/run.py --workload "${workload}" --seed 1 \
    --seconds 1 --trace 0 | tail -n 1)"
  echo "${result}"
  python3 - "${result}" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("e2ebench smoke: output check failed "
             f"(correct={result.get('correct')}, failed={result.get('failed')})")
PY
done
echo "=== e2ebench smoke: OK ==="
