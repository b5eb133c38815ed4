#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/verify.sh              release build + ctest (the tier-1 gate)
#   scripts/verify.sh --sanitize   additionally build and test under
#                                  AddressSanitizer + UBSan (asan-ubsan preset)
#   scripts/verify.sh --tsan       additionally build under ThreadSanitizer
#                                  and run the concurrency-sensitive suites
#                                  (sweep engine, its group commit under
#                                  SIGKILL and its attempt runner,
#                                  determinism, journal, calibration,
#                                  skeleton, usage and best-variant
#                                  artifact caches, serve daemon, shards,
#                                  the shared kernel-time model, the pool
#                                  over cross-machine specs, and the
#                                  detailed simulator's helper-thread
#                                  measurements)
#   scripts/verify.sh --bench      additionally run every built micro_*
#                                  benchmark (plus cross_machine_report)
#                                  and gate each against its checked-in
#                                  bench/BENCH_*.json baseline; a bench
#                                  without a committed baseline fails
#                                  loudly naming the expected path. Every
#                                  gate runs even after one fails; the
#                                  failing gates are listed at the end
#   scripts/verify.sh --serve      additionally run the live daemon smoke:
#                                  serve_daemon on a real socket under a
#                                  loadgen burst (scripts/serve_smoke.sh)
#   scripts/verify.sh --shard      additionally re-run the process-sharding
#                                  kill-chaos suites and the sweep_shard
#                                  smoke: a 4-shard run byte-compared
#                                  against an in-process run, plus a full
#                                  resume check (scripts/shard_smoke.sh)
#   scripts/verify.sh --e2ebench   additionally build the end-to-end
#                                  benchmark against src/'s public API, run
#                                  its self-tests (e2ebench/test_e2ebench.py)
#                                  and run each workload for one second,
#                                  requiring its byte-for-byte output check
#                                  to pass (scripts/e2ebench_smoke.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-test ctest timeout (seconds). The serve suites run a daemon with
# worker pools and watchdogs; if a bug ever wedges one, the suite must
# fail fast instead of hanging verification. Generous enough for the
# soak tests under TSan's ~10x slowdown.
CTEST_TIMEOUT="${CTEST_TIMEOUT:-300}"

run_preset() {
  local preset="$1"
  shift
  echo "=== verify: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}" -j "$(nproc)" --timeout "${CTEST_TIMEOUT}" "$@"
}

run_preset default

# Registry validation: load every shipped .gmach through the global
# MachineRegistry (re-running hw::validate_machine on each) and check the
# fleet invariants (>= 8 machines, PCIe gen1-gen5 coverage). A malformed
# or missing shipped spec fails verification here, not at a user's first
# cross-machine sweep.
echo "=== verify: machine registry (tools/validate_machines) ==="
./build/tools/validate_machines

for arg in "$@"; do
  case "${arg}" in
    --sanitize)
      run_preset asan-ubsan
      ;;
    --tsan)
      # TSan slows everything ~10x; focus it on the code that actually
      # shares state across threads (ctest names are GTest suite.test).
      run_preset tsan --no-tests=error -R \
        '^(KernelModel|SweepEngine|GroupCommitCrash|StreamSeed|SweepDeterminism|SweepRequestValidation|Crc32|FlatJson|ResultJournal|JournalProcessDeath|JobSpec|JobRecord|AttemptRunner|CalibrationCacheTest|CalibrationCacheKey|ArtifactCache|SweepDedupe|ServeProtocol|ServeDaemon|ServeSoak|ServeEndToEnd|ShardProtocol|ShardPath|ShardOptionsValidation|ShardSupervisor|ShardMerge|ShardChaos|CrossMachineSweep|EventGpuSimulator)\.'
      ;;
    --bench)
      # Discover the benches from the built binaries instead of a
      # hand-maintained list: a new micro bench is gated the moment it
      # builds, and one whose committed baseline is missing fails loudly
      # with the expected path instead of being silently skipped. Every
      # gate runs even when an earlier one fails, so one flaky entry
      # cannot hide the verdict of the gates after it.
      failed_gates=()
      for bench_bin in ./build/bench/micro_*; do
        if [ ! -x "${bench_bin}" ]; then
          echo "FAIL: no micro_* bench binaries under ./build/bench —" \
            "build the bench targets before verify.sh --bench" >&2
          exit 1
        fi
        bench="$(basename "${bench_bin}")"
        bench="${bench#micro_}"
        # micro_workloads is a google-benchmark microbench; it has no
        # BENCH_*.json contract. Everything else must have a baseline.
        if [ "${bench}" = "workloads" ]; then continue; fi
        baseline="bench/BENCH_${bench}.json"
        if [ ! -f "${baseline}" ]; then
          echo "FAIL: micro_${bench} has no committed baseline —" \
            "expected ${baseline} (run ${bench_bin} --out ${baseline}" \
            "and commit it)" >&2
          failed_gates+=("micro_${bench} (no baseline)")
          continue
        fi
        echo "=== verify: bench (micro_${bench} vs ${baseline}) ==="
        if ! "${bench_bin}" --out "build/BENCH_${bench}.json" ||
          ! scripts/bench_compare "${baseline}" "build/BENCH_${bench}.json"; then
          failed_gates+=("micro_${bench}")
        fi
      done
      echo "=== verify: bench (cross_machine_report vs bench/BENCH_machines.json) ==="
      if [ ! -f bench/BENCH_machines.json ]; then
        echo "FAIL: cross_machine_report has no committed baseline —" \
          "expected bench/BENCH_machines.json" >&2
        failed_gates+=("cross_machine_report (no baseline)")
      elif ! ./build/bench/cross_machine_report \
          --out build/BENCH_machines.json > /dev/null ||
        ! scripts/bench_compare bench/BENCH_machines.json \
          build/BENCH_machines.json; then
        failed_gates+=("cross_machine_report")
      fi
      if [ "${#failed_gates[@]}" -gt 0 ]; then
        echo "FAIL: ${#failed_gates[@]} bench gate(s) failed:" >&2
        printf '  %s\n' "${failed_gates[@]}" >&2
        exit 1
      fi
      ;;
    --serve)
      echo "=== verify: serve smoke (daemon + loadgen over AF_UNIX) ==="
      scripts/serve_smoke.sh build
      ;;
    --shard)
      echo "=== verify: shard kill-chaos suites ==="
      ctest --preset default --timeout "${CTEST_TIMEOUT}" --no-tests=error \
        -R '^(ShardChaos|ShardSupervisor|JournalProcessDeath)\.'
      echo "=== verify: shard smoke (sweep_shard byte-compare + resume) ==="
      scripts/shard_smoke.sh build
      ;;
    --e2ebench)
      echo "=== verify: e2ebench self-tests (e2ebench/test_e2ebench.py) ==="
      python3 e2ebench/test_e2ebench.py
      echo "=== verify: e2ebench output check (scripts/e2ebench_smoke.sh) ==="
      scripts/e2ebench_smoke.sh
      ;;
    *)
      echo "unknown option: ${arg}" >&2
      exit 2
      ;;
  esac
done
echo "=== verify: OK ==="
