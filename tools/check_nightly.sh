#!/usr/bin/env bash
# Nightly deep gate — the slow checks that would bloat per-PR CI:
#
#   1. Extended crash-recovery: check_recovery.sh re-runs with several
#      distinct randomized-skip seeds, so the kill -9 windows land on
#      different hits of each failpoint every night instead of the single
#      fixed-seed pass the PR pipeline runs.
#   2. Bench baseline diff: the deterministic benchmark reports —
#      bench_table1_space (index bytes) and bench_topk_sweep (cost-model
#      I/O units) — are regenerated and compared against the committed
#      BENCH_*.json baselines within a relative tolerance. Wall-clock
#      reports (bench_scaling) are host-dependent, so they are checked
#      for schema only: every baseline metric key must still be produced.
#      Fresh reports are left in the build directory for artifact upload.
#   3. Harness-bench smoke: bench_fig10_high_corr, bench_fig11_low_corr and
#      bench_selectivity (the paper-baseline figures, built on the
#      reproduction harness) run at XRANK_BENCH_SCALE=0.05. Only their exit
#      status is checked; they carry no baseline.
#
#   tools/check_nightly.sh [build-dir]
#
# Environment:
#   XRANK_NIGHTLY_RECOVERY_RUNS  randomized-seed recovery passes (default 5)
#   XRANK_NIGHTLY_TOLERANCE      allowed relative drift for deterministic
#                                metrics (default 0.25)

set -euo pipefail

DIR="${1:-build-nightly}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

RECOVERY_RUNS="${XRANK_NIGHTLY_RECOVERY_RUNS:-5}"
TOLERANCE="${XRANK_NIGHTLY_TOLERANCE:-0.25}"

echo "=== extended crash-recovery (${RECOVERY_RUNS} randomized-seed passes) ==="
for ((i = 1; i <= RECOVERY_RUNS; ++i)); do
  SEED=$((20260808 + i * 7919))
  echo "--- recovery pass $i/${RECOVERY_RUNS} (seed $SEED) ---"
  XRANK_RECOVERY_SEED="$SEED" tools/check_recovery.sh "$DIR-recovery"
done

echo "=== bench baseline diff ==="
cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$DIR" -j "$(nproc)" --target bench_table1_space \
  --target bench_topk_sweep --target bench_scaling \
  --target bench_fig10_high_corr --target bench_fig11_low_corr \
  --target bench_selectivity

echo "=== harness-bench smoke (XRANK_BENCH_SCALE=0.05) ==="
for bench in bench_fig10_high_corr bench_fig11_low_corr bench_selectivity; do
  XRANK_BENCH_SCALE=0.05 "$DIR/bench/$bench" > /dev/null
  echo "check_nightly: $bench OK"
done

"$DIR/bench/bench_table1_space" --reorder \
  --json "$DIR/BENCH_table1_space.json" > /dev/null
"$DIR/bench/bench_topk_sweep" --json "$DIR/BENCH_disjunctive.json" > /dev/null
"$DIR/bench/bench_scaling" --json "$DIR/BENCH_scaling.json" > /dev/null

python3 - "$TOLERANCE" "$DIR" <<'EOF'
import json, os, sys

tolerance = float(sys.argv[1])
build_dir = sys.argv[2]

# (baseline, compare values?) — table1_space and topk_sweep report
# deterministic quantities (bytes, cost-model units); scaling reports
# wall-clock, so only its metric schema is compared. Time-based keys
# inside otherwise-deterministic reports are host noise: schema only.
REPORTS = [
    ("BENCH_table1_space.json", True),
    ("BENCH_disjunctive.json", True),
    ("BENCH_scaling.json", False),
]
HOST_DEPENDENT = ("wall_ms", "seconds", "qps", "speedup", "throughput_x")

failures = 0
for name, compare_values in REPORTS:
    with open(name) as f:
        baseline = json.load(f)["metrics"]
    with open(os.path.join(build_dir, name)) as f:
        fresh = json.load(f)["metrics"]
    missing = sorted(set(baseline) - set(fresh))
    for key in missing:
        print(f"check_nightly: FAIL — {name}: baseline metric "
              f"'{key}' missing from fresh report")
        failures += 1
    # Schema drift in the other direction is just as much a failure: a
    # fresh metric with no committed baseline means the benchmark grew a
    # key nobody regenerated the BENCH_*.json for — the nightly diff
    # would silently stop covering it.
    unbaselined = sorted(set(fresh) - set(baseline))
    for key in unbaselined:
        print(f"check_nightly: FAIL — {name}: fresh metric '{key}' has no "
              f"committed baseline (regenerate {name})")
        failures += 1
    missing = missing + unbaselined
    drifted = 0
    if compare_values:
        for key, base in baseline.items():
            if key not in fresh:
                continue
            if any(key.endswith(s) or f"/{s}/" in key
                   for s in HOST_DEPENDENT):
                continue
            new = fresh[key]
            bound = tolerance * max(abs(base), 1e-9)
            if abs(new - base) > bound:
                print(f"check_nightly: FAIL — {name}: '{key}' drifted "
                      f"{base:.6g} -> {new:.6g} "
                      f"(tolerance {tolerance:.0%})")
                failures += 1
                drifted += 1
    mode = "values" if compare_values else "schema"
    print(f"check_nightly: {name}: {len(baseline)} baseline metrics, "
          f"{mode} checked, {len(missing)} missing, {drifted} drifted")

if failures:
    print(f"check_nightly: FAIL — {failures} baseline deviation(s)")
    sys.exit(1)
print("check_nightly: OK")
EOF
