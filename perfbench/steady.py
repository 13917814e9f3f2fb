#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports spreads.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--sets 1] [--seconds N]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed + 1, ...). For every end-to-end metric of BENCHMARK.json it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound. With --sets 2 it makes a
second set of runs on the same seeds and also compares the two medians.

Exits 1 when a spread exceeds its bound, when a second median is worse than the first by more than the bound, when a
run is not correct, or when the share of failed operations differs between
runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    print("  %s seed %d: %.1f s" % (workload, seed, time.monotonic() - start),
          flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(metric, first, second):
    """Relative change of second against first, positive when worse."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        shares = set()
        for _ in range(args.sets):
            runs = []
            for i in range(args.runs):
                result = run_once(workload, args.first_seed + i, args.seconds)
                if not result["correct"]:
                    print("%s seed %d: not correct" %
                          (workload, args.first_seed + i))
                    ok = False
                shares.add((result["failed"], result["attempted"]))
                runs.append(result)
            sets.append(runs)
        if len({f / a for f, a in shares}) > 1:
            print("%s: failed share differs between runs: %s" %
                  (workload, sorted(shares)))
            ok = False
        print("%s: %d run(s) per set, failed/attempted %s" %
              (workload, args.runs, sorted(shares)[:3]))
        print("  %-28s %12s %12s %12s %8s %7s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = "ok" if spread <= bound / 3 else (
                    "ok(>1/3)" if spread <= bound else "WIDE")
                if spread > bound:
                    ok = False
                print("  %-28s %12.5g %12.5g %12.5g %8.3f %7.3f  %s" %
                      (name, med, q1, q3, spread, bound, verdict))
            if len(medians) == 2:
                drift = worse_by(metric, medians[0], medians[1])
                if drift > bound:
                    ok = False
                print("  %-28s second median worse by %+.3f (bound %.3f)" %
                      ("", drift, bound))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
