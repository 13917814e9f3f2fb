#!/usr/bin/env python3
"""Builds the optimised XRANK benchmark binary and runs one workload.

    python3 perfbench/run.py --workload dblp-conj --seed 1 --seconds 20 --trace 0

Run from the repository root. The engine is compiled from ../src by this
directory's own CMakeLists.txt into .bench_build/perfbench (build output
goes to stderr). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

A traced run is two processes of half the seconds each, one untraced and
one traced, so that trace_overhead.<metric> can report how much tracing
moved each end-to-end metric; the per-layer metrics come from the traced
half, and its spans are written to .bench_build/perfbench/trace-<workload>.tsv.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "xrank_perfbench")
CHILD_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.cc")):
        fail("no XRANK sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake is required")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_child(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work", os.path.join(ROOT, ".bench_build", "perfbench-work", workload)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.tsv" % workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (workload, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    if not args.trace:
        result = run_child(args.workload, args.seed, args.seconds, False)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        half = args.seconds / 2
        plain = run_child(args.workload, args.seed, half, False)
        result = run_child(args.workload, args.seed, half, True)
        for m in spec["end_to_end"]:
            name = m["name"]
            base = plain["metrics"][name]["value"]
            traced = result["metrics"][name]["value"]
            result["metrics"]["trace_overhead." + name] = {
                "value": (traced - base) / base * 100.0, "unit": "%"}
        result["correct"] = result["correct"] and plain["correct"]
        names = [m["name"] for m in spec["per_layer"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
