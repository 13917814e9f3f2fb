#!/usr/bin/env bash
# Serving-fast-path perf gate: builds Release, runs the scaling benchmark
# with a JSON report, and fails if 8 concurrent clients deliver less query
# throughput than a single client (i.e. the sharded pool + result cache
# stopped paying for their synchronization).
#
#   tools/check_perf.sh [build-dir]
#
# The threshold is deliberately lax (1.0x): it catches concurrency
# regressions, not host-to-host variance. BENCH_scaling.json in the repo
# root records the trajectory on the reference host.

set -euo pipefail

DIR="${1:-build-perf}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$DIR" -j "$(nproc)" --target bench_scaling --target bench_micro \
  --target bench_topk_sweep --target bench_selectivity \
  --target bench_fig10_high_corr

# Micro-benchmark JSON (google-benchmark format + spliced metrics-registry
# snapshot) rides along as a CI artifact for throughput trajectory tracking,
# and gates the block-max pruning fast path: the pruned conjunctive top-k
# merge must not be slower than the exhaustive merge on the skewed-rank
# corpus (it should be dramatically faster; 1.0x only catches the pruning
# machinery turning into pure overhead).
# Plain-double min_time: the "0.05s" suffix form needs google-benchmark
# >= 1.8, while the bare double parses everywhere.
MICRO_JSON="$DIR/check_perf_micro.json"
"$DIR/bench/bench_micro" --json "$MICRO_JSON" \
  --benchmark_min_time=0.05 > /dev/null

python3 - "$MICRO_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
times = {b["name"]: b["real_time"] for b in report["benchmarks"]}
exhaustive = times.get("BM_TopkMergeExhaustive")
pruned = times.get("BM_TopkMergePruned")
if exhaustive is None or pruned is None:
    print("check_perf: FAIL — TopkMerge benchmarks missing from", sys.argv[1])
    sys.exit(2)
speedup = exhaustive / pruned if pruned > 0 else 0.0
print(f"check_perf: pruned top-k merge {speedup:.2f}x vs exhaustive")
if speedup < 1.0:
    print("check_perf: FAIL — block-max pruning slower than exhaustive merge")
    sys.exit(1)

# Deep-merge gate: the serving Dewey-stack merge on XMark-depth ids (1-3
# keywords, disjunctive, bounded top-10) against the shallow 4-level
# BM_DeweyStackMerge of the same run, so host speed cancels out. Every
# deep row must keep >= 0.35x the shallow throughput (reference host:
# 0.64-1.3x; a merge that allocates per frame and keeps every candidate
# runs 0.12-0.17x).
shallow = next((b for b in report["benchmarks"]
                if b["name"] == "BM_DeweyStackMerge"), None)
deep = [b for b in report["benchmarks"]
        if b["name"].startswith("BM_DeweyStackMergeDeep/")]
if shallow is None or not deep:
    print("check_perf: FAIL — DeweyStackMerge rows missing from", sys.argv[1])
    sys.exit(2)
for row in deep:
    ratio = row["items_per_second"] / shallow["items_per_second"]
    print(f"check_perf: {row['name']} {row['ns_per_posting']:.0f} ns/posting, "
          f"{ratio:.2f}x shallow merge throughput (gate: 0.35x)")
    if ratio < 0.35:
        print("check_perf: FAIL — deep Dewey-stack merge below 0.35x the "
              "shallow merge")
        sys.exit(1)

# Posting-codec gate: the bit-packed block codec must decode at >= 2x the
# varint baseline's throughput while spending no more bytes per posting
# (reference host: ~8x and ~0.76x; 2.0/1.0 only catch real regressions).
decode = {b["name"]: b for b in report["benchmarks"]
          if b["name"].startswith("BM_PostingDecode/")}
varint = decode.get("BM_PostingDecode/varint")
bp128 = decode.get("BM_PostingDecode/bp128")
if varint is None or bp128 is None:
    print("check_perf: FAIL — PostingDecode benchmarks missing from",
          sys.argv[1])
    sys.exit(2)
for name, row in sorted(decode.items()):
    if "bytes_per_posting" not in row:  # raw-stream rows (vgb_simd/_scalar)
        continue
    print(f"check_perf: {name.split('/')[1]} decode "
          f"{row['items_per_second'] / 1e6:.1f} M postings/s, "
          f"{row['bytes_per_posting']:.2f} bytes/posting")
ratio = bp128["items_per_second"] / varint["items_per_second"]
if ratio < 2.0:
    print(f"check_perf: FAIL — bp128 decode only {ratio:.2f}x varint "
          "(gate: 2.0x)")
    sys.exit(1)
if bp128["bytes_per_posting"] > varint["bytes_per_posting"]:
    print("check_perf: FAIL — bp128 spends more bytes per posting than "
          "varint")
    sys.exit(1)
print(f"check_perf: bp128 decode {ratio:.2f}x varint throughput, "
      f"{bp128['bytes_per_posting'] / varint['bytes_per_posting']:.2f}x "
      "bytes/posting")

# Disjunctive dynamic-pruning gate: on the skewed-rank corpus, MaxScore and
# block-max WAND must each finish the disjunctive top-10 at >= 2x the
# exhaustive merge (reference host: >100x; 2.0x only catches the pruning
# collapsing into a full scan). Plain WAND is ungated — list-level bounds
# legitimately cannot prune this corpus.
dis_exhaustive = times.get("BM_TopkDisjunctiveExhaustive")
for name, key in (("maxscore", "BM_TopkDisjunctiveMaxScore"),
                  ("bmw", "BM_TopkDisjunctiveBmw")):
    pruned_time = times.get(key)
    if dis_exhaustive is None or pruned_time is None:
        print("check_perf: FAIL — TopkDisjunctive benchmarks missing from",
              sys.argv[1])
        sys.exit(2)
    speedup = dis_exhaustive / pruned_time if pruned_time > 0 else 0.0
    print(f"check_perf: disjunctive {name} top-10 {speedup:.2f}x vs "
          "exhaustive (gate: 2.0x)")
    if speedup < 2.0:
        print(f"check_perf: FAIL — disjunctive {name} below 2x the "
              "exhaustive merge")
        sys.exit(1)

# SIMD group-varint gate: the dispatched kernel must decode the raw vgb
# gap stream at >= 1.5x the portable scalar reference (reference host:
# ~5x with SSSE3). Skipped when no SIMD kernel is compiled in (the rows
# then measure the same scalar code — simd_active=0).
simd = decode.get("BM_PostingDecode/vgb_simd")
scalar = decode.get("BM_PostingDecode/vgb_scalar")
if simd is None or scalar is None:
    print("check_perf: FAIL — vgb_simd/vgb_scalar rows missing from",
          sys.argv[1])
    sys.exit(2)
if simd.get("simd_active", 0) > 0:
    ratio = simd["items_per_second"] / scalar["items_per_second"]
    print(f"check_perf: group-varint SIMD decode {ratio:.2f}x scalar "
          "(gate: 1.5x)")
    if ratio < 1.5:
        print("check_perf: FAIL — SIMD group-varint decode below 1.5x the "
              "scalar reference")
        sys.exit(1)
else:
    print("check_perf: group-varint SIMD gate skipped (scalar-only host)")

# Document-reordering gates, on the clustered corpus whose doc ids are
# LCG-shuffled (identity layout) vs. BP-permuted: (a) bp128 must spend no
# more bytes per posting after reordering (reference host: 0.96x), and
# (b) block-max WAND disjunctive top-10 must be at least as fast on the
# reordered layout (reference host: ~2.3x — sharper block maxima skip
# nearly every block).
shuffled = next((b for b in report["benchmarks"]
                 if b["name"] == "BM_TopkDisjunctiveBmwShuffled"), None)
reordered = next((b for b in report["benchmarks"]
                  if b["name"] == "BM_TopkDisjunctiveBmwReordered"), None)
if shuffled is None or reordered is None:
    print("check_perf: FAIL — BmwShuffled/BmwReordered rows missing from",
          sys.argv[1])
    sys.exit(2)
bytes_ratio = (reordered["bp128_bytes_per_posting"] /
               shuffled["bp128_bytes_per_posting"])
print(f"check_perf: reordered bp128 {bytes_ratio:.3f}x identity "
      "bytes/posting (gate: <= 1.0x)")
if bytes_ratio > 1.0:
    print("check_perf: FAIL — BP reordering inflates bp128 bytes/posting "
          "on the clustered corpus")
    sys.exit(1)
bmw_speedup = (shuffled["real_time"] / reordered["real_time"]
               if reordered["real_time"] > 0 else 0.0)
print(f"check_perf: reordered BMW top-10 {bmw_speedup:.2f}x vs shuffled "
      "(gate: 1.0x)")
if bmw_speedup < 1.0:
    print("check_perf: FAIL — BMW slower on the reordered layout")
    sys.exit(1)
EOF

# Oracle parity in the Release job: bench_topk_sweep re-runs every pruned
# disjunctive query against the exhaustive (--safe) merge and exits
# nonzero if any result id or rank diverges. A small corpus scale keeps
# the gate fast; the parity check is scale-independent.
TOPK_JSON="$DIR/check_perf_topk.json"
XRANK_BENCH_SCALE="${XRANK_TOPK_SCALE:-0.1}" \
  "$DIR/bench/bench_topk_sweep" --json "$TOPK_JSON" > /dev/null
echo "check_perf: disjunctive pruned == exhaustive ids+ranks (topk sweep)"

# HDIL plan-choice gate, in cost-model units (deterministic, so no host
# calibration): (a) on the selectivity ladder's short dblp lists, where
# RDIL's first round already costs more than DIL's scan, HDIL's mean
# io_cost must not exceed DIL's; (b) on Figure 10's correlated keywords
# over long lists, where RDIL mode runs, HDIL must stay within 5% of
# RDIL's mean cost.
SEL_JSON="$DIR/check_perf_selectivity.json"
FIG10_JSON="$DIR/check_perf_fig10.json"
"$DIR/bench/bench_selectivity" --json "$SEL_JSON" > /dev/null
"$DIR/bench/bench_fig10_high_corr" --json "$FIG10_JSON" > /dev/null
python3 - "$SEL_JSON" "$FIG10_JSON" <<'EOF'
import json, sys

def mean_cost(path, kind):
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    costs = [v for k, v in metrics.items() if k.endswith(f"/{kind}/io_cost")]
    if not costs:
        print(f"check_perf: FAIL — no {kind} io_cost rows in {path}")
        sys.exit(2)
    return sum(costs) / len(costs)

sel, fig10 = sys.argv[1], sys.argv[2]
hdil, dil = mean_cost(sel, "HDIL"), mean_cost(sel, "DIL")
print(f"check_perf: short lists HDIL {hdil:.1f} vs DIL {dil:.1f} cost units "
      "(gate: HDIL <= DIL)")
if hdil > dil:
    print("check_perf: FAIL — HDIL pays more than DIL on short lists")
    sys.exit(1)
hdil, rdil = mean_cost(fig10, "HDIL"), mean_cost(fig10, "RDIL")
print(f"check_perf: Fig. 10 HDIL {hdil:.1f} vs RDIL {rdil:.1f} cost units "
      "(gate: HDIL <= 1.05x RDIL)")
if hdil > 1.05 * rdil:
    print("check_perf: FAIL — HDIL stopped tracking RDIL on correlated "
          "long lists")
    sys.exit(1)
EOF

JSON="$DIR/check_perf_scaling.json"
"$DIR/bench/bench_scaling" --json "$JSON"

awk '
  /"dblp\/query\/clients=1\/cold_qps"/  { gsub(/[",]/, ""); base = $2 }
  /"dblp\/query\/clients=8\/cold_qps"/  { gsub(/[",]/, ""); cold8 = $2 }
  /"dblp\/query\/clients=8\/throughput_x"/ { gsub(/[",]/, ""); tx = $2 }
  /"dblp\/query\/clients=8\/cold_result_cache_hit_rate"/ { gsub(/[",]/, ""); hit = $2 }
  END {
    if (base == "" || tx == "" || hit == "") {
      print "check_perf: FAIL — dblp query metrics missing from " FILENAME
      exit 2
    }
    printf "check_perf: dblp cold 1-client %.1f QPS, 8-client %.1f QPS (%.2fx), cold result-cache hit %.1f%%\n", base, cold8, tx, 100 * hit
    if (tx + 0 < 1.0) {
      print "check_perf: FAIL — 8-client cold throughput below the 1-client baseline"
      exit 1
    }
    if (hit + 0 > 0.05) {
      print "check_perf: FAIL — cold phase served from the result cache (methodology bug)"
      exit 1
    }
    print "check_perf: OK"
  }
' "$JSON"
