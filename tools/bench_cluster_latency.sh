#!/usr/bin/env bash
# Cluster-scale latency bench (ROADMAP "cluster-scale benches"): sweep
# --net-latency through tools/qcm_cluster -- a REAL 3-process run over
# loopback TCP sockets, not the in-process cluster bench_table6_latency
# measures -- and record, per latency point and for prefetch off ("before",
# with flat steal batching) vs on ("after", with latency-aware steal
# planning), the per-rank balance and scheduling counters from
# --stats-json. A steal-planner RTT sweep (steal_planner_probe) is
# embedded alongside so the batch-size-vs-latency policy is demonstrated
# deterministically even when a balanced run never steals.
#
# Every run's result digest is compared against the zero-latency
# prefetch-off run: any divergence fails the bench loudly.
#
# A second sweep (cluster_coalesce_before_after.json) drives a
# small-message workload -- vertex cache OFF so every remote adjacency
# rides the pull path, --pull-batch 64 so pulls fragment into many small
# frames, prefetch ON -- with transport send-coalescing off vs on, at
# --net-latency 0 and 1 ms. It records frames-per-syscall, the flush-cause
# breakdown and the bytes-per-flush histogram, cross-checks every digest
# against the same baseline, and fails unless coalescing cuts data-frame
# syscalls by at least 3x.
#
# Usage: tools/bench_cluster_latency.sh [build-dir] [out.json] [coalesce-out.json]
set -u -o pipefail

BUILD="${1:-./build}"
OUT="${2:-bench/cluster_latency_before_after.json}"
COALESCE_OUT="${3:-bench/cluster_coalesce_before_after.json}"
CLUSTER="$BUILD/qcm_cluster"
PROBE="$BUILD/steal_planner_probe"
for bin in "$CLUSTER" "$PROBE"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_cluster_latency: FAIL -- missing binary $bin" >&2
    exit 1
  fi
done

# Large enough that each run lasts a few hundred ms and sends ~10k fabric
# messages -- the overlap-ratio sampling is noise on toy runs.
GRAPH="--gen-planted n=60000,communities=120,size=10..14,density=0.95"
PARAMS="--gamma 0.85 --min-size 8 --workers 3 --threads 2"
LATENCIES=(0 0.001 0.005)

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

baseline_digest=""
rows=""

for mode in before after; do
  if [[ "$mode" == "before" ]]; then
    # The pre-sched-layer policies: no prefetch stage, flat steal batches
    # (max factor 1 disables latency scaling).
    extra="--steal-batch-factor 1"
  else
    extra="--prefetch --steal-batch-factor 8"
  fi
  for lat in "${LATENCIES[@]}"; do
    json="$workdir/${mode}_${lat}.json"
    out=$($CLUSTER $GRAPH $PARAMS --net-latency "$lat" $extra \
          --stats-json "$json" --log-dir "$workdir/logs_${mode}_${lat}" \
          2>&1)
    status=$?
    if [[ $status -ne 0 ]]; then
      echo "bench_cluster_latency: FAIL -- qcm_cluster exited $status" \
        "(mode=$mode latency=$lat)" >&2
      printf '%s\n' "$out" >&2
      exit 1
    fi
    digest=$(printf '%s\n' "$out" |
      sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
    if [[ -z "$baseline_digest" ]]; then
      baseline_digest="$digest"
    elif [[ "$digest" != "$baseline_digest" ]]; then
      echo "bench_cluster_latency: FAIL -- digest $digest (mode=$mode," \
        "latency=$lat) != baseline $baseline_digest" >&2
      exit 1
    fi
    wall=$(printf '%s\n' "$out" |
      sed -n 's/^[0-9]* maximal quasi-cliques in \([0-9.]*\) s$/\1/p' |
      tail -1)
    row=$(python3 - "$json" "$mode" "$lat" "$digest" "$wall" <<'EOF'
import json, sys
path, mode, lat, digest, wall = sys.argv[1:6]
doc = json.load(open(path))
merged = doc["merged"]
c = merged["counters"]
ranks = []
for r in doc["ranks"]:
    rc = r["counters"]
    ranks.append({
        "busy_seconds": round(r["total_busy_seconds"], 6),
        "tasks_completed": rc["tasks_completed"],
        "stolen_tasks": rc["stolen_tasks"],
        "steal_events": rc["steal_events"],
        "prefetch_tasks": rc["prefetch_tasks"],
        "first_schedule_pins": rc["first_schedule_pins"],
    })
se, st = c["steal_events"], c["stolen_tasks"]
row = {
    "mode": mode,
    "net_latency_sec": float(lat),
    "digest": digest,
    "wall_seconds": float(wall),
    "overlap_ratio": merged["derived"]["message_overlap_ratio"],
    "busy_imbalance": merged["derived"]["busy_imbalance"],
    "mean_delivery_latency_sec":
        merged["derived"]["mean_delivery_latency_sec"],
    "steal_events": se,
    "stolen_tasks": st,
    "avg_steal_batch": round(st / se, 3) if se else 0.0,
    "prefetch_tasks": c["prefetch_tasks"],
    "prefetch_issued": c["prefetch_issued"],
    "prefetch_hits": c["prefetch_hits"],
    "first_schedule_pins": c["first_schedule_pins"],
    "ranks": ranks,
}
print(json.dumps(row))
EOF
)
    if [[ -z "$row" ]]; then
      echo "bench_cluster_latency: FAIL -- could not digest $json" >&2
      exit 1
    fi
    rows="$rows$row"$'\n'
    echo "bench_cluster_latency: $mode latency=$lat digest=$digest OK"
  done
done

planner_sweep=$("$PROBE" 16 8)

rows_file="$workdir/rows.jsonl"
printf '%s' "$rows" > "$rows_file"
python3 - "$OUT" "$planner_sweep" "$rows_file" <<'EOF'
import json, sys
out_path, planner = sys.argv[1], json.loads(sys.argv[2])
rows = [json.loads(line) for line in open(sys.argv[3]) if line.strip()]
doc = {
    "bench": "cluster_latency_before_after",
    "description": (
        "3-process qcm_cluster over real loopback sockets, sweeping "
        "--net-latency; 'before' = no prefetch + flat steal batches, "
        "'after' = spawn-time prefetch + latency-aware steal planning. "
        "All digests bit-identical. planner_rtt_sweep shows the planner's "
        "batch caps growing with link RTT (larger, rarer batches)."
    ),
    "runs": rows,
    "planner_rtt_sweep": planner,
}
json.dump(doc, open(out_path, "w"), indent=2)
print(f"bench_cluster_latency: wrote {out_path} ({len(rows)} runs)")
EOF
status=$?
if [[ $status -ne 0 ]]; then exit $status; fi

# ---------------------------------------------------------------------------
# Coalescing sweep: small-message workload, transport aggregation off vs on.
# ---------------------------------------------------------------------------

# Cache off + small pull chunks = the syscall-per-frame worst case the
# coalescing buffer exists to fix.
SMALLMSG="--cache-capacity 0 --pull-batch 64 --prefetch"
COALESCE_LATENCIES=(0 0.001)

crows=""
for mode in before after; do
  if [[ "$mode" == "before" ]]; then
    extra=""  # coalescing off: every data frame is its own writev
  else
    extra="--net-coalesce-bytes 1400 --net-linger-usec 100"
  fi
  for lat in "${COALESCE_LATENCIES[@]}"; do
    json="$workdir/coalesce_${mode}_${lat}.json"
    # Loopback walls at these run lengths are noisy; take the best of 3
    # repeats (every repeat still digest-checked) so the no-regression
    # gate below measures the transport, not the scheduler's dice.
    wall=""
    for rep in 1 2 3; do
      out=$($CLUSTER $GRAPH $PARAMS $SMALLMSG --net-latency "$lat" $extra \
            --stats-json "$json" \
            --log-dir "$workdir/logs_coalesce_${mode}_${lat}_${rep}" 2>&1)
      status=$?
      if [[ $status -ne 0 ]]; then
        echo "bench_cluster_latency: FAIL -- qcm_cluster exited $status" \
          "(coalesce mode=$mode latency=$lat rep=$rep)" >&2
        printf '%s\n' "$out" >&2
        exit 1
      fi
      digest=$(printf '%s\n' "$out" |
        sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
      if [[ "$digest" != "$baseline_digest" ]]; then
        echo "bench_cluster_latency: FAIL -- coalesce digest $digest" \
          "(mode=$mode latency=$lat rep=$rep) != baseline" \
          "$baseline_digest" >&2
        exit 1
      fi
      rep_wall=$(printf '%s\n' "$out" |
        sed -n 's/^[0-9]* maximal quasi-cliques in \([0-9.]*\) s$/\1/p' |
        tail -1)
      if [[ -z "$wall" ]] ||
         awk -v a="$rep_wall" -v b="$wall" 'BEGIN { exit !(a < b) }'; then
        wall="$rep_wall"
      fi
    done
    row=$(python3 - "$json" "$mode" "$lat" "$digest" "$wall" <<'EOF'
import json, sys
path, mode, lat, digest, wall = sys.argv[1:6]
doc = json.load(open(path))
merged = doc["merged"]
c = merged["counters"]
row = {
    "mode": mode,
    "net_latency_sec": float(lat),
    "digest": digest,
    "wall_seconds": float(wall),
    "data_frames": c["net_flush_frames"],
    "data_frame_syscalls": c["net_flushes"],
    "flushed_bytes": c["net_flush_bytes"],
    "frames_per_syscall": merged["derived"]["frames_per_flush"],
    "flush_causes": {
        "size": c["net_flush_size"],
        "linger": c["net_flush_linger"],
        "forced": c["net_flush_forced"],
        "direct": c["net_flush_direct"],
    },
    "mean_flush_park_usec": merged["derived"]["mean_flush_park_usec"],
    "mean_delivery_latency_sec":
        merged["derived"]["mean_delivery_latency_sec"],
    "flush_bytes_hist": merged["net_flush_bytes_hist"],
}
print(json.dumps(row))
EOF
)
    if [[ -z "$row" ]]; then
      echo "bench_cluster_latency: FAIL -- could not digest $json" >&2
      exit 1
    fi
    crows="$crows$row"$'\n'
    echo "bench_cluster_latency: coalesce $mode latency=$lat" \
      "digest=$digest OK"
  done
done

crows_file="$workdir/coalesce_rows.jsonl"
printf '%s' "$crows" > "$crows_file"
python3 - "$COALESCE_OUT" "$crows_file" <<'EOF'
import json, sys
out_path = sys.argv[1]
rows = [json.loads(line) for line in open(sys.argv[2]) if line.strip()]
by_key = {(r["mode"], r["net_latency_sec"]): r for r in rows}
reductions = {}
for lat in sorted({r["net_latency_sec"] for r in rows}):
    before, after = by_key[("before", lat)], by_key[("after", lat)]
    reductions[str(lat)] = round(
        before["data_frame_syscalls"] / after["data_frame_syscalls"], 3)
doc = {
    "bench": "cluster_coalesce_before_after",
    "description": (
        "3-process qcm_cluster over real loopback sockets on a "
        "small-message workload (vertex cache off, --pull-batch 64, "
        "prefetch on): 'before' = coalescing off (one writev per data "
        "frame), 'after' = --net-coalesce-bytes 1400 --net-linger-usec "
        "100. All digests bit-identical to the latency sweep's baseline; "
        "syscall_reduction = before/after data-frame syscalls per "
        "latency point."
    ),
    "runs": rows,
    "syscall_reduction": reductions,
}
json.dump(doc, open(out_path, "w"), indent=2)
print(f"bench_cluster_latency: wrote {out_path} ({len(rows)} runs)")
worst = min(reductions.values())
if worst < 3.0:
    print("bench_cluster_latency: FAIL -- coalescing cut data-frame "
          f"syscalls only {worst}x (< 3x)", file=sys.stderr)
    sys.exit(1)
zero = "0" if "0" in reductions else "0.0"
b0, a0 = by_key[("before", float(zero))], by_key[("after", float(zero))]
if a0["wall_seconds"] > b0["wall_seconds"] * 1.5:
    print("bench_cluster_latency: FAIL -- coalescing regressed wall at "
          f"latency 0: {b0['wall_seconds']}s -> {a0['wall_seconds']}s",
          file=sys.stderr)
    sys.exit(1)
EOF
