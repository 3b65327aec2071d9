#!/usr/bin/env bash
# Out-of-core CSR snapshot bench: what the launcher-packed .qcsr snapshot
# costs a real 3-process qcm_cluster run on one planted graph, with and
# without a resident-adjacency budget:
#
#   after_mmap   launcher packs once, workers mmap the snapshot with no
#                adjacency budget (whole partition resident on demand).
#   after_budget same, plus --graph-memory-budget capped at <= 1/4 of a
#                rank's share of adjacency bytes: the rank mines a
#                partition LARGER than its adjacency budget, and the run
#                fails unless the pager reports evictions > 0.
#
# The budgeted run's digest must be bit-identical to the unbudgeted one --
# paging is a memory optimization, never a results change. Recorded per
# mode: end-to-end wall seconds, the slowest rank's graph-ready time,
# per-rank peak RSS, and the paged-store counters.
#
# Usage: tools/bench_oocsr.sh [build-dir] [out.json]
set -u -o pipefail

BUILD="${1:-./build}"
OUT="${2:-bench/oocsr_before_after.json}"
CLUSTER="$BUILD/qcm_cluster"
PACK="$BUILD/qcm_pack"
for bin in "$CLUSTER" "$PACK"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_oocsr: FAIL -- missing binary $bin" >&2
    exit 1
  fi
done

# Dense enough that adjacency dwarfs the page budget; small enough to
# finish fast in CI.
GRAPH_SPEC="n=20000,communities=40,size=16..24,density=0.9"
PARAMS="--gamma 0.85 --min-size 12 --workers 3 --threads 2 --seed 1"
WORKERS=3
PAGE=4096
BUDGET=16384  # 4 frames -- well under 1/4 of a rank's adjacency share

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

SNAP="$workdir/graph.qcsr"
pack_out=$("$PACK" --gen-planted "$GRAPH_SPEC" --seed 1 \
  --page-size "$PAGE" --verify --output "$SNAP" 2>&1)
if [[ $? -ne 0 ]]; then
  echo "bench_oocsr: FAIL -- qcm_pack failed" >&2
  printf '%s\n' "$pack_out" >&2
  exit 1
fi
echo "$pack_out"
edges=$(printf '%s\n' "$pack_out" |
  sed -n 's/^packed .* vertices, \([0-9]*\) edges.*/\1/p' | tail -1)
if [[ -z "$edges" ]]; then
  echo "bench_oocsr: FAIL -- cannot parse edge count from qcm_pack" >&2
  exit 1
fi
# u32 per directed adjacency entry, 2 entries per undirected edge.
adjacency_bytes=$((edges * 8))
per_rank_bytes=$((adjacency_bytes / WORKERS))
if [[ $((BUDGET * 4)) -gt "$per_rank_bytes" ]]; then
  echo "bench_oocsr: FAIL -- budget $BUDGET is not <= 1/4 of a rank's" \
    "adjacency share ($per_rank_bytes B); grow the graph" >&2
  exit 1
fi

baseline_digest=""
rows=""

for mode in after_mmap after_budget; do
  case "$mode" in
    after_mmap)   extra="--snapshot $SNAP" ;;
    after_budget) extra="--snapshot $SNAP --graph-page-size $PAGE
                         --graph-memory-budget $BUDGET" ;;
  esac
  json="$workdir/$mode.json"
  logs="$workdir/logs_$mode"
  out=$($CLUSTER --gen-planted "$GRAPH_SPEC" $PARAMS $extra --stats \
        --stats-json "$json" --log-dir "$logs" 2>&1)
  status=$?
  if [[ $status -ne 0 ]]; then
    echo "bench_oocsr: FAIL -- qcm_cluster exited $status (mode=$mode)" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi

  digest=$(printf '%s\n' "$out" |
    sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
  if [[ -z "$baseline_digest" ]]; then
    baseline_digest="$digest"
  elif [[ "$digest" != "$baseline_digest" ]]; then
    echo "bench_oocsr: FAIL -- digest $digest (mode=$mode) != baseline" \
      "$baseline_digest (out-of-core paging changed the results)" >&2
    exit 1
  fi

  wall=$(printf '%s\n' "$out" |
    sed -n 's/^[0-9]* maximal quasi-cliques in \([0-9.]*\) s$/\1/p' |
    tail -1)
  ready_max=$(sed -n 's/.*graph ready in \([0-9.]*\) s$/\1/p' \
    "$logs"/worker*.log 2>/dev/null | sort -g | tail -1)
  peaks=$(grep -o '"peak_rss_bytes": [0-9]*' "$json" |
    awk '{print $2}' | head -"$WORKERS" | paste -sd, -)
  page_ins=$(printf '%s\n' "$out" |
    sed -n 's/^graph: .* \([0-9]*\) page-ins.*/\1/p' | tail -1)
  evictions=$(printf '%s\n' "$out" |
    sed -n 's/^graph: .* \([0-9]*\) evictions.*/\1/p' | tail -1)
  stall_ms=$(printf '%s\n' "$out" |
    sed -n 's/^graph: .*fault stall \([0-9.]*\) ms.*/\1/p' | tail -1)

  if [[ "$mode" == "after_budget" ]]; then
    if [[ -z "$evictions" || "$evictions" -eq 0 ]]; then
      echo "bench_oocsr: FAIL -- budgeted run reported no evictions (the" \
        "partition must exceed the adjacency budget)" >&2
      exit 1
    fi
  fi

  [[ -n "$rows" ]] && rows+=","
  rows+=$(printf '
    {
      "mode": "%s",
      "digest": "%s",
      "wall_seconds": %s,
      "graph_ready_sec_slowest_rank": %s,
      "rank_peak_rss_bytes": [%s],
      "graph_page_ins": %s,
      "graph_page_evictions": %s,
      "graph_fault_stall_ms": %s
    }' "$mode" "$digest" "${wall:-0}" "${ready_max:-0}" "${peaks:-0}" \
       "${page_ins:-0}" "${evictions:-0}" "${stall_ms:-0}")
  echo "bench_oocsr: $mode digest=$digest wall=${wall}s" \
    "ready=${ready_max}s evictions=${evictions:-0}"
done

mkdir -p "$(dirname "$OUT")"
cat > "$OUT" <<EOF
{
  "bench": "oocsr_before_after",
  "description": "Real 3-process qcm_cluster on $GRAPH_SPEC: 'after_mmap' = launcher packs one .qcsr and workers mmap it, 'after_budget' = same plus a per-rank adjacency budget of $BUDGET bytes (<= 1/4 of a rank's adjacency share), forcing CLOCK page eviction mid-mining. Both digests bit-identical.",
  "graph_spec": "$GRAPH_SPEC",
  "page_size": $PAGE,
  "memory_budget_bytes": $BUDGET,
  "adjacency_bytes_total": $adjacency_bytes,
  "adjacency_bytes_per_rank": $per_rank_bytes,
  "digest": "$baseline_digest",
  "runs": [$rows
  ]
}
EOF
echo "bench_oocsr: OK -- wrote $OUT (digest $baseline_digest)"
