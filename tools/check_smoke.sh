#!/usr/bin/env bash
# Loud smoke check for CI: run qcm_mine on a planted-community graph and
# fail unless (a) it exits 0 and (b) its --stats output reports a nonzero
# maximal result count. A miner that silently finds nothing is as broken
# as one that crashes.
#
# If a qcm_cluster binary sits next to qcm_mine, the check also runs a
# real 3-process cluster (qcm_cluster + 3 forked qcm_worker ranks over
# loopback TCP) on the same graph and fails loudly unless every worker
# exits cleanly AND the cluster's result digest is bit-identical to the
# single-process run's. Worker logs land in QCM_SMOKE_LOG_DIR (default
# /tmp/qcm_smoke_logs) so CI can upload them when something breaks.
#
# Usage: tools/check_smoke.sh [path/to/qcm_mine] [extra miner flags...]
# Extra flags are appended to the miner invocation, e.g.
#   tools/check_smoke.sh ./build/qcm_mine --net-latency 0.002
# exercises the asynchronous CommFabric delivery path.
set -u -o pipefail

BIN="${1:-./build/qcm_mine}"
if [[ $# -gt 0 ]]; then shift; fi
if [[ ! -x "$BIN" ]]; then
  echo "check_smoke: FAIL -- miner binary not found/executable: $BIN" >&2
  exit 1
fi

out=$("$BIN" \
  --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
  --gamma 0.85 --min-size 8 --machines 2 --threads 2 --stats "$@" 2>&1)
status=$?
echo "$out"

if [[ $status -ne 0 ]]; then
  echo "check_smoke: FAIL -- qcm_mine exited with status $status" >&2
  exit 1
fi

# The final --stats line reads "N maximal quasi-cliques in X s".
count=$(printf '%s\n' "$out" |
  sed -n 's/^\([0-9][0-9]*\) maximal quasi-cliques in .*/\1/p' | tail -1)
if [[ -z "$count" ]]; then
  echo "check_smoke: FAIL -- no result-count line in --stats output" >&2
  exit 1
fi
if [[ "$count" -eq 0 ]]; then
  echo "check_smoke: FAIL -- miner reported 0 maximal quasi-cliques" >&2
  exit 1
fi

echo "check_smoke: OK -- $count maximal quasi-cliques"

# --stats also prints the process's peak RSS after the load and after the
# k-core step, so one run shows which phase set the engine line's peak.
memory_re='^memory: peak RSS [0-9]+\.[0-9] [KMGT]?B after load, [0-9]+\.[0-9] [KMGT]?B after k-core$'
if ! grep -qE "$memory_re" <<< "$out"; then
  echo "check_smoke: FAIL -- qcm_mine --stats printed no memory: line" >&2
  exit 1
fi

single_digest=$(printf '%s\n' "$out" |
  sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
if [[ -z "$single_digest" ]]; then
  echo "check_smoke: FAIL -- qcm_mine printed no result-digest line" >&2
  exit 1
fi

# ---- Scalar-kernel phase -----------------------------------------------
# --dense-threshold 0 forces the scalar CSR kernels everywhere; the
# hybrid dense/sparse kernel split must not change results by a bit.
# First make sure the default run actually exercised the dense path.
dense_tasks=$(printf '%s\n' "$out" |
  sed -n 's/^kernels: \([0-9][0-9]*\) dense .*/\1/p' | tail -1)
if [[ -z "$dense_tasks" || "$dense_tasks" -eq 0 ]]; then
  echo "check_smoke: FAIL -- default run mined 0 dense tasks (the" \
    "word-parallel kernels silently stopped engaging)" >&2
  exit 1
fi
scalar_out=$("$BIN" \
  --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
  --gamma 0.85 --min-size 8 --machines 2 --threads 2 --stats \
  --dense-threshold 0 "$@" 2>&1)
scalar_status=$?
echo "$scalar_out"

if [[ $scalar_status -ne 0 ]]; then
  echo "check_smoke: FAIL -- qcm_mine --dense-threshold 0 exited with" \
    "status $scalar_status" >&2
  exit 1
fi
scalar_digest=$(printf '%s\n' "$scalar_out" |
  sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
if [[ "$scalar_digest" != "$single_digest" ]]; then
  echo "check_smoke: FAIL -- scalar-kernel digest $scalar_digest !=" \
    "default digest $single_digest (dense and sparse kernels must be" \
    "bit-identical)" >&2
  exit 1
fi
echo "check_smoke: OK -- scalar-kernel digest matches" \
  "($dense_tasks dense tasks in the default run)"

# ---- 3-process cluster phase -------------------------------------------
# Same graph, same parameters: the multi-process deployment must mine the
# bit-identical maximal set (compared via the canonical result digest both
# tools print).
CLUSTER_BIN="$(dirname "$BIN")/qcm_cluster"
if [[ ! -x "$CLUSTER_BIN" ]]; then
  echo "check_smoke: NOTE -- $CLUSTER_BIN not built, skipping cluster phase"
  exit 0
fi

LOG_DIR="${QCM_SMOKE_LOG_DIR:-/tmp/qcm_smoke_logs}"
mkdir -p "$LOG_DIR"
cluster_out=$("$CLUSTER_BIN" \
  --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
  --gamma 0.85 --min-size 8 --workers 3 --threads 2 --stats \
  --log-dir "$LOG_DIR" "$@" 2>&1)
cluster_status=$?
echo "$cluster_out"

if [[ $cluster_status -ne 0 ]]; then
  echo "check_smoke: FAIL -- qcm_cluster exited with status $cluster_status" \
    "(worker logs in $LOG_DIR)" >&2
  exit 1
fi

cluster_digest=$(printf '%s\n' "$cluster_out" |
  sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
if [[ -z "$cluster_digest" ]]; then
  echo "check_smoke: FAIL -- qcm_cluster printed no result-digest line" >&2
  exit 1
fi
if [[ "$cluster_digest" != "$single_digest" ]]; then
  echo "check_smoke: FAIL -- cluster digest $cluster_digest !=" \
    "single-process digest $single_digest (worker logs in $LOG_DIR)" >&2
  exit 1
fi

echo "check_smoke: OK -- 3-process cluster digest matches ($cluster_digest)"

# The launcher packs only the input's k-core, renumbered to its own
# compact ids, so its packed line must count fewer vertices and fewer
# edges than the input graph has (the first phase's "graph:" line). Equal
# edge counts mean the reduction silently switched off; equal vertex
# counts mean the core kept the input's id space. Either would otherwise
# show only in the benchmark's time or peak RSS.
input_vertices=$(printf '%s\n' "$out" |
  sed -n 's/^graph: \([0-9][0-9]*\) vertices, [0-9][0-9]* edges$/\1/p' |
  head -1)
input_edges=$(printf '%s\n' "$out" |
  sed -n 's/^graph: [0-9][0-9]* vertices, \([0-9][0-9]*\) edges$/\1/p' |
  head -1)
packed_vertices=$(printf '%s\n' "$cluster_out" |
  sed -n 's/^qcm_cluster: packed .* (\([0-9][0-9]*\) vertices, .*/\1/p' |
  tail -1)
packed_edges=$(printf '%s\n' "$cluster_out" |
  sed -n 's/^qcm_cluster: packed .*, \([0-9][0-9]*\) edges) in .*/\1/p' |
  tail -1)
if [[ -z "$input_vertices" || -z "$input_edges" || -z "$packed_vertices" ||
      -z "$packed_edges" ]]; then
  echo "check_smoke: FAIL -- no input graph: line or no packed line" >&2
  exit 1
fi
if [[ "$packed_edges" -ge "$input_edges" ]]; then
  echo "check_smoke: FAIL -- launcher packed $packed_edges edges of the" \
    "input's $input_edges (the k-core reduction did not engage)" >&2
  exit 1
fi
if [[ "$packed_vertices" -ge "$input_vertices" ]]; then
  echo "check_smoke: FAIL -- launcher packed $packed_vertices vertices of" \
    "the input's $input_vertices (the k-core was not compacted)" >&2
  exit 1
fi
echo "check_smoke: OK -- launcher packed the k-core ($packed_vertices of" \
  "$input_vertices vertices, $packed_edges of $input_edges edges)"

# ---- Scalar-kernel cluster phase ---------------------------------------
# The same 3-process run with the dense kernels disabled must also land on
# the single-process digest: dense-default vs --dense-threshold 0 is the
# cross-process version of the kernel parity contract.
scalar_cluster_out=$("$CLUSTER_BIN" \
  --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
  --gamma 0.85 --min-size 8 --workers 3 --threads 2 --stats \
  --dense-threshold 0 --log-dir "$LOG_DIR" "$@" 2>&1)
scalar_cluster_status=$?
echo "$scalar_cluster_out"

if [[ $scalar_cluster_status -ne 0 ]]; then
  echo "check_smoke: FAIL -- --dense-threshold 0 qcm_cluster exited with" \
    "status $scalar_cluster_status (worker logs in $LOG_DIR)" >&2
  exit 1
fi
scalar_cluster_digest=$(printf '%s\n' "$scalar_cluster_out" |
  sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
if [[ "$scalar_cluster_digest" != "$single_digest" ]]; then
  echo "check_smoke: FAIL -- scalar-kernel cluster digest" \
    "$scalar_cluster_digest != single-process digest $single_digest" \
    "(worker logs in $LOG_DIR)" >&2
  exit 1
fi
echo "check_smoke: OK -- scalar-kernel cluster digest matches" \
  "($scalar_cluster_digest)"

# ---- Out-of-core snapshot phase ----------------------------------------
# Pack the same graph into a checksummed .qcsr snapshot (qcm_pack
# --verify re-reads every section), then mine it with an 8 KiB per-rank
# adjacency budget -- a small fraction of any rank's partition. The
# digest must stay bit-identical to the resident run while the budgeted
# list cache demonstrably evicts, and the --stats rollup must report the
# bounded aggregate peak RSS.
PACK_BIN="$(dirname "$BIN")/qcm_pack"
if [[ -x "$PACK_BIN" ]]; then
  SNAP="$LOG_DIR/smoke_graph.qcsr"
  pack_out=$("$PACK_BIN" \
    --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
    --seed 1 --page-size 4096 --verify --output "$SNAP" 2>&1)
  pack_status=$?
  echo "$pack_out"
  if [[ $pack_status -ne 0 ]]; then
    echo "check_smoke: FAIL -- qcm_pack exited with status $pack_status" >&2
    exit 1
  fi

  oocsr_out=$("$CLUSTER_BIN" \
    --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
    --gamma 0.85 --min-size 8 --workers 3 --threads 2 --stats \
    --snapshot "$SNAP" --graph-memory-budget 8192 \
    --log-dir "$LOG_DIR" "$@" 2>&1)
  oocsr_status=$?
  echo "$oocsr_out"
  if [[ $oocsr_status -ne 0 ]]; then
    echo "check_smoke: FAIL -- snapshot+budget qcm_cluster exited with" \
      "status $oocsr_status (worker logs in $LOG_DIR)" >&2
    exit 1
  fi
  oocsr_digest=$(printf '%s\n' "$oocsr_out" |
    sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
  if [[ "$oocsr_digest" != "$single_digest" ]]; then
    echo "check_smoke: FAIL -- snapshot+budget digest $oocsr_digest !=" \
      "single-process digest $single_digest (the budgeted list cache must" \
      "not change results; worker logs in $LOG_DIR)" >&2
    exit 1
  fi
  evictions=$(printf '%s\n' "$oocsr_out" |
    sed -n 's/^graph: .* \([0-9][0-9]*\) evictions.*/\1/p' | tail -1)
  if [[ -z "$evictions" || "$evictions" -eq 0 ]]; then
    echo "check_smoke: FAIL -- budgeted run reported no list evictions" \
      "(the budgeted list cache silently stopped engaging)" >&2
    exit 1
  fi
  peak_rss=$(printf '%s\n' "$oocsr_out" |
    sed -n 's/^graph: .*aggregate peak rss \(.*\)$/\1/p' | tail -1)
  echo "check_smoke: OK -- snapshot+budget cluster digest matches" \
    "($evictions evictions, aggregate peak rss ${peak_rss:-unknown})"
else
  echo "check_smoke: NOTE -- $PACK_BIN not built, skipping snapshot phase"
fi

# ---- Tracing-on cluster phase ------------------------------------------
# Same 3-process run with --trace-out: tracing must be invisible in the
# results (bit-identical digest) while producing ONE merged Perfetto-
# loadable timeline containing events from every rank plus the kStats
# counter tracks. The merged trace lands in $LOG_DIR for CI to upload.
# The run also writes --stats-json, which must parse as JSON: every rank
# and the merged report carry the same counter keys, the merged task
# count is the ranks' sum, and every fabric message left as exactly one
# data frame (frames == messages sent, at least one write per frame).
TRACE_OUT="$LOG_DIR/smoke_trace.json"
STATS_OUT="$LOG_DIR/smoke_stats.json"
trace_cluster_out=$("$CLUSTER_BIN" \
  --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
  --gamma 0.85 --min-size 8 --workers 3 --threads 2 --stats \
  --trace-out "$TRACE_OUT" --stats-interval-ms 100 \
  --stats-json "$STATS_OUT" --log-dir "$LOG_DIR" "$@" 2>&1)
trace_cluster_status=$?
echo "$trace_cluster_out"

if [[ $trace_cluster_status -ne 0 ]]; then
  echo "check_smoke: FAIL -- tracing-on qcm_cluster exited with status" \
    "$trace_cluster_status (worker logs in $LOG_DIR)" >&2
  exit 1
fi
trace_digest=$(printf '%s\n' "$trace_cluster_out" |
  sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
if [[ "$trace_digest" != "$single_digest" ]]; then
  echo "check_smoke: FAIL -- tracing-on digest $trace_digest !=" \
    "single-process digest $single_digest (tracing must not change" \
    "results; worker logs in $LOG_DIR)" >&2
  exit 1
fi
if [[ ! -s "$TRACE_OUT" ]]; then
  echo "check_smoke: FAIL -- tracing-on run produced no merged trace at" \
    "$TRACE_OUT" >&2
  exit 1
fi
if [[ ! -s "$STATS_OUT" ]]; then
  echo "check_smoke: FAIL -- tracing-on run wrote no --stats-json at" \
    "$STATS_OUT" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  if ! python3 - "$TRACE_OUT" <<'PYEOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
pids = {e["pid"] for e in events}
missing = [r for r in range(3) if r not in pids]
if missing:
    sys.exit(f"no trace events from ranks {missing}")
if not any(e["ph"] == "C" for e in events):
    sys.exit("no kStats counter tracks in the merged trace")
ts = [e["ts"] for e in events]
if ts != sorted(ts):
    sys.exit("merged trace timestamps are not monotone")
print(f"merged trace valid: {len(events)} events from pids {sorted(pids)}")
PYEOF
  then
    echo "check_smoke: FAIL -- merged trace $TRACE_OUT is invalid" >&2
    exit 1
  fi
  if ! python3 - "$STATS_OUT" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
ranks, merged = report["ranks"], report["merged"]
if len(ranks) != 3:
    sys.exit(f"{len(ranks)} rank reports, expected 3")
keys = set(merged["counters"])
for r, rank in enumerate(ranks):
    if set(rank["counters"]) != keys:
        sys.exit(f"rank {r} counter keys differ from merged: "
                 f"{sorted(set(rank['counters']) ^ keys)}")
total = sum(rank["counters"]["tasks_completed"] for rank in ranks)
if merged["counters"]["tasks_completed"] != total:
    sys.exit(f"merged tasks_completed {merged['counters']['tasks_completed']}"
             f" != ranks' sum {total}")
c = merged["counters"]
sent = sum(c["msg_sent_" + t]
           for t in ("pull_request", "pull_response", "steal_batch"))
if c["net_flush_frames"] != sent:
    sys.exit(f"net_flush_frames {c['net_flush_frames']} != {sent} fabric"
             " messages sent (each message must be one data frame)")
if c["net_flushes"] < c["net_flush_frames"]:
    sys.exit(f"net_flushes {c['net_flushes']} < net_flush_frames"
             f" {c['net_flush_frames']} (frames shared a write)")
print(f"stats json valid: 3 ranks, {len(keys)} counters, {total} tasks,"
      f" {sent} frames in {c['net_flushes']} writes")
PYEOF
  then
    echo "check_smoke: FAIL -- --stats-json $STATS_OUT is invalid" >&2
    exit 1
  fi
else
  # No python3: at least require the envelope and per-rank events.
  for r in 0 1 2; do
    if ! grep -q "\"pid\":$r," "$TRACE_OUT"; then
      echo "check_smoke: FAIL -- merged trace has no events from rank $r" >&2
      exit 1
    fi
  done
fi
ranks_left=$(ls "$TRACE_OUT".rank*.jsonl 2>/dev/null | wc -l)
if [[ "$ranks_left" -ne 0 ]]; then
  echo "check_smoke: FAIL -- $ranks_left trace fragments left behind" \
    "after the merge" >&2
  exit 1
fi
echo "check_smoke: OK -- tracing-on cluster digest matches, merged trace" \
  "at $TRACE_OUT, stats at $STATS_OUT"

# ---- Fault-injection phase ---------------------------------------------
# Same 3-process run, but the launcher SIGKILLs rank 1 once it is mid-
# mining (QCM_SMOKE_KILL_RANK env hook). The coordinator must detect the
# death, relaunch the rank, replay its checkpoint, and finish with the
# bit-identical digest -- recovery that loses or invents results is a
# correctness bug, not a flakiness problem.
fault_out=$(QCM_SMOKE_KILL_RANK=1 "$CLUSTER_BIN" \
  --gen-planted n=2000,communities=5,size=10..14,density=0.95 \
  --gamma 0.85 --min-size 8 --workers 3 --threads 2 --stats \
  --log-dir "$LOG_DIR" "$@" 2>&1)
fault_status=$?
echo "$fault_out"

if [[ $fault_status -ne 0 ]]; then
  echo "check_smoke: FAIL -- fault-injected qcm_cluster exited with status" \
    "$fault_status (worker logs in $LOG_DIR)" >&2
  exit 1
fi

# The kill must actually have fired AND been recovered from; a run where
# the injection silently no-ops would vacuously "pass" the digest check.
# grep reads a here-string, not a pipe: under pipefail, grep -q exiting at
# its match while printf still writes later lines kills printf with
# SIGPIPE and fails the check although the line is there.
if ! grep -q 'fault injection: SIGKILL rank 1' <<< "$fault_out"; then
  echo "check_smoke: FAIL -- fault injection never fired" \
    "(QCM_SMOKE_KILL_RANK=1 run printed no injection line)" >&2
  exit 1
fi
if ! grep -q 'rank 1 recovered: epoch 1' <<< "$fault_out"; then
  echo "check_smoke: FAIL -- rank 1 was killed but never recovered" \
    "(worker logs in $LOG_DIR)" >&2
  exit 1
fi

fault_digest=$(printf '%s\n' "$fault_out" |
  sed -n 's/^result-digest: \([0-9a-f]\{16\}\)$/\1/p' | tail -1)
if [[ "$fault_digest" != "$single_digest" ]]; then
  echo "check_smoke: FAIL -- fault-injected digest $fault_digest !=" \
    "single-process digest $single_digest (recovery lost or invented" \
    "results; worker logs in $LOG_DIR)" >&2
  exit 1
fi

echo "check_smoke: OK -- SIGKILL-rank-1 cluster digest matches" \
  "($fault_digest)"

# ---- Orphan check ------------------------------------------------------
# No qcm_worker may outlive its cluster: every worker sets
# PR_SET_PDEATHSIG and the launcher reaps replacements, so a survivor
# here is a process leak that would accumulate across CI runs.
if pgrep -x qcm_worker >/dev/null 2>&1; then
  echo "check_smoke: FAIL -- orphaned qcm_worker processes survived:" >&2
  pgrep -ax qcm_worker >&2
  exit 1
fi
echo "check_smoke: OK -- no orphaned qcm_worker processes"
