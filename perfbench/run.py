#!/usr/bin/env python3
"""End-to-end benchmark of the qcm miner, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload sim_heavy --seed 1 --seconds 20 --trace 0

Run from the root of a qcm checkout. The first run builds the shipped CLIs
(qcm_mine, qcm_cluster, qcm_worker) and the benchmark's own layer driver
under $CARGO_TARGET_DIR (default .bench_build). Each run generates its
workload's graph from --seed, runs the CLI end to end on it with --input
until --seconds have passed, and checks every run's result digest against
the serial reference. The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK = BUILD / "work"

# Input graphs (GenPlantedCommunities specs) and their mining parameters.
# heavy: 160 disjoint 27-vertex communities at density 0.92, just above
#   gamma, on a power-law background with the vertex count of the paper's
#   YouTube graph. Only ~4.3k vertices survive the k-core; each of their
#   roots is a deep search tree that emits many candidates. Equal-size,
#   disjoint communities keep the work per seed steady (the chained,
#   variable-size YouTube-like registry recipe varied 2.4x in wall time
#   from seed to seed), and the large background keeps peak RSS from
#   tracking the seed-dependent candidate memory.
# wide: 3000 small near-cliques on 200k vertices: ~49k cheap roots, so ego
#   build and per-task overhead dominate.
GRAPHS = {
    "heavy": {"spec": "n=1134890,communities=160,size=27..27,density=0.92",
              "gamma": "0.9", "min_size": "18"},
    "wide": {"spec": "n=200000,communities=3000,size=14..16,density=0.97",
             "gamma": "0.9", "min_size": "12"},
}

COMMON_FLAGS = ["--tau-split", "100", "--tau-time", "0.01", "--mode", "time",
                "--stats-interval-ms", "0", "--log-level", "warning"]

# cli "mine" runs qcm_mine (simulated machines in one process); "cluster"
# runs qcm_cluster (one qcm_worker process per machine over loopback TCP).
# filter_passes: FilterMaximal calls the CLI makes on its raw candidates
# (qcm_mine: one inside ParallelMiner::Run and one in the tool).
WORKLOADS = {
    "sim_heavy": {"graph": "heavy", "cli": "mine", "filter_passes": 2,
                  "flags": ["--machines", "3", "--threads", "1"]},
    # 256 KiB adjacency budget per rank: well below each rank's share of
    # the ~5.6 MiB adjacency section, so the paged store evicts.
    "cluster_wide": {"graph": "wide", "cli": "cluster", "filter_passes": 1,
                     "flags": ["--workers", "3", "--threads", "1",
                               "--graph-memory-budget", "262144"]},
}

# The stderr line each CLI prints once its graph is ready to mine.
READY_MARK = {"mine": b"graph: ", "cluster": b"coordinator on"}

MIN_TIMED_RUNS = 3
RUN_TIMEOUT_S = 60.0
SPILL_GLOB = "/tmp/qcm_spill_*"  # the engine's fixed spill location
REFERENCE_KEYS = ("digest", "maximal", "vertices", "edges", "kcore_vertices")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def check(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          **kw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
        raise BenchError(f"command failed ({proc.returncode}): {cmd[0]}")
    return proc


def build():
    """Builds the CLIs and the layer driver; a no-op when up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a qcm checkout (no CMakeLists.txt "
                         "or src/)")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    qcm, driver = BUILD / "qcm", BUILD / "driver"
    if not (qcm / "CMakeCache.txt").is_file():
        check(["cmake", "-S", str(ROOT), "-B", str(qcm), *gen,
               "-DCMAKE_BUILD_TYPE=Release", "-DQCM_BUILD_TESTS=OFF",
               "-DQCM_BUILD_BENCHES=OFF", "-DQCM_BUILD_EXAMPLES=OFF"])
    check(["cmake", "--build", str(qcm), "-j", jobs, "--target", "qcm",
           "qcm_mine", "qcm_cluster", "qcm_worker"])
    if not (driver / "CMakeCache.txt").is_file():
        check(["cmake", "-S", str(BENCH_DIR / "driver"), "-B", str(driver),
               *gen, "-DCMAKE_BUILD_TYPE=Release",
               f"-DQCM_SOURCE_DIR={ROOT}",
               f"-DQCM_LIBRARY={qcm / 'libqcm.a'}"])
    check(["cmake", "--build", str(driver), "-j", jobs])
    return qcm, driver / "qcm_layer_driver"


def graph_key(name, seed):
    g = GRAPHS[name]
    recipe = f"{g['spec']}|{g['gamma']}|{g['min_size']}"
    return f"{name}-{hashlib.sha1(recipe.encode()).hexdigest()[:10]}-s{seed}"


def graph_file(driver, name, seed):
    """The workload graph as an edge list, generated once per recipe+seed."""
    path = WORK / "graphs" / f"{graph_key(name, seed)}.txt"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        check([str(driver), "gen", "--spec", GRAPHS[name]["spec"],
               "--seed", str(seed), "--out", str(tmp)])
        os.replace(tmp, path)
    return path


def run_layers(driver, name, seed, graph, filter_passes, pack):
    """Times each layer's public calls; also yields the serial reference."""
    g = GRAPHS[name]
    scratch = fresh_dir("layers")
    try:
        cmd = [str(driver), "layers", "--input", str(graph),
               "--gamma", g["gamma"], "--min-size", g["min_size"],
               "--filter-passes", str(filter_passes),
               "--output", str(scratch / "serial.txt")]
        if pack:
            cmd += ["--pack", str(scratch / "graph.qcsr")]
        out = check(cmd, timeout=90).stdout.decode()
        return json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def reference(driver, name, seed, graph, layers=None):
    """The serial reference for this graph and seed: committed for the
    default seed, otherwise cached under the build dir after one run."""
    key = graph_key(name, seed)
    committed = json.loads((BENCH_DIR / "reference.json").read_text())
    if key in committed:
        return committed[key]
    path = WORK / "refs" / f"{key}.json"
    if path.is_file():
        return json.loads(path.read_text())
    if layers is None:
        layers = run_layers(driver, name, seed, graph, 1, pack=False)
    ref = {k: layers[k] for k in REFERENCE_KEYS}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ref, sort_keys=True) + "\n")
    return ref


def fresh_dir(tag):
    path = WORK / "runs" / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def cli_command(qcm, wl, graph, run_dir, traced):
    g = GRAPHS[wl["graph"]]
    cmd = [str(qcm / ("qcm_mine" if wl["cli"] == "mine" else "qcm_cluster")),
           "--input", str(graph), "--gamma", g["gamma"],
           "--min-size", g["min_size"], *COMMON_FLAGS, *wl["flags"],
           "--output", str(run_dir / "result.txt")]
    if wl["cli"] == "cluster":
        cmd += ["--log-dir", str(run_dir / "logs"),
                "--checkpoint-dir", str(run_dir / "ckpt")]
    if traced:
        cmd += ["--trace-out", str(run_dir / "trace.json"),
                "--stats-json", str(run_dir / "stats.json")]
    return cmd


def run_once(qcm, wl, graph, expect, traced=False):
    """One CLI run in a fresh directory. Returns a sample dict; "ok" is
    False on a non-zero exit, a timeout, or a digest mismatch."""
    run_dir = fresh_dir("cli")
    spill_before = set(glob.glob(SPILL_GLOB))
    cmd = cli_command(qcm, wl, graph, run_dir, traced)
    mark = READY_MARK[wl["cli"]]
    sample = {"ok": False, "setup_s": None, "digest": None, "maximal": None}
    lines = []

    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            cwd=run_dir, start_new_session=True)

    def read_stderr():
        for line in proc.stderr:
            if sample["setup_s"] is None and mark in line:
                sample["setup_s"] = time.perf_counter() - t0
            lines.append(line)

    reader = threading.Thread(target=read_stderr)
    reader.start()
    timed_out = threading.Event()

    def on_timeout():
        timed_out.set()
        kill_group(proc.pid)

    timer = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    sample["wall_s"] = time.perf_counter() - t0
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)  # workers a failed launcher left behind
    reader.join()
    proc.stderr.close()

    sample["cpu_s"] = usage.ru_utime + usage.ru_stime
    sample["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB -> MiB
    for line in lines:
        text = line.decode(errors="replace")
        if text.startswith("result-digest: "):
            sample["digest"] = text.split()[1]
        elif "maximal quasi-cliques in" in text:
            sample["maximal"] = int(text.split()[0])
    result = run_dir / "result.txt"
    result_lines = -1
    if result.is_file():
        with result.open("rb") as f:
            result_lines = sum(1 for _ in f)
    if timed_out.is_set():
        sample["why"] = f"timeout after {RUN_TIMEOUT_S:.0f} s"
    elif proc.returncode != 0:
        sample["why"] = f"exit code {proc.returncode}"
    elif sample["digest"] != expect["digest"]:
        sample["why"] = (f"digest {sample['digest']} != reference "
                         f"{expect['digest']}")
    elif sample["maximal"] != expect["maximal"] or \
            result_lines != expect["maximal"]:
        sample["why"] = (f"{sample['maximal']} sets reported, {result_lines} "
                         f"written, reference {expect['maximal']}")
    elif sample["setup_s"] is None:
        sample["why"] = "no graph-ready line on stderr"
    else:
        sample["ok"] = True
    if not sample["ok"]:
        log(f"FAILED run: {sample['why']}")
        sys.stderr.write(b"".join(lines[-20:]).decode(errors="replace"))
    if traced and sample["ok"]:
        stats = json.loads((run_dir / "stats.json").read_text())
        sample["report"] = stats.get("merged", stats)
    shutil.rmtree(run_dir, ignore_errors=True)
    if not sample["ok"]:
        # A killed engine cannot remove its spill directory itself.
        for d in set(glob.glob(SPILL_GLOB)) - spill_before:
            shutil.rmtree(d, ignore_errors=True)
    return sample


def kill_group(pgid):
    """SIGKILLs the process group and waits until no member is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def host_info():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "loadavg": list(os.getloadavg())}


def median(samples, key):
    values = [s[key] for s in samples if s["ok"]]
    return statistics.median(values) if values else 0.0


def layer_metrics(wl, layers, traced, untraced_wall):
    """Per-layer breakdown from the layer driver and the traced run's
    EngineReport. The attributed layers are those the CLI runs back to
    back: its own graph-ready time (load, plus pack and open on the
    cluster), the engine, every maximality filter pass, and canonical
    emission; unaccounted_s is the rest of the traced run's wall time."""
    r = traced["report"]
    c = r["counters"]
    d = r["derived"]
    compers = max(1, len(r.get("threads", [])))
    engine_s = r["wall_seconds"]
    cluster = wl["cli"] == "cluster"
    attributed = (traced["setup_s"] + engine_s + layers["filter_s"] +
                  layers["emit_s"])
    mib = 1.0 / (1 << 20)
    m = {
        "graph.vertices": (layers["vertices"], "count"),
        "graph.edges": (layers["edges"], "count"),
        "graph.kcore_vertices": (layers["kcore_vertices"], "count"),
        "graph.load_s": (layers["load_s"], "s"),
        "graph.kcore_s": (layers["kcore_s"], "s"),
        "graph.pack_s": (layers["pack_s"] if cluster else 0.0, "s"),
        "graph.open_s": (layers["open_s"] if cluster else 0.0, "s"),
        "graph.ego_build_s": (layers["ego_build_s"], "s"),
        "graph.egos": (layers["egos"], "count"),
        "graph.page_ins": (c["graph_page_ins"], "count"),
        "graph.page_evictions": (c["graph_page_evictions"], "count"),
        "graph.fault_stall_s": (c["graph_fault_stall_usec"] * 1e-6, "s"),
        "quick.mine_s": (r["total_mining_seconds"], "s"),
        "quick.nodes": (c["mining_nodes_explored"], "count"),
        "quick.bitset_words": (c["mining_bitset_words_touched"], "count"),
        "quick.filter_s": (layers["filter_s"], "s"),
        "quick.raw_candidates": (c["mining_emitted"], "count"),
        "quick.maximal": (layers["maximal"], "count"),
        "quick.emit_s": (layers["emit_s"], "s"),
        "quick.serial_s": (layers["serial_s"], "s"),
        "mining.build_s": (r["total_build_seconds"], "s"),
        "mining.materialize_s": (r["total_materialize_seconds"], "s"),
        "mining.tasks": (c["tasks_completed"], "count"),
        "mining.big_tasks": (c["big_tasks"], "count"),
        "gthinker.engine_s": (engine_s, "s"),
        "gthinker.busy_s": (r["total_busy_seconds"], "s"),
        "gthinker.idle_s": (r["total_idle_seconds"], "s"),
        "gthinker.busy_imbalance": (d["busy_imbalance"], "ratio"),
        "gthinker.tail_s": (engine_s - r["total_busy_seconds"] / compers,
                            "s"),
        "gthinker.spilled_tasks": (c["spilled_tasks"], "count"),
        "gthinker.spill_mb": (c["spill_bytes_written"] * mib, "MiB"),
        "gthinker.pulled_vertices": (c["pulled_vertices"], "count"),
        "gthinker.pull_mb": (c["pull_bytes"] * mib, "MiB"),
        "gthinker.cache_hit_ratio": (d["cache_hit_ratio"], "ratio"),
        "gthinker.suspensions": (c["task_suspensions"], "count"),
        "gthinker.delivery_ms": (d["mean_delivery_latency_sec"] * 1e3, "ms"),
        "gthinker.overlap_ratio": (d["message_overlap_ratio"], "ratio"),
        "sched.stolen_tasks": (c["stolen_tasks"], "count"),
        "sched.steal_mb": (c["steal_bytes"] * mib, "MiB"),
        "sched.steal_active_s": (c["steal_active_usec"] * 1e-6, "s"),
        "net.flushes": (c["net_flushes"], "count"),
        "net.frames_per_flush": (d["frames_per_flush"], "ratio"),
        "net.flush_mb": (c["net_flush_bytes"] * mib, "MiB"),
        "net.park_ms": (d["mean_flush_park_usec"] * 1e-3, "ms"),
        "unaccounted_s": (traced["wall_s"] - attributed, "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(workload, seed, seconds, trace, reference_digest=None):
    """Runs one benchmark invocation; returns the result object."""
    wl = WORKLOADS[workload]
    qcm, driver = build()
    graph = graph_file(driver, wl["graph"], seed)
    layers = None
    if trace:
        layers = run_layers(driver, wl["graph"], seed, graph,
                            wl["filter_passes"], pack=wl["cli"] == "cluster")
    expect = dict(reference(driver, wl["graph"], seed, graph, layers))
    if reference_digest is not None:
        expect["digest"] = reference_digest
    layers_ok = layers is None or layers["digest"] == expect["digest"]
    if not layers_ok:
        log(f"serial digest {layers['digest']} != reference "
            f"{expect['digest']}")

    # The first run is a warm-up, checked but not timed. The first failure
    # ends the measurement, which keeps a broken build within the time
    # limit of one invocation.
    samples = [run_once(qcm, wl, graph, expect)]
    start = time.monotonic()
    while samples[-1]["ok"] and (len(samples) <= MIN_TIMED_RUNS or
                                 time.monotonic() - start < seconds):
        samples.append(run_once(qcm, wl, graph, expect))
    timed = samples[1:]
    traced = None
    if trace and samples[-1]["ok"]:
        traced = run_once(qcm, wl, graph, expect, traced=True)
        samples.append(traced)

    failed = sum(1 for s in samples if not s["ok"])
    record = {"workload": workload, "seed": seed, "trace": trace,
              "host": host_info(),
              "graph": {k: expect[k] for k in ("vertices", "edges",
                                               "kcore_vertices")},
              "samples": [{k: v for k, v in s.items() if k != "report"}
                          for s in samples]}
    if trace:
        metrics = (layer_metrics(wl, layers, traced, median(timed, "wall_s"))
                   if traced is not None and traced["ok"] else {})
        record["layers"] = layers
    else:
        units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                 "peak_rss_mb": "MiB"}
        metrics = {k: {"value": median(timed, k), "unit": u}
                   for k, u in units.items()}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    log(f"{workload} seed {seed}: {len(samples)} runs, {failed} failed, "
        f"host {record['host']}, graph {record['graph']}")
    return {"correct": failed == 0 and layers_ok and bool(metrics),
            "attempted": len(samples), "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
