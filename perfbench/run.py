#!/usr/bin/env python3
"""The extscc repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from this checkout's sources
(CMake, into $CARGO_TARGET_DIR or .bench_build), generates the workload's
input from --seed, runs it, checks every output, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs that make the
same calls as `extscc_tool solve` / `query` / `update`. --trace 1 makes one
untraced and one traced run and reports the per-layer metrics; the traced
run times each layer's public function from perfbench/solve.cc and
perfbench/serve.cc, never from inside src/.

Workloads, metrics and their reasons are in perfbench/WORKLOADS.md.
`--size toy` shrinks every workload for the smoke test (smoke_test.py).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")
STEP_TIMEOUT_S = 170

MIB = 1 << 20

# Each solve workload: web-graph nodes, memory budget M, scratch device
# model ("" = the tool's default posix device) and input graphs per run.
WORKLOADS = {
    "solve-contract": {"kind": "solve", "nodes": 1_000_000, "memory": 8 * MIB,
                       "device": "", "graphs": 1},
    "solve-semi": {"kind": "solve", "nodes": 500_000, "memory": 16 * MIB,
                   "device": "", "graphs": 5},
    "solve-slowdisk": {"kind": "solve", "nodes": 500_000, "memory": 4 * MIB,
                       "device": "throttled:100:256", "graphs": 1},
    "serve-mixed": {"kind": "serve", "nodes": 200_000, "batches": 1000,
                    "batch_size": 512, "update_every": 10,
                    "update_edges": 200},
}

# Toy sizes for the smoke test: same shapes (contraction levels on the
# contract and slow-disk workloads, none on semi) in a fraction of a second.
TOY = {
    "solve-contract": {"nodes": 20_000, "memory": 128 * 1024},
    "solve-semi": {"nodes": 10_000, "memory": 1 * MIB},
    "solve-slowdisk": {"nodes": 20_000, "memory": 128 * 1024,
                       "device": "throttled:20:2048"},
    "serve-mixed": {"nodes": 5_000, "batches": 40, "batch_size": 64,
                    "update_every": 10, "update_edges": 20},
}

SOLVE_SPANS = ["graph.load_text", "graph.sort_edges", "core.get_v",
               "core.get_e", "graph.node_diff", "core.expand",
               "graph.write_labels", "scc.semi"]
SERVE_SPANS = ["serve.run_batch", "dyn.apply_batch"]


class StepFailed(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds perfbench/ into the build directory.
    The compiler's temporary files go there too, not to /tmp."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env, timeout=600)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, env=env, timeout=880)
    return os.path.join(out, "perfbench")


def step(binary, work, args):
    """Runs one benchmark step in its own process, inside `work`; returns
    its JSON line.

    Peak RSS is kept a function of the engine's live memory, not of heap
    layout: with glibc's default dynamic mmap threshold, whether a freed
    multi-MiB sort buffer is returned to the kernel depends on where small
    allocations (path strings among them) landed, and the slow-disk
    solve's VmHWM jumps from 14.8 to 20.2 MB on some graph seeds. A fixed
    128 KiB threshold (glibc's initial value) maps every large buffer on
    its own; its effect on the times is measured in WORKLOADS.md. Paths
    handed to the step are short and relative (scratch under
    work/scratch) so they do not depend on where the checkout lives."""
    env = dict(os.environ, TMPDIR="scratch", MALLOC_MMAP_THRESHOLD_="131072")
    try:
        proc = subprocess.run([binary] + args, env=env, cwd=work,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise StepFailed(f"{args[0]} timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StepFailed(f"{args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def prepare(binary, work, nodes, seed, index=0, oracle=True):
    """Generates input graph `index` of the run (g<index>.txt in `work`)
    and, with `oracle`, its oracle fingerprint."""
    path = f"g{index}.txt"
    result = step(binary, work, ["prepare", f"--nodes={nodes}",
                                 f"--seed={seed}", f"--out={path}"]
                  + (["--oracle"] if oracle else []))
    result["path"] = path
    return result


# ---------------------------------------------------------------- solves

def run_solve(binary, work, cfg, input_path, trace=False):
    labels = os.path.join(work, "labels.txt")
    args = ["solve", f"--input={input_path}", "--labels=labels.txt",
            f"--memory={cfg['memory']}"]
    if cfg["device"]:
        args.append(f"--device-model={cfg['device']}")
    if trace:
        args.append("--trace")
    try:
        return step(binary, work, args)
    finally:
        if os.path.exists(labels):
            os.remove(labels)


def solve_ok(run, oracle):
    return (run is not None and run.get("ok") and run.get("labels_ok")
            and run.get("fingerprint") == oracle["fingerprint"]
            and run.get("label_nodes") == oracle["nodes"])


def graph_seed(seed, i):
    """Generator seed of a run's i-th input graph (the first is --seed)."""
    return seed + i * 1_000_003


def setup_solve(binary, work, cfg, seed):
    """Prepares the run's input graphs (cfg['graphs'] of them), each timed.
    setup_s is the median over the graphs."""
    samples, inputs = [], []
    for i in range(cfg["graphs"]):
        start = time.monotonic()
        inputs.append(prepare(binary, work, cfg["nodes"], graph_seed(seed, i),
                              i))
        samples.append(time.monotonic() - start)
    return inputs, statistics.median(samples)


def solve_end_to_end(binary, work, cfg, seed, seconds):
    inputs, setup_s = setup_solve(binary, work, cfg, seed)
    runs, attempted, failed = [], 0, 0
    measured = 0.0
    while True:
        oracle = inputs[attempted % len(inputs)]
        attempted += 1
        start = time.monotonic()
        try:
            run = run_solve(binary, work, cfg, oracle["path"])
        except StepFailed as e:
            log(str(e))
            run = None
        measured += time.monotonic() - start
        if solve_ok(run, oracle):
            runs.append(run)
        else:
            failed += 1
        log(f"solve of {oracle['path']}: "
            f"{'ok' if solve_ok(run, oracle) else 'FAILED'}"
            + (f", {run['levels']} levels, {run['block_ios']} block I/Os, "
               f"{run['wall_s']:.2f} s" if run else ""))
        # Whole rounds only: every input graph is solved equally often, so
        # the medians are taken over the same graphs however fast the
        # machine is. Another round follows while under --seconds and
        # predicted to end within 1.5x --seconds.
        if attempted % len(inputs) == 0:
            rounds = attempted // len(inputs)
            if measured >= seconds or measured * (rounds + 1) / rounds > (
                    1.5 * seconds):
                break

    def med(key):
        return statistics.median(r[key] for r in runs) if runs else 0.0

    sccs = [r["scc_s"] for r in runs] or [0.0]
    # Text edges in to SCCs known. The load alone would be a separate
    # quantity, but one load per run spread 23-26 % across seeds on the
    # reference machine (WORKLOADS.md), at the bound.
    ingests = [r["load_s"] + r["scc_s"] for r in runs] or [0.0]
    metrics = {
        "edges_per_s": statistics.median(
            r["edges"] / r["wall_s"] for r in runs) if runs else 0.0,
        "cpu_s": med("cpu_s"),
        "block_ios": med("block_ios"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * statistics.median(sccs),
        "latency_tail_ms": 1e3 * max(sccs),
        "ingest_p50_ms": 1e3 * statistics.median(ingests),
        "ingest_tail_ms": 1e3 * max(ingests),
    }
    return attempted, failed, metrics


def solve_trace(binary, work, cfg, seed):
    oracle = prepare(binary, work, cfg["nodes"], seed)
    attempted, failed = 2, 0
    plain = traced = None
    try:
        plain = run_solve(binary, work, cfg, oracle["path"])
    except StepFailed as e:
        log(str(e))
    try:
        traced = run_solve(binary, work, cfg, oracle["path"], trace=True)
    except StepFailed as e:
        log(str(e))
    if not solve_ok(plain, oracle):
        failed += 1
    if not traced or not traced.get("ok"):
        failed += 1
        return attempted, failed, {}
    # A divergence between the traced re-drive and RunExtScc is reported
    # (trace.ios_match / trace.labels_match = 0), never failed on.
    span_ios = sum(traced.get(f"{s}.ios", 0) for s in SOLVE_SPANS
                   if s not in ("graph.load_text", "graph.write_labels"))
    metrics = {f"{s}.{k}": traced.get(f"{s}.{k}", 0)
               for s in SOLVE_SPANS for k in ("s", "cpu_s", "ios")}
    metrics.update({
        "core.get_v.cover_ratio": traced["cover_ratio"],
        "core.get_v.type2_skips": traced["type2_skips"],
        "core.get_e.edge_ratio": traced["edge_ratio"],
        "core.get_e.added_edges": traced["added_edges"],
        "core.levels": traced["levels"],
        "scc.semi.rounds": traced["semi_rounds"],
        "scc.semi.edge_scans": traced["semi_edge_scans"],
        "scc.semi.nodes": traced["semi_nodes"],
        "io.wait_s": traced["wall_s"] - traced["cpu_s"],
        "io.random_ios": traced["random_ios"],
        "io.bytes_moved": traced["bytes_moved"],
        "trace.ios_match": int(plain is not None
                               and traced["block_ios"] == plain["block_ios"]),
        "trace.labels_match": int(
            plain is not None
            and traced.get("fingerprint") == plain.get("fingerprint")
            and traced.get("fingerprint") == oracle["fingerprint"]),
        "trace.overhead": (traced["wall_s"] / plain["wall_s"] - 1.0)
                          if plain else 0.0,
        "trace.span_sum_s": traced["span_sum_s"],
        "trace.total_s": traced["wall_s"],
        "trace.outside_ios": traced["block_ios"] - span_ios,
    })
    return attempted, failed, metrics


# ---------------------------------------------------------------- serve

def run_serve(binary, work, cfg, input_path, seed, trace=False):
    args = ["serve", f"--input={input_path}", "--work=.",
            f"--seed={seed}", f"--batches={cfg['batches']}",
            f"--batch-size={cfg['batch_size']}",
            f"--update-every={cfg['update_every']}",
            f"--update-edges={cfg['update_edges']}"]
    if trace:
        args.append("--trace")
    return step(binary, work, args)


def serve_setup(binary, work, cfg, seed):
    start = time.monotonic()
    path = prepare(binary, work, cfg["nodes"], seed, oracle=False)["path"]
    return path, time.monotonic() - start


def serve_end_to_end(binary, work, cfg, seed):
    path, gen_s = serve_setup(binary, work, cfg, seed)
    try:
        s = run_serve(binary, work, cfg, path, seed)
    except StepFailed as e:
        log(str(e))
        return 1, 1, {}
    metrics = {
        "edges_per_s": s["inserted_edges"] / s["update_s"]
                       if s["update_s"] > 0 else 0.0,
        "cpu_s": s["cpu_s"],
        "block_ios": s["block_ios"],
        "peak_rss_mb": s["peak_rss_mb"],
        "setup_s": gen_s + s["setup_s"],
        "latency_p50_ms": s["query_p50_ms"],
        # p95: the p99 of 1,000 batches swung 7.7-14.8 ms between
        # back-to-back sessions on the reference machine (WORKLOADS.md);
        # it is reported per-layer.
        "latency_tail_ms": s["query_p95_ms"],
        "ingest_p50_ms": s["update_p50_ms"],
        "ingest_tail_ms": s["update_p90_ms"],
    }
    log(f"{s['queries_per_s']:.0f} queries/s, {s['rewrites']} rewrites, "
        f"replay_ok={s['replay_ok']} artifact_ok={s['artifact_ok']}")
    if not s["rss_reset"]:
        log("the kernel refused /proc/self/clear_refs: peak_rss_mb "
            "includes setup")
    return s["attempted"], s["failed"], metrics


def serve_trace(binary, work, cfg, seed):
    path, _ = serve_setup(binary, work, cfg, seed)
    plain = traced = None
    try:
        plain = run_serve(binary, work, cfg, path, seed)
        traced = run_serve(binary, work, cfg, path, seed, trace=True)
    except StepFailed as e:
        log(str(e))
    if plain is None or traced is None:
        return 2, 2, {}
    batches = max(1, cfg["batches"])
    updates = max(1, traced["update_samples"])
    span_ios = sum(traced.get(f"{s}.ios", 0) for s in SERVE_SPANS)
    metrics = {f"{s}.{k}": traced.get(f"{s}.{k}", 0)
               for s in SERVE_SPANS + ["graph.load_text"]
               for k in ("s", "cpu_s", "ios")}
    metrics.update({
        "serve.swept_blocks_per_batch": traced["swept_blocks"] / batches,
        "serve.probe_spill_runs": traced["probe_spill_runs"],
        "serve.queries_per_s": traced["queries_per_s"],
        "serve.query_p99_ms": traced["query_p99_ms"],
        "app.labels.dfs_fallback_ratio":
            traced["dfs_fallbacks"] / max(1, traced["reach_queries"]),
        "dyn.batch_ios": traced["dyn_batch_ios"],
        "dyn.rewrite_ratio": traced["rewrites"] / updates,
        "dyn.swept_blocks": traced["dyn_swept_blocks"],
        "io.wait_s": traced["session_s"] - traced["cpu_s"],
        "io.random_ios": traced["random_ios"],
        "io.bytes_moved": traced["bytes_moved"],
        "trace.ios_match": int(traced["block_ios"] == plain["block_ios"]),
        "trace.labels_match": int(traced["replay_ok"]
                                  and traced["artifact_ok"]),
        "trace.overhead": traced["session_s"] / plain["session_s"] - 1.0,
        "trace.span_sum_s": sum(traced.get(f"{s}.s", 0)
                                for s in SERVE_SPANS),
        "trace.total_s": traced["session_s"],
        "trace.outside_ios": traced["block_ios"] - span_ios,
    })
    return (plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics)


# ---------------------------------------------------------------- main

def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        sys.exit(1)
    cfg = dict(WORKLOADS[args.workload])
    if args.size == "toy":
        cfg.update(TOY[args.workload])
    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(os.path.join(work, "scratch"), exist_ok=True)
    try:
        if cfg["kind"] == "serve":
            run = serve_trace if args.trace else serve_end_to_end
            attempted, failed, values = run(binary, work, cfg, args.seed)
        elif args.trace:
            attempted, failed, values = solve_trace(binary, work, cfg,
                                                    args.seed)
        else:
            attempted, failed, values = solve_end_to_end(
                binary, work, cfg, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
