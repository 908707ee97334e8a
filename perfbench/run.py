"""The repository's end-to-end benchmark: serial ML search and placement
serving (see README.md in this directory).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {search,serve} \\
        --seed N --seconds S --trace {0,1} [--sites N]

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` also runs traced processes and reports per-layer self time.
The last stdout line is the result object; the line before it is a JSON
report with the host labels and the details behind each number.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CAPACITY_QPS,
    HERE,
    KEEP_BEST,
    LATENCY_LIMIT_S,
    LNL_TOLERANCE,
    OPEN_LOOP_QPS,
    PARITY_SAMPLES,
    ROOT,
    SEARCH_SITES,
    SERVE_SITES,
    SRC,
    TENANT,
    THREAD_VARS,
    TREE_BUDGET_S,
    WORK,
    arena_segments,
    dataset_ids,
    load_expected,
    proc_cpu_s,
    serve_inputs,
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "qps": "1/s",
}
PER_LAYER = {
    **{
        f"kernel.{kind}_{m}": unit
        for kind in ("newview", "evaluate", "derivative_sum", "derivative_core",
                     "preorder", "edge_gradient")
        for m, unit in (("s", "s"), ("calls", "count"), ("bytes", "B-computed"))
    },
    "schedule.self_s": "s",
    "schedule.waves": "count",
    "schedule.wave_width_mean": "ops",
    "schedule.batched_ops": "count",
    "engine.self_s": "s",
    "engine.lnl_calls": "count",
    "engine.derivative_calls": "count",
    "search.self_s": "s",
    "search.start_tree_s": "s",
    "search.branch_opt_s": "s",
    "search.model_opt_s": "s",
    "search.spr_s": "s",
    "search.spr_rounds": "count",
    "search.spr_accept_ratio": "ratio",
    "parallel.regions": "count",
    "parallel.region_s": "s",
    "parallel.compute_s": "s",
    "parallel.overhead_s": "s",
    "parallel.max_region_s": "s",
    "parallel.search_wall_s": "s",
    "epa.self_s": "s",
    "epa.queries": "count",
    "serve.queue_wait_s": "s",
    "serve.http_s": "s",
    "serve.batch_width_mean": "queries",
    "serve.batches": "count",
    "outside_s": "s",
    "traced_wall_s": "s",
    "trace_residual_s": "s",
    "cpu_wall_ratio": "ratio",
    "trace_overhead_s": "s",
    "loadgen.late_max_s": "s",
}
#: Setup is measured in at least this many fresh processes per run.
SETUP_SAMPLES = 3
#: Blocks the serve load alternates its open and closed loops in.
SERVE_BLOCKS = 5
#: Datasets searched untraced and traced by a traced ``search`` run.
TRACED_TREES = 2
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


class Run:
    """Attempted/failed bookkeeping and notes of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)
        print(f"FAILED: {what}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_CKERNEL_CACHE"] = str(WORK / "ckernels")
    env["REPRO_TUNE_CACHE"] = str(WORK / "tuning.json")
    return env


def spawn(mode: str, args: dict, **popen) -> tuple[subprocess.Popen, float]:
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode,
         json.dumps({**args, "spawned": spawned})],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(), **popen,
    )
    return proc, spawned


def run_child(mode: str, args: dict) -> dict:
    """Run one measured process to completion; its report plus its pid."""
    proc, spawned = spawn(mode, args)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} {args} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} {args} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["pid"], report["spawned"] = proc.pid, spawned
    return report


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it (nearest
    rank), but never below the median.

    Under 20 samples that rule falls below the median, and under 11 no
    percentile qualifies; the median is reported then.  The output
    records which percentile it was.
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = max(50, math.floor(100.0 * (n - 10) / n))
    if pct == 50:
        return 50.0, statistics.median(ordered)
    return float(pct), ordered[math.ceil(pct / 100.0 * n) - 1]


# -- search workloads -------------------------------------------------
def check_search(run: Run, report: dict, sites: int, dataset: int,
                 expected: dict) -> None:
    """Final lnL within LNL_TOLERANCE and RF 0 against the committed result."""
    from repro.phylo.tree import Tree

    exp = expected.get(f"{sites}:{dataset}")
    if exp is None:
        run.fail(f"dataset {dataset} at {sites} sites: no committed expected result")
        return
    delta = abs(float(report["lnl"]) - float(exp["lnl"]))
    if delta > LNL_TOLERANCE:
        run.fail(f"dataset {dataset}: lnL {report['lnl']} vs expected "
                 f"{exp['lnl']} (|delta| {delta:.3g} > {LNL_TOLERANCE})")
    rf = Tree.from_newick(report["newick"]).robinson_foulds(
        Tree.from_newick(exp["newick"]))
    if rf != 0:
        run.fail(f"dataset {dataset}: RF distance {rf} to the expected tree")
    leaked = report.get("leaked_segments", []) + arena_segments(report["pid"])
    if leaked:
        run.fail(f"dataset {dataset}: shared-memory segments left: {leaked}")


def search_child(run: Run, dataset: int, sites: int, workers: int,
                 trace: bool, expected: dict) -> dict | None:
    run.attempted += 1
    try:
        report = run_child("search", {
            "dataset": dataset, "sites": sites, "workers": workers,
            "trace": trace,
        })
    except ChildFailed as exc:
        run.fail(str(exc))
        return None
    report["setup_s"] = report["ready"] - report["spawned"]
    report["dataset"] = dataset
    check_search(run, report, sites, dataset, expected)
    return report


def extra_setups(setups: list[float], args: dict) -> None:
    """Top setup samples up to SETUP_SAMPLES with setup-only processes."""
    while len(setups) < SETUP_SAMPLES:
        report = run_child("search", {**args, "setup_only": True})
        setups.append(report["ready"] - report["spawned"])


def run_search(opts, run: Run) -> tuple[dict, dict]:
    sites = opts.sites or SEARCH_SITES
    expected = load_expected()
    count = max(1, round(opts.seconds / TREE_BUDGET_S))
    ids = dataset_ids(opts.seed, sites, expected, count)
    details: dict = {"datasets": ids, "sites": sites}

    if opts.trace:
        return trace_search(run, ids[:TRACED_TREES], sites, expected, details)

    t_start = time.perf_counter()
    passes: list[list[dict]] = []
    while True:
        t_pass = time.perf_counter()
        done = [r for d in ids
                if (r := search_child(run, d, sites, 1, False, expected))]
        if done:
            passes.append(done)
        pass_s = time.perf_counter() - t_pass
        if time.perf_counter() - t_start + pass_s > opts.seconds:
            break
    trees = [r for p in passes for r in p]
    if not trees:
        raise ChildFailed("no search completed")
    setups = [r["setup_s"] for r in trees]
    extra_setups(setups, {"dataset": ids[0], "sites": sites,
                          "workers": 1, "trace": False})
    walls = [r["wall_s"] for r in trees]
    pct, tail = tail_percentile(walls)
    details.update(passes=len(passes), trees=len(trees), setup_samples=setups,
                   tree_walls=walls, tree_cpus=[r["cpu_s"] for r in trees],
                   tail_percentile=pct, latency_samples=len(walls))
    # Means over every tree of the run: they integrate the host's slow
    # spells instead of landing on one side of them, as a median of a
    # few trees would.
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in trees),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in trees),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "qps": len(trees) / sum(walls),
    }
    return metrics, details


def trace_search(run: Run, ids: list[int], sites: int, expected: dict,
                 details: dict) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced serial searches of the same
    datasets, and one traced 2-process search for the parallel layer."""
    pairs = []
    for d in ids:
        plain = search_child(run, d, sites, 1, False, expected)
        traced = search_child(run, d, sites, 1, True, expected)
        if plain and traced:
            pairs.append((plain, traced))
    if not pairs:
        raise ChildFailed("no traced search completed")
    layers = {
        name: statistics.fmean(t["layers"].get(name, 0.0) for _, t in pairs)
        for name in PER_LAYER
    }
    layers["cpu_wall_ratio"] = statistics.fmean(
        p["cpu_s"] / p["wall_s"] for p, _ in pairs)
    layers["trace_overhead_s"] = statistics.fmean(
        t["wall_s"] - p["wall_s"] for p, t in pairs)

    serial = pairs[0][0]
    pooled = search_child(run, serial["dataset"], sites, 2, True, expected)
    if pooled:
        if (pooled["newick"], pooled["lnl"]) != (serial["newick"], serial["lnl"]):
            run.fail(f"dataset {serial['dataset']}: 2-process result differs "
                     f"from serial (lnL {pooled['lnl']} vs {serial['lnl']})")
        layers.update({k: v for k, v in pooled["layers"].items()
                       if k.startswith("parallel.")})
        layers["parallel.search_wall_s"] = pooled["wall_s"]
        details["pool_search_cpu_s"] = pooled["cpu_s"]
        details["pool_search_peak_rss_mb"] = pooled["peak_rss_mb"]
    details["traced_trees"] = len(pairs)
    return layers, details


# -- serve workload ---------------------------------------------------
class Server:
    """A placement server in its own process, started warm with one tenant."""

    def __init__(self, seed: int, sites: int, trace: bool) -> None:
        self.proc, spawned = spawn(
            "server", {"seed": seed, "sites": sites, "trace": trace},
            stdin=subprocess.PIPE,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise ChildFailed("server exited before listening")
            self.port = json.loads(line)["port"]
            deadline = time.time() + CHILD_TIMEOUT_S
            while self.get("/healthz")[0] != 200:
                if time.time() > deadline:
                    raise ChildFailed("server never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.time() - spawned

    def get(self, path: str) -> tuple[int, str]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def stop(self) -> dict:
        out, _ = self.proc.communicate(input="", timeout=CHILD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise ChildFailed(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class LoadGen:
    """One generator process, at most 2 connections (one per thread)."""

    CONNECTIONS = 2

    def __init__(self, port: int, queries: dict[str, str]) -> None:
        self.port = port
        self.queries = list(queries.items())
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def _request(self, conn, tag: str, i: int) -> dict:
        taxon, seq = self.queries[i % len(self.queries)]
        name = f"{taxon}-{tag}{i}"
        body = json.dumps({"queries": {name: seq}, "keep_best": KEEP_BEST})
        sent = time.perf_counter()
        try:
            conn.request("POST", f"/tenants/{TENANT}/place", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            status, text = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            status, text = 0, str(exc).encode()
        done = time.perf_counter()
        return {"name": name, "seq": seq, "status": status, "sent": sent,
                "done": done, "body": text}

    def _phase(self, tag: str, n: int, due) -> list[dict]:
        """Send ``n`` requests; ``due(i)`` is request i's send time or None."""
        counter = iter(range(n))
        out: list[dict] = []

        def worker() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=10 * LATENCY_LIMIT_S)
            try:
                while True:
                    with self._lock:
                        i = next(counter, None)
                    if i is None:
                        return
                    t_due = due(i)
                    if t_due is not None:
                        time.sleep(max(t_due - time.perf_counter(), 0.0))
                    rec = self._request(conn, tag, i)
                    rec["due"] = t_due if t_due is not None else rec["sent"]
                    with self._lock:
                        out.append(rec)
            finally:
                conn.close()

        threads = [threading.Thread(target=worker) for _ in range(self.CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.records.extend(out)
        return out

    def warmup(self, n: int = 2) -> None:
        self._phase("w", n, lambda i: None)

    def open_loop(self, n: int, rate: float, tag: str = "o") -> list[dict]:
        t0 = time.perf_counter() + 0.05
        return self._phase(tag, n, lambda i: t0 + i / rate)

    def closed_loop(self, n: int, tag: str = "c") -> tuple[list[dict], float]:
        t0 = time.perf_counter()
        out = self._phase(tag, n, lambda i: None)
        return out, max(r["done"] for r in out) - t0


def serve_load(run: Run, server: Server, queries: dict,
               open_s: float, closed_s: float) -> dict:
    """Warm-up, then the open-loop and closed-loop phases on one server.

    The phases alternate in up to SERVE_BLOCKS blocks, so that each
    spans the whole run rather than one half of the host's slow and
    fast spells.
    """
    n_open = max(12, round(OPEN_LOOP_QPS * open_s))
    n_closed = max(6, round(CAPACITY_QPS * closed_s))
    blocks = max(1, min(SERVE_BLOCKS, n_open // 10))
    gen = LoadGen(server.port, queries)
    gen.warmup()
    cpu0 = proc_cpu_s(server.proc.pid)
    t0 = time.perf_counter()
    opened, closed, closed_wall = [], [], 0.0
    for b in range(blocks):
        opened += gen.open_loop(n_open * (b + 1) // blocks - n_open * b // blocks,
                                OPEN_LOOP_QPS, f"o{b}-")
        out, wall = gen.closed_loop(
            n_closed * (b + 1) // blocks - n_closed * b // blocks, f"c{b}-")
        closed += out
        closed_wall += wall
    load_wall = time.perf_counter() - t0
    cpu = proc_cpu_s(server.proc.pid) - cpu0
    status, metrics_text = server.get("/metrics")
    run.attempted += n_open + n_closed
    for _ in range(n_open + n_closed - len(opened) - len(closed)):
        run.fail("a request was not completed by the load generator")
    for rec in opened + closed:
        latency = rec["done"] - rec["due"]
        if rec["status"] != 200:
            run.fail(f"request {rec['name']}: HTTP {rec['status']}")
        elif latency > LATENCY_LIMIT_S:
            run.fail(f"request {rec['name']}: {latency:.3f} s over the "
                     f"{LATENCY_LIMIT_S} s limit")
    return {
        "opened": opened, "closed": closed, "closed_wall": closed_wall,
        "load_wall": load_wall, "cpu_s": cpu, "records": gen.records,
        "metrics_text": metrics_text if status == 200 else "",
    }


def check_parity(run: Run, seed: int, sites: int, samples: list[dict]) -> None:
    """Sampled responses equal an offline ``place_queries`` (delta 0.0)."""
    from repro.phylo import GammaRates, gtr
    from repro.search.epa import place_queries, to_jplace

    reference, tree, _ = serve_inputs(seed, sites)
    for rec in samples:
        if rec["status"] != 200:
            continue  # already counted as a failed request
        offline = place_queries(
            reference, tree, {rec["name"]: rec["seq"]}, gtr(),
            GammaRates(1.0, 4), keep_best=KEEP_BEST, backend="compiled",
        )
        expected = json.loads(json.dumps(to_jplace(offline, tree)["placements"]))
        if json.loads(rec["body"])["placements"] != expected:
            run.fail(f"request {rec['name']}: served placement differs from "
                     "offline place_queries")


def histogram_sum_count(text: str, name: str) -> tuple[float, float]:
    """(sum, count) of one Prometheus histogram in an exposition text."""
    values = {}
    for line in text.splitlines():
        for suffix in ("_sum", "_count"):
            if line.startswith(f"{name}{suffix} "):
                values[suffix] = float(line.split()[1])
    return values.get("_sum", 0.0), values.get("_count", 0.0)


def run_serve(opts, run: Run) -> tuple[dict, dict]:
    sites = opts.sites or SERVE_SITES
    _, _, queries = serve_inputs(opts.seed, sites)
    scale = 0.5 if opts.trace else 1.0  # a traced run loads two servers
    open_s, closed_s = 0.5 * opts.seconds * scale, 0.3 * opts.seconds * scale
    details: dict = {"sites": sites, "open_loop_qps": OPEN_LOOP_QPS,
                     "connections": LoadGen.CONNECTIONS}

    setups = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES - 1):
            server = Server(opts.seed, sites, trace=False)
            setups.append(server.setup_s)
            server.stop()
    server = Server(opts.seed, sites, trace=False)
    try:
        setups.append(server.setup_s)
        load = serve_load(run, server, queries, open_s, closed_s)
        final = server.stop()
    except BaseException:
        server.kill()
        raise
    samples = load["opened"][:PARITY_SAMPLES - 1] + load["closed"][:1]
    check_parity(run, opts.seed, sites, samples)
    latencies = [r["done"] - r["due"] for r in load["opened"]]
    late = max(r["sent"] - r["due"] for r in load["opened"])
    pct, tail = tail_percentile(latencies)
    details.update(open_requests=len(load["opened"]),
                   closed_requests=len(load["closed"]),
                   tail_percentile=pct, latency_samples=len(latencies),
                   setup_samples=setups, loadgen_late_max_s=late,
                   open_latencies=latencies,
                   closed_latencies=[r["done"] - r["sent"] for r in load["closed"]])

    if not opts.trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": load["closed_wall"],
            "cpu_s": load["cpu_s"],
            "peak_rss_mb": final["peak_rss_mb"],
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "qps": len(load["closed"]) / load["closed_wall"],
        }, details

    server = Server(opts.seed, sites, trace=True)
    try:
        traced = serve_load(run, server, queries, open_s, closed_s)
        final = server.stop()
    except BaseException:
        server.kill()
        raise
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({k: v for k, v in final["layers"].items() if k in PER_LAYER})
    requests = final["layers"]["_server_requests"]
    server_s = final["layers"]["_server_place_s"]
    client_s = sum(r["done"] - r["sent"] for r in traced["records"])
    width_sum, batches = histogram_sum_count(
        traced["metrics_text"], f"repro_serve_{TENANT}_batch_queries")
    layers.update({
        "serve.queue_wait_s": (server_s - final["layers"]["_place_query_s"]) / requests,
        "serve.http_s": (client_s - server_s) / requests,
        "serve.batch_width_mean": width_sum / batches if batches else 0.0,
        "serve.batches": batches,
        "cpu_wall_ratio": load["cpu_s"] / load["load_wall"],
        "trace_overhead_s": traced["closed_wall"] - load["closed_wall"],
        "loadgen.late_max_s": late,
    })
    return layers, details


# -- host labels --------------------------------------------------------
def cpu_jiffies() -> tuple[int, int, int]:
    """(busy, steal, total) jiffies over all CPUs from /proc/stat."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal, sum(fields)


def host_labels(start: dict, wall_s: float) -> dict:
    import numpy as np

    busy, steal, total = cpu_jiffies()
    tick = os.sysconf("SC_CLK_TCK")
    ours = sum(os.times()[:4]) - start["own_cpu"]
    foreign = (busy - start["busy"]) / tick - ours
    steal_share = (steal - start["steal"]) / max(total - start["total"], 1)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    build_file = WORK / "kernel_build.json"
    build = json.loads(build_file.read_text()) if build_file.exists() else {}
    return {
        "loadavg_start": start["loadavg"],
        "loadavg_end": Path("/proc/loadavg").read_text().split()[:3],
        "steal_share": steal_share,
        "foreign_cpu_s": foreign,
        "contended": steal_share > 0.05 or foreign / max(wall_s, 1e-9) > 0.25,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "compiler": build.get("compiler"),
        "compiler_flags": build.get("flags"),
        "kernel_cold_build_s": build.get("cold_build_s"),
        "backend": "compiled",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("search", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sites", type=int, default=None,
                    help="override the alignment width (smoke tests)")
    opts = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ.update({k: child_env()[k] for k in
                       ("REPRO_CKERNEL_CACHE", "REPRO_TUNE_CACHE")})

    busy, steal, total = cpu_jiffies()
    start = {"busy": busy, "steal": steal, "total": total,
             "own_cpu": sum(os.times()[:4]),
             "loadavg": Path("/proc/loadavg").read_text().split()[:3]}
    t0 = time.perf_counter()
    run = Run()
    if not list((WORK / "ckernels").glob("plf_*.so")):
        run_child("prime", {})  # once per checkout, outside any timing
    if opts.workload == "serve":
        metrics, details = run_serve(opts, run)
    else:
        metrics, details = run_search(opts, run)
    wall = time.perf_counter() - t0

    units = PER_LAYER if opts.trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    report = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "run_wall_s": wall,
        "failed_share": run.failed / max(run.attempted, 1),
        "host": host_labels(start, wall), "details": details,
        "failures": run.notes,
    }
    (WORK / f"report-{opts.workload}-trace{opts.trace}.json").write_text(
        json.dumps({**report, "result": result}, indent=1))
    for name, m in result["metrics"].items():
        print(f"{opts.workload:>12}  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{opts.workload:>12}  {'failed_share':<28} "
          f"{report['failed_share']:>14.6g} ratio  "
          f"({run.failed}/{run.attempted})")
    if report["host"]["contended"]:
        print(f"{opts.workload:>12}  host contended: "
              f"steal {report['host']['steal_share']:.3f}, "
              f"foreign cpu {report['host']['foreign_cpu_s']:.2f} s")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
