"""The benchmark's measured processes, each started fresh by ``run.py``.

Usage: ``python child.py {prime|search|server} '<json arguments>'``.
Each prints one JSON object as its last stdout line (``server`` prints a
``{"port": ...}`` line first and its report once stdin closes).
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BACKEND,
    TENANT,
    WORK,
    arena_segments,
    search_dataset,
    serve_inputs,
    tree_peak_rss_mb,
)

KERNEL_KINDS = (
    "newview", "evaluate", "derivative_sum", "derivative_core", "preorder",
    "edge_gradient",
)


def _require_compiled() -> dict:
    """Fail, rather than measure ``blocked``, when ``compiled`` would fall back."""
    warnings.filterwarnings(
        "error", message="compiled kernels unavailable", category=RuntimeWarning
    )
    from repro.core.ckernels.build import probe_status

    status = probe_status()
    if not status.available:
        raise SystemExit(f"compiled backend unavailable: {status.reason}")
    return {"compiler": status.compiler, "flags": list(status.flags)}


def _kernel_metrics(profile) -> dict:
    from repro.core.traversal import merged_kernel_key

    out = {f"kernel.{k}_{m}": 0.0 for k in KERNEL_KINDS for m in ("s", "calls", "bytes")}
    for kind, n in profile.calls.items():
        key = merged_kernel_key(kind)
        out[f"kernel.{key}_calls"] += n
        out[f"kernel.{key}_s"] += profile.seconds.get(kind, 0.0)
        out[f"kernel.{key}_bytes"] += profile.bytes_moved.get(kind, 0)
    return out


def _clock_metrics(clock) -> dict:
    return {
        "schedule.self_s": clock.self_s["schedule"],
        "engine.self_s": clock.self_s["engine"],
        "engine.lnl_calls": clock.calls["engine.lnl"],
        "engine.derivative_calls": clock.calls["engine.derivative"],
    }


def prime(_args: dict) -> dict:
    """Build (or find) the compiled kernels once, outside any timing."""
    toolchain = _require_compiled()
    from repro.core.ckernels.build import load_kernels, probe_status

    cached_before = set(probe_status().cached_objects)
    t0 = time.perf_counter()
    load_kernels(4, 4)
    build_s = time.perf_counter() - t0
    cold = set(probe_status().cached_objects) != cached_before
    record = WORK / "kernel_build.json"
    if cold or not record.exists():
        record.write_text(json.dumps(
            {"cold_build_s": build_s, "cold": cold, **toolchain}
        ))
    return json.loads(record.read_text())


def search(args: dict) -> dict:
    """One ML search in this fresh process; setup ends at the call."""
    _require_compiled()
    from repro.core.backends import get_backend
    from repro.search.raxml_light import SearchConfig, ml_search

    workers = int(args["workers"])
    sim = search_dataset(args["dataset"], args["sites"])
    backend = get_backend(BACKEND) if workers == 1 else BACKEND
    config = SearchConfig(seed=args["dataset"])

    clock, engines = None, []
    if args["trace"]:
        from layers import LayerClock, install_search_layers

        def leaf_seconds() -> float:
            if workers > 1:
                return sum(e.barrier_stats.region_seconds for e in engines)
            return sum(backend.profile.seconds.values())

        clock = LayerClock(leaf_seconds)
        install_search_layers(clock, engines)

    ready = time.time()
    if args.get("setup_only"):
        return {"ready": ready}
    cpu0 = os.times()
    t0 = time.perf_counter()
    with clock.span("search", "search.ml_search") if clock else nullcontext():
        result = ml_search(
            sim.alignment, config=config, backend=backend,
            workers=workers, execution="processes",
        )
    wall = time.perf_counter() - t0
    engine = result.engine
    out = {
        "ready": ready,
        "wall_s": wall,
        "lnl": repr(result.lnl),
        "newick": result.newick,
        "peak_rss_mb": tree_peak_rss_mb(os.getpid()),
    }
    if workers == 1:
        out["kernel_calls"] = sum(backend.profile.calls.values())
    if clock:
        out["layers"] = _search_layers(clock, engine, result, workers, backend)
    if workers > 1:
        engine.close()
    cpu1 = os.times()
    out["cpu_s"] = sum(cpu1[:4]) - sum(cpu0[:4])
    out["leaked_segments"] = arena_segments(os.getpid())
    if clock:
        traced_wall = time.time() - args["spawned"]
        out["layers"]["traced_wall_s"] = traced_wall
        acct = clock.account(traced_wall, out["layers"].pop("_leaf_total_s"))
        out["layers"]["outside_s"] = acct["outside_s"]
        out["layers"]["trace_residual_s"] = acct["residual_s"]
    return out


def _search_layers(clock, engine, result, workers, backend) -> dict:
    if workers > 1:
        stats = engine.barrier_stats  # read before the profile fetch's region
        parallel = {
            "parallel.regions": stats.regions,
            "parallel.region_s": stats.region_seconds,
            "parallel.compute_s": stats.compute_seconds,
            "parallel.overhead_s": stats.overhead_seconds,
            "parallel.max_region_s": stats.max_region_seconds,
        }
        leaf_total = stats.region_seconds
        profile = engine.profile
    else:
        parallel = dict.fromkeys(
            ("parallel.regions", "parallel.region_s", "parallel.compute_s",
             "parallel.overhead_s", "parallel.max_region_s"), 0.0)
        profile = backend.profile
        leaf_total = sum(profile.seconds.values())
    waves = engine.wave_stats
    tried = sum(r.moves_tried for r in result.spr_history)
    accepted = sum(r.moves_accepted for r in result.spr_history)
    return {
        **_kernel_metrics(profile),
        **_clock_metrics(clock),
        "schedule.waves": waves.waves,
        "schedule.wave_width_mean": waves.mean_width,
        "schedule.batched_ops": waves.batched_ops,
        "search.self_s": clock.self_s["search"],
        "search.start_tree_s": clock.span_s["search.start_tree"],
        "search.branch_opt_s": clock.span_s["search.branch_opt"],
        "search.model_opt_s": clock.span_s["search.model_opt"],
        "search.spr_s": clock.span_s["search.spr"],
        "search.spr_rounds": len(result.spr_history),
        "search.spr_accept_ratio": accepted / tried if tried else 0.0,
        **parallel,
        "_leaf_total_s": leaf_total,
    }


def server(args: dict) -> dict:
    """A warm placement server; reports its layers once stdin closes."""
    _require_compiled()
    from repro.core.backends import get_backend
    from repro.serve import PlacementServer

    reference, tree, _ = serve_inputs(args["seed"], args["sites"])
    backend = get_backend(BACKEND)
    srv = PlacementServer(port=0, backend=backend)
    try:
        srv.add_tenant(TENANT, reference, tree)
        clock = timer = None
        if args["trace"]:
            from layers import (
                CallTimer, LayerClock, install_placement_layers, patch,
            )

            clock = LayerClock(lambda: sum(backend.profile.seconds.values()))
            install_placement_layers(clock)
            timer = CallTimer()
            patch(PlacementServer, "place", timer.wrap)
            backend.profile.reset()
        print(json.dumps({"port": srv.port}), flush=True)
        sys.stdin.read()  # the orchestrator closes stdin when the load is done
        out = {"peak_rss_mb": tree_peak_rss_mb(os.getpid())}
        if clock:
            traced_wall = time.time() - args["spawned"]
            leaf_total = sum(backend.profile.seconds.values())
            acct = clock.account(traced_wall, leaf_total)
            out["layers"] = {
                **_kernel_metrics(backend.profile),
                **_clock_metrics(clock),
                "schedule.waves": clock.counts["waves"],
                "schedule.wave_width_mean": (
                    clock.counts["ops"] / clock.counts["waves"]
                    if clock.counts["waves"] else 0.0
                ),
                "schedule.batched_ops": clock.counts["batched_ops"],
                "epa.self_s": clock.self_s["epa"],
                "epa.queries": clock.counts["queries"],
                "traced_wall_s": traced_wall,
                "outside_s": acct["outside_s"],
                "trace_residual_s": acct["residual_s"],
                "_server_place_s": timer.total_s,
                "_server_requests": timer.calls,
                "_place_query_s": clock.counts["place_query_s"],
            }
        return out
    finally:
        srv.stop()


def main() -> int:
    mode, raw = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "{}"
    handler = {"prime": prime, "search": search, "server": server}[mode]
    print(json.dumps(handler(json.loads(raw))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
