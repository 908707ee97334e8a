"""Tests of the benchmark itself: self-time arithmetic and tiny smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LayerClock  # noqa: E402
from run import tail_percentile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeTime:
    """A clock and a leaf counter that advance only when told to."""

    def __init__(self) -> None:
        self.now = 0.0
        self.leaf = 0.0

    def work(self, seconds: float, leaf: float = 0.0) -> None:
        self.now += seconds + leaf
        self.leaf += leaf


def test_self_time_sums_to_traced_wall():
    t = FakeTime()
    clock = LayerClock(lambda: t.leaf, clock=lambda: t.now)

    def engine_call():
        t.work(0.5, leaf=2.0)        # engine self 0.5, kernel 2.0

    def phase():
        t.work(1.0)                  # search self
        clock.wrap("engine", "engine.lnl", engine_call)()
        t.work(0.25, leaf=1.0)       # kernel time directly under search

    t.work(3.0)                      # outside any span (setup)
    with clock.span("search", "search.ml_search"):
        clock.wrap("search", "search.spr", phase)()
    t.work(0.5, leaf=0.75)           # kernel time outside every span
    acct = clock.account(wall_s=t.now, leaf_total_s=t.leaf)

    assert clock.self_s["search"] == pytest.approx(1.25)
    assert clock.self_s["engine"] == pytest.approx(0.5)
    assert clock.top_leaf_s == pytest.approx(3.0)
    assert clock.span_s["search.spr"] == pytest.approx(4.75)
    assert clock.calls["engine.lnl"] == 1
    assert acct["outside_s"] == pytest.approx(3.0 + 1.25)
    # the leaf time no span covers is exactly the residual
    assert acct["residual_s"] == pytest.approx(-0.75)
    total = sum(clock.self_s.values()) + clock.top_leaf_s + acct["outside_s"]
    assert total == pytest.approx(t.now)


def test_calls_on_other_threads_are_not_timed():
    import threading

    clock = LayerClock()
    with clock.span("epa", "epa.place"):
        thread = threading.Thread(
            target=clock.wrap("engine", "engine.lnl", lambda: None))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert clock.calls == {"epa.place": 1}


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert tail_percentile(values) == (90.0, 90.0)
    assert tail_percentile(values[:60]) == (83.0, 50.0)
    assert tail_percentile(values[:20]) == (50.0, 10.5)
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--sites", "200"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload,trace", [
    ("search", 0), ("search", 1), ("serve", 0), ("serve", 1),
])
def test_smoke(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in m.values()), m
        return
    # per-layer self times plus outside_s account for the traced wall
    leaf = sum(v for k, v in m.items() if k.startswith("kernel.") and k.endswith("_s"))
    selves = sum(m[f"{layer}.self_s"] for layer in ("search", "engine", "schedule", "epa"))
    assert selves + leaf + m["outside_s"] == pytest.approx(
        m["traced_wall_s"], rel=0.01)
    assert abs(m["trace_residual_s"]) <= 0.01 * m["traced_wall_s"]
    exercised = {"search": ("search.spr_s", "parallel.regions"),
                 "serve": ("serve.batches", "epa.queries")}[workload]
    assert all(m[name] > 0 for name in exercised), m


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("search", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
