"""Per-layer self time from wrappers around calls into the program.

The traced run installs these wrappers in the benchmark's own processes;
nothing inside ``src/`` changes.  A wrapped call is a *span* of one
layer.  A span's self time is its duration minus the durations of the
spans it directly encloses, minus the time the *leaf* layer advanced
inside it outside any child span.  The leaf is a cumulative seconds
counter the program keeps itself: the kernel profile for a serial
engine, the measured barrier-region time for a process pool.

On one thread's timeline this gives the identity checked by the tests::

    sum(self_s.values()) + leaf_s + outside_s == wall_s

where ``leaf_s`` is the leaf time covered by top-level spans and
``outside_s`` is the wall time no top-level span covers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class _Frame:
    __slots__ = ("t0", "leaf0", "child_s", "child_leaf_s")

    def __init__(self, t0: float, leaf0: float) -> None:
        self.t0 = t0
        self.leaf0 = leaf0
        self.child_s = 0.0
        self.child_leaf_s = 0.0


class LayerClock:
    """Span stack on one thread, with self time summed per layer.

    The first thread that opens a top-level span owns the timeline;
    calls made on other threads run unmeasured.
    """

    def __init__(self, leaf_seconds=None, clock=time.perf_counter) -> None:
        self.leaf_seconds = leaf_seconds or (lambda: 0.0)
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.span_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_s = 0.0
        self.top_leaf_s = 0.0
        self._stack: list[_Frame] = []
        self._thread: int | None = None

    def _owns_timeline(self) -> bool:
        me = threading.get_ident()
        if self._thread is None and not self._stack:
            self._thread = me
        return self._thread == me

    @contextmanager
    def span(self, layer: str, name: str):
        """Time the enclosed block as one span of ``layer``."""
        if not self._owns_timeline():
            yield
            return
        frame = _Frame(self.clock(), self.leaf_seconds())
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            dur = self.clock() - frame.t0
            leaf = self.leaf_seconds() - frame.leaf0
            self.self_s[layer] += dur - frame.child_s - (leaf - frame.child_leaf_s)
            self.span_s[name] += dur
            self.calls[name] += 1
            if self._stack:
                parent = self._stack[-1]
                parent.child_s += dur
                parent.child_leaf_s += leaf
            else:
                self.top_s += dur
                self.top_leaf_s += leaf

    def wrap(self, layer: str, name: str, fn):
        """``fn`` with every call timed as a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)

        return wrapper

    def account(self, wall_s: float, leaf_total_s: float) -> dict:
        """The traced wall split into layers, with the check's residual.

        ``leaf_total_s`` is the leaf counter's advance over the whole
        traced window; leaf time spent outside every span shows up as
        a non-zero residual.
        """
        outside = wall_s - self.top_s
        residual = wall_s - (sum(self.self_s.values()) + leaf_total_s + outside)
        return {"outside_s": outside, "residual_s": residual}


def patch(owner, attr: str, wrapper_factory) -> None:
    """Replace ``owner.attr`` by ``wrapper_factory(original)``."""
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def install_engine_layers(clock: LayerClock) -> None:
    """Wrap the engine's public evaluation methods and plan execution."""
    from repro.core.engine import LikelihoodEngine
    from repro.parallel.forkjoin import ForkJoinEngine

    for cls in (LikelihoodEngine, ForkJoinEngine):
        patch(cls, "log_likelihood",
              lambda f: clock.wrap("engine", "engine.lnl", f))
        patch(cls, "branch_derivatives",
              lambda f: clock.wrap("engine", "engine.derivative", f))
        patch(cls, "all_branch_gradients",
              lambda f: clock.wrap("engine", "engine.derivative", f))

    def execute_plan(original):
        @functools.wraps(original)
        def wrapper(self, plan):
            before = self.wave_stats
            waves, ops, batched = before.waves, before.ops, before.batched_ops
            with clock.span("schedule", "schedule.execute_plan"):
                original(self, plan)
            after = self.wave_stats
            clock.counts["waves"] += after.waves - waves
            clock.counts["ops"] += after.ops - ops
            clock.counts["batched_ops"] += after.batched_ops - batched

        return wrapper

    patch(LikelihoodEngine, "execute_plan", execute_plan)


def install_search_layers(clock: LayerClock, engines: list) -> None:
    """Wrap the phases ``ml_search`` drives; collect the engines it builds."""
    import repro.search.raxml_light as rl

    for attr, name in (
        ("stepwise_addition_tree", "search.start_tree"),
        ("optimize_all_branches", "search.branch_opt"),
        ("optimize_model", "search.model_opt"),
        ("spr_search", "search.spr"),
    ):
        patch(rl, attr, lambda f, name=name: clock.wrap("search", name, f))

    def make_engine(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            engine = original(*args, **kwargs)
            engines.append(engine)
            return engine

        return wrapper

    patch(rl, "make_engine", make_engine)
    install_engine_layers(clock)


def install_placement_layers(clock: LayerClock) -> None:
    """Wrap EPA placement and the cross-query lockstep executor."""
    import repro.search.epa as epa

    def place(original):
        @functools.wraps(original)
        def wrapper(self, queries, **kwargs):
            t0 = time.perf_counter()
            with clock.span("epa", "epa.place"):
                result = original(self, queries, **kwargs)
            # Every query of a fused batch waits for the whole batch.
            clock.counts["place_query_s"] += (time.perf_counter() - t0) * len(queries)
            clock.counts["queries"] += len(queries)
            return result

        return wrapper

    def lockstep(original):
        @functools.wraps(original)
        def wrapper(engines, plans, **kwargs):
            depth = max((p.depth for p in plans), default=0)
            stacks = bool(engines) and hasattr(engines[0].backend, "newview_batch")
            for k in range(depth):
                width = sum(
                    len(p.waves[k].ops) for p in plans if k < p.depth
                )
                if width:
                    clock.counts["waves"] += 1
                    clock.counts["ops"] += width
                    if stacks and width > 1 and kwargs.get("batch", True):
                        clock.counts["batched_ops"] += width
            with clock.span("schedule", "schedule.lockstep"):
                return original(engines, plans, **kwargs)

        return wrapper

    patch(epa.PlacementSession, "place", place)
    patch(epa, "execute_lockstep", lockstep)
    install_engine_layers(clock)


class CallTimer:
    """Thread-safe duration totals for calls made on any thread."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0
        self._lock = threading.Lock()

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.total_s += dt
                    self.calls += 1

        return wrapper
