"""Execution-plan scheduling: wave-batched kernel dispatch.

The planner (:func:`repro.core.traversal.levelize`) folds a traversal
descriptor into an :class:`~repro.core.traversal.ExecutionPlan` of
dependency *waves*; this module executes such plans.  The
:class:`PlanExecutor` is the single dispatch loop shared by every engine
flavour: for each wave it prepares the kernel operands
(:meth:`LikelihoodEngine._prepare_op`), hands the whole wave to the
backend — as **one stacked call** when the backend implements the
optional ``newview_batch`` method, falling back to a per-op loop
otherwise — and stores the results.  The per-op path of the pre-IR
engine survives only as that fallback, exactly as BEAGLE's
``updatePartials`` hides whether an implementation consumes its
operation queue one entry or one batch at a time.

Every executed wave is measured (:class:`WaveProfile`: width, kernel
mix, seconds, bytes) and folded into the executor's :class:`WaveStats`,
the quantity :mod:`repro.perf.trace` attaches to kernel traces so the
analytic cost model can separate serial-depth cost (one per wave) from
parallel-width cost (one per op).

:func:`fuse_plans` merges per-partition plans into one cross-partition
schedule (used by :class:`repro.core.partitioned.PartitionedEngine`),
so a multi-gene evaluation exposes a single wave sequence instead of
per-partition dribbles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from .backends import CLA_SPECS
from .traversal import ExecutionPlan, KernelKind, NewviewOp, Wave

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from .engine import LikelihoodEngine

__all__ = [
    "NewviewCall",
    "dispatch_call",
    "dispatch_wave",
    "WaveProfile",
    "WaveStats",
    "PlanExecutor",
    "FusedWave",
    "FusedPlan",
    "fuse_plans",
    "execute_lockstep",
]

#: Backend method name per CLA-producing kernel kind, read from the
#: kernel table.  Post-order ``newview`` and pre-order partial kinds
#: share argument signatures (the arithmetic is identical; only the
#: counted kind differs), so one table serves both sweep directions.
NEWVIEW_METHODS: dict[KernelKind, str] = {
    kind: spec.method for kind, spec in CLA_SPECS.items()
}


@dataclass(frozen=True)
class NewviewCall:
    """One prepared kernel invocation: an op plus its ready operands.

    ``op`` is the plan op the call realises — a
    :class:`~repro.core.traversal.NewviewOp` on the down-sweep, a
    :class:`~repro.core.traversal.PreorderOp` on the gradient up-sweep.
    ``args`` matches the positional signature of the backend method named
    by :data:`NEWVIEW_METHODS` for ``kind``.  Operand arrays obtained
    from the engine's per-plan preparation cache are *shared* between
    calls with equal branch lengths — which is what lets a batching
    backend group same-edge-length ops by operand identity.
    """

    op: "NewviewOp | object"
    kind: KernelKind
    args: tuple


def dispatch_call(backend, call: NewviewCall):
    """Run one prepared ``newview`` through the backend (per-op path)."""
    return getattr(backend, NEWVIEW_METHODS[call.kind])(*call.args)


def dispatch_wave(
    backend, calls: Sequence[NewviewCall], batch: bool = True
) -> list:
    """Dispatch one wave of mutually independent calls.

    If ``batch`` is set and the backend provides the optional
    ``newview_batch`` method, the whole wave goes down in one stacked
    call; otherwise (and for single-op waves, where stacking cannot pay)
    each call is dispatched individually — the retained per-op path.
    Returns ``(z, scale)`` per call, in call order.
    """
    if batch and len(calls) > 1:
        stacked = getattr(backend, "newview_batch", None)
        if stacked is not None:
            return list(stacked(calls))
    return [dispatch_call(backend, call) for call in calls]


# ----------------------------------------------------------------------
# wave measurement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaveProfile:
    """Measurement of one executed wave."""

    index: int
    width: int
    kernel_mix: dict[str, int]
    seconds: float
    bytes_moved: int
    batched: bool


@dataclass
class WaveStats:
    """Running totals over every wave an executor has run.

    ``plans``/``waves``/``ops`` count executed plans (non-empty only),
    their waves and ops; ``max_width`` is the widest wave seen (the
    exploitable batch/thread parallelism); ``batched_ops`` counts ops
    that went through a stacked ``newview_batch`` dispatch;
    ``seconds``/``bytes_moved`` accumulate wall time and backend traffic
    attributed to wave execution.  Like the kernel counters, the totals
    are **cumulative across runs** — call :meth:`reset` (or
    ``engine.reset_profile()``) for per-run numbers.

    ``last_plan`` holds the per-wave profiles of the most recent plan.
    Drivers that call :meth:`PlanExecutor.run_wave` directly (fork-join
    lock-step, distributed replay) never pass through
    :meth:`PlanExecutor.execute`'s clear, so the list is additionally
    capped at :data:`LAST_PLAN_CAP` entries (oldest dropped) to keep
    long-running parallel searches from growing it without bound.
    """

    #: Upper bound on retained :class:`WaveProfile` entries in ``last_plan``.
    LAST_PLAN_CAP = 512

    plans: int = 0
    waves: int = 0
    ops: int = 0
    max_width: int = 0
    batched_ops: int = 0
    seconds: float = 0.0
    bytes_moved: int = 0
    kernel_mix: dict[str, int] = field(default_factory=dict)
    last_plan: list[WaveProfile] = field(default_factory=list)

    @property
    def mean_width(self) -> float:
        return self.ops / self.waves if self.waves else 0.0

    def record(self, profile: WaveProfile) -> None:
        self.waves += 1
        self.ops += profile.width
        self.max_width = max(self.max_width, profile.width)
        if profile.batched:
            self.batched_ops += profile.width
        self.seconds += profile.seconds
        self.bytes_moved += profile.bytes_moved
        for kind, n in profile.kernel_mix.items():
            self.kernel_mix[kind] = self.kernel_mix.get(kind, 0) + n
        self.last_plan.append(profile)
        if len(self.last_plan) > self.LAST_PLAN_CAP:
            del self.last_plan[: -self.LAST_PLAN_CAP]

    def merge(self, other: "WaveStats") -> "WaveStats":
        """Fold another executor's stats into this one (in place)."""
        self.plans += other.plans
        self.waves += other.waves
        self.ops += other.ops
        self.max_width = max(self.max_width, other.max_width)
        self.batched_ops += other.batched_ops
        self.seconds += other.seconds
        self.bytes_moved += other.bytes_moved
        for kind, n in other.kernel_mix.items():
            self.kernel_mix[kind] = self.kernel_mix.get(kind, 0) + n
        return self

    def reset(self) -> None:
        self.plans = 0
        self.waves = 0
        self.ops = 0
        self.max_width = 0
        self.batched_ops = 0
        self.seconds = 0.0
        self.bytes_moved = 0
        self.kernel_mix.clear()
        self.last_plan.clear()

    def to_dict(self) -> dict:
        """JSON-ready summary (attached to kernel traces)."""
        return {
            "plans": self.plans,
            "waves": self.waves,
            "ops": self.ops,
            "max_width": self.max_width,
            "mean_width": self.mean_width,
            "batched_ops": self.batched_ops,
            "seconds": self.seconds,
            "bytes_moved": self.bytes_moved,
            "kernel_mix": dict(self.kernel_mix),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WaveStats":
        stats = cls(
            plans=int(d.get("plans", 0)),
            waves=int(d.get("waves", 0)),
            ops=int(d.get("ops", 0)),
            max_width=int(d.get("max_width", 0)),
            batched_ops=int(d.get("batched_ops", 0)),
            seconds=float(d.get("seconds", 0.0)),
            bytes_moved=int(d.get("bytes_moved", 0)),
        )
        stats.kernel_mix = {
            str(k): int(v) for k, v in d.get("kernel_mix", {}).items()
        }
        return stats


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class PlanExecutor:
    """Executes :class:`ExecutionPlan` waves through an engine's backend.

    Owned by the engine (``engine.executor``); parallel drivers
    (fork-join, distributed, partitioned) call :meth:`run_wave` directly
    to interleave their own synchronisation accounting between waves.

    ``batch`` selects stacked dispatch (the default); with ``batch=False``
    every wave runs through the per-op loop — the pre-IR behaviour,
    retained as the fallback and as the baseline the scheduler benchmark
    compares against.
    """

    def __init__(self, engine: "LikelihoodEngine", batch: bool = True) -> None:
        self.engine = engine
        self.batch = batch
        self.stats = WaveStats()

    def execute(self, plan: ExecutionPlan) -> None:
        """Run a whole plan, wave by wave."""
        if not plan.waves:
            return
        self.stats.plans += 1
        self.stats.last_plan.clear()
        self.engine._prep_cache.clear()
        with _obs.span("plan", waves=len(plan.waves), ops=plan.n_ops):
            for wave in plan.waves:
                self.run_wave(wave)

    def run_wave(self, wave: Wave) -> None:
        """Run one wave and record its :class:`WaveProfile`."""
        if not wave.ops:
            return
        moved = self.engine.backend.profile.bytes_moved
        b0 = sum(moved.values())
        t0 = time.perf_counter()
        self.engine._run_ops(wave.ops, batch=self.batch)
        elapsed = time.perf_counter() - t0
        b1 = sum(moved.values())
        mix = wave.kernel_mix()
        batched = (
            self.batch
            and wave.width > 1
            and getattr(self.engine.backend, "newview_batch", None) is not None
            and any(k.newview_like or k.preorder_like for k in mix)
        )
        self.stats.record(
            WaveProfile(
                index=wave.index,
                width=wave.width,
                kernel_mix={k.value: n for k, n in mix.items()},
                seconds=elapsed,
                bytes_moved=b1 - b0,
                batched=batched,
            )
        )
        if _obs.ENABLED:
            _obs.get_tracer().add_complete(
                "wave",
                t0,
                t0 + elapsed,
                args={
                    "wave": wave.index,
                    "width": wave.width,
                    "batched": batched,
                },
            )
            reg = _obs_metrics.get_registry()
            reg.counter("repro_waves_total", "executed waves").inc()
            reg.histogram(
                "repro_wave_width",
                "ops per executed wave",
                bounds=_obs_metrics.log_buckets(1.0, 4096.0, per_decade=3),
            ).observe(wave.width)
            reg.histogram(
                "repro_wave_seconds", "wall seconds per wave"
            ).observe(elapsed)


# ----------------------------------------------------------------------
# cross-partition fusion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedWave:
    """One cross-partition wave: same-level waves of several plans."""

    index: int
    parts: tuple[tuple[int, Wave], ...]  # (partition index, wave)

    @property
    def width(self) -> int:
        return sum(w.width for _, w in self.parts)


@dataclass
class FusedPlan:
    """Per-partition plans merged into one levelized schedule.

    Wave ``k`` of the fused plan holds wave ``k`` of every partition
    plan deep enough to have one; all its ops remain mutually
    independent (partitions never share CLAs), so the fused wave is the
    batching/synchronisation unit for multi-gene evaluation.
    """

    waves: list[FusedWave] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.waves)

    @property
    def n_ops(self) -> int:
        return sum(w.width for w in self.waves)

    @property
    def max_width(self) -> int:
        return max((w.width for w in self.waves), default=0)


def fuse_plans(plans: Iterable[ExecutionPlan]) -> FusedPlan:
    """Merge per-partition plans level-by-level into one schedule."""
    plans = list(plans)
    depth = max((p.depth for p in plans), default=0)
    fused = FusedPlan()
    for k in range(depth):
        parts = tuple(
            (i, p.waves[k]) for i, p in enumerate(plans) if k < p.depth
        )
        if parts:
            fused.waves.append(FusedWave(index=k, parts=parts))
    return fused


# ----------------------------------------------------------------------
# cross-engine lockstep (cross-query batching)
# ----------------------------------------------------------------------
def execute_lockstep(
    engines: Sequence["LikelihoodEngine"],
    plans: Sequence[ExecutionPlan],
    *,
    batch: bool = True,
) -> None:
    """Run one plan per engine in lockstep, fusing same-level waves.

    The cross-**query** analogue of :func:`fuse_plans`: where the
    partitioned engine fuses per-partition plans *inside* one engine,
    this fuses per-engine plans *across* engines sharing one backend
    instance — each fused level dispatches the concatenation of every
    engine's prepared calls as a single wave (one ``newview_batch`` call
    when the backend stacks).  The placement server uses it to turn N
    concurrent queries' per-candidate traversals into single dispatches.

    Bit-parity guarantee: per-call results are unchanged by the
    concatenation.  Stacking backends group calls by operand *identity*
    (each engine prepares its own operand arrays, so cross-engine calls
    never share a group), and the per-call fallback path is the same
    kernels either way — so every engine's CLAs come out bit-identical
    to running its plan alone through :meth:`PlanExecutor.execute`.

    Only down-sweep (``NewviewOp``) plans are supported; a plan carrying
    pre-order/gradient ops raises ``ValueError``.
    """
    engines = list(engines)
    plans = list(plans)
    if len(engines) != len(plans):
        raise ValueError(
            f"one plan per engine required ({len(engines)} engines, "
            f"{len(plans)} plans)"
        )
    if not engines:
        return
    backend = engines[0].backend
    for engine in engines[1:]:
        if engine.backend is not backend:
            raise ValueError(
                "lockstep execution needs every engine on the same backend "
                "instance (one stacked dispatch per fused level)"
            )
    live = [(e, p) for e, p in zip(engines, plans) if p.waves]
    if not live:
        return
    for _, plan in live:
        for wave in plan.waves:
            if any(not isinstance(op, NewviewOp) for op in wave.ops):
                raise ValueError(
                    "execute_lockstep fuses down-sweep (newview) plans only"
                )
    for engine, _ in live:
        engine._prep_cache.clear()
    depth = max(p.depth for _, p in live)
    with _obs.span(
        "plan.lockstep",
        engines=len(live),
        waves=depth,
        ops=sum(p.n_ops for _, p in live),
    ):
        for k in range(depth):
            groups = [
                (engine, plan.waves[k])
                for engine, plan in live
                if k < plan.depth and plan.waves[k].ops
            ]
            if not groups:
                continue
            t0 = time.perf_counter()
            calls: list[NewviewCall] = []
            for engine, wave in groups:
                calls.extend(engine._prepare_op(op) for op in wave.ops)
            results = dispatch_wave(backend, calls, batch=batch)
            pos = 0
            for engine, wave in groups:
                for op in wave.ops:
                    z, sc = results[pos]
                    engine._store_op(op, z, sc)
                    pos += 1
            elapsed = time.perf_counter() - t0
            if _obs.ENABLED:
                _obs.get_tracer().add_complete(
                    "lockstep_wave",
                    t0,
                    t0 + elapsed,
                    args={
                        "level": k,
                        "engines": len(groups),
                        "width": len(calls),
                    },
                )
                reg = _obs_metrics.get_registry()
                reg.counter(
                    "repro_crossquery_waves_total",
                    "fused cross-engine waves dispatched in lockstep",
                ).inc()
                reg.histogram(
                    "repro_crossquery_wave_width",
                    "calls per fused cross-engine wave",
                    bounds=_obs_metrics.log_buckets(1.0, 4096.0, per_decade=3),
                ).observe(len(calls))
