"""One sliced parallel PLF engine under a pluggable sync policy (Sec. V-C/V-D).

Both of the paper's parallel codes split the alignment sites into
disjoint slices, one per worker, and run the same levelized traversal on
every slice; they differ only in *where they synchronise*.
:class:`SlicedEngine` owns everything they share and calls its policy —
:class:`~repro.parallel.forkjoin.ForkJoinSync` or
:class:`~repro.parallel.distributed.ExaMLSync` — at a wave boundary
(``boundary``), a kernel dispatch (``kernel``) and a finished reduction
(``reduce``).  ``execution`` selects the substrate:

``"simulated"``
    Worker slices run sequentially in the master; fork-join regions are
    charged the *modelled* cost of a
    :class:`~repro.parallel.pthreads.ForkJoinModel`.
``"threads"``
    A persistent thread pool runs each dispatch's slices concurrently
    (NumPy kernels release the GIL); every region's announcement and
    barrier cost is *measured* into
    :class:`~repro.parallel.pool.BarrierStats`.
``"processes"``
    A spawn-once :class:`~repro.parallel.pool.WorkerPool` over one
    shared-memory arena (zero-copy CLAs and result lanes), with
    worker-death degradation and measured barriers.

Every substrate reduces through full-length per-site lanes gathered in
pattern order, so log-likelihoods, branch derivatives and all-branch
gradients are **bit-identical** to the sequential engine for every
worker count and either policy.  ExaML's AllReduce over the per-rank
partials is accounting and fault injection only.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core.backends import KernelBackend, KernelProfile, get_backend, resolve_backend_name
from ..core.cat import CatLikelihoodEngine
from ..core.engine import LikelihoodEngine
from ..core.kernels import derivative_reduce
from ..core.schedule import WaveStats
from ..core.traversal import KernelCounters
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates, GammaRates, discrete_gamma_rates
from ..phylo.tree import Tree
from .distribute import SiteDistribution, distribute_block, distribute_cyclic
from .pool import BarrierStats, WorkerFailure, WorkerPool, WorkerRestart, slice_cat

__all__ = [
    "SlicedEngine",
    "EXECUTION_MODES",
    "WORKERS_ENV",
    "EXEC_ENV",
    "default_workers",
    "default_execution",
    "merged_backend_profile",
]

#: Supported execution substrates, cheapest first.
EXECUTION_MODES = ("simulated", "threads", "processes")

#: Environment variables consulted for process-wide parallel defaults
#: (mirrors ``REPRO_BACKEND`` for kernel backends).
WORKERS_ENV = "REPRO_WORKERS"
EXEC_ENV = "REPRO_EXEC"


def default_workers() -> int:
    """Process default worker count: ``$REPRO_WORKERS`` or 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from exc
    if n < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {n}")
    return n


def default_execution() -> str:
    """Process default execution mode: ``$REPRO_EXEC`` or ``simulated``."""
    raw = os.environ.get(EXEC_ENV, "").strip()
    if not raw:
        return EXECUTION_MODES[0]
    if raw not in EXECUTION_MODES:
        raise ValueError(
            f"{EXEC_ENV} must be one of {', '.join(EXECUTION_MODES)}; got {raw!r}"
        )
    return raw


def merged_backend_profile(engines) -> KernelProfile:
    """One profile over many engines without double counting.

    Engines sharing one backend *instance* (the simulated default)
    contribute that instance's profile exactly once — merging per-engine
    ``backend.profile`` naively would multiply every batched dispatch by
    the worker count.
    """
    merged = KernelProfile()
    seen: set[int] = set()
    for engine in engines:
        backend = engine.backend
        if id(backend) in seen:
            continue
        seen.add(id(backend))
        merged.merge(backend.profile)
    return merged


def _slice_patterns(patterns: PatternAlignment, idx: np.ndarray) -> PatternAlignment:
    """A worker-local pattern alignment over a subset of pattern columns."""
    return PatternAlignment(
        taxa=list(patterns.taxa),
        data=np.ascontiguousarray(patterns.data[:, idx]),
        weights=patterns.weights[idx].copy(),
        site_to_pattern=np.arange(idx.shape[0]),
        states=patterns.states,
    )


class SlicedEngine:
    """Master/worker PLF over disjoint site slices of one shared tree.

    All slices reference the *same* :class:`Tree` object, so their plans
    levelize identically and run in lock-step — mirroring ExaML, where
    every rank replays the identical sequence of topology and branch
    updates and tree state never needs to be communicated.  ``policy``
    prices the synchronisation (see the module docstring); its ``track``
    names the per-slice trace tracks (``thread-N`` or ``rank-N``).
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None,
        n_workers: int,
        policy,
        distribution: SiteDistribution | None = None,
        backend: str | KernelBackend | None = None,
        execution: str = "simulated",
        cat: CatRates | None = None,
        on_worker_failure: str = "degrade",
        start_method: str | None = None,
        label: str = "",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one {policy.track}")
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        if execution != "simulated" and not (
            backend is None or isinstance(backend, str)
        ):
            # Worker threads and processes build their own instances from
            # a registry *name*: translate a registered instance here.
            name = resolve_backend_name(backend)
            if name is None:
                raise ValueError(
                    f"execution={execution!r} requires a backend *name* (each "
                    "worker builds its own instance); got an unregistered "
                    f"{type(backend).__name__} instance"
                )
            backend = name
        if policy.mpi is not None and policy.mpi.n_ranks != n_workers:
            raise ValueError("SimMPI rank count mismatch")
        self.patterns = patterns
        self.tree = tree
        self.n_workers = n_workers
        self.policy = policy
        self.mpi = policy.mpi
        self.execution = execution
        self.cat = cat
        self._alpha = 1.0 if cat is not None else None
        self._model = model
        # The slice engines' default when no Gamma rates are given.
        self._rates = rates if rates is not None else GammaRates(1.0, 1)
        # Synchronisation accounting: fork-join regions (modelled or
        # measured), ExaML's free wave boundaries, rank-failure recovery.
        self.parallel_regions = 0
        self.sync_seconds = 0.0
        self.barrier_stats = BarrierStats()
        self.wave_boundaries = 0
        self.dead_ranks: set[int] = set()
        self.adoptions: dict[int, int] = {}
        self.rank_failures = 0
        self.recovery_seconds = 0.0
        self.pool: WorkerPool | None = None
        self._executor: ThreadPoolExecutor | None = None
        self.backend: KernelBackend | None = None
        self.workers: list = []

        split = distribute_block if execution == "processes" else distribute_cyclic
        self.distribution = distribution or split(patterns.n_patterns, n_workers)
        if self.distribution.n_workers != n_workers:
            raise ValueError("distribution worker count mismatch")
        self._slices = [self.distribution.indices_of(t) for t in range(n_workers)]

        if execution == "processes":
            self.pool = WorkerPool(
                patterns,
                tree,
                model,
                rates,
                n_workers=n_workers,
                backend=backend,
                cat=cat,
                on_worker_failure=on_worker_failure,
                distribution=self.distribution,
                start_method=start_method,
                label=label,
            )
            self.barrier_stats = self.pool.barrier_stats
            return
        if execution == "threads":
            # One instance per worker thread (scratch-carrying backends are
            # not safe to share); profiles merge at read time.
            backends = [get_backend(backend) for _ in range(n_workers)]
            self._executor = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="repro-fj"
            )
        else:
            # All slices share one backend instance, so the profile
            # aggregates the whole parallel workload.
            self.backend = get_backend(backend)
            backends = [self.backend] * n_workers
        for idx, worker_backend in zip(self._slices, backends):
            sliced = _slice_patterns(patterns, idx)
            if cat is not None:
                worker = CatLikelihoodEngine(
                    sliced, tree, model, slice_cat(cat, idx),
                    backend=worker_backend,
                )
            else:
                worker = LikelihoodEngine(
                    sliced, tree, model, rates, backend=worker_backend
                )
            self.workers.append(worker)

    # ------------------------------------------------------------------
    # substrates
    # ------------------------------------------------------------------
    def _dispatch(self, tasks: list) -> list:
        """Run one per-slice task list (``None`` idles a slice)."""
        if self._executor is not None:
            return self._threads_region(tasks)
        results = []
        for t, task in enumerate(tasks):
            with _obs.track_scope(f"{self.policy.track}-{self.owner_of(t)}"):
                results.append(task() if task is not None else None)
        return results

    def _threads_region(self, tasks: list) -> list:
        """Run one measured fork-join region on the thread pool.

        Records the measured region/compute times into
        :attr:`barrier_stats` and the measured announcement + barrier
        overhead into :attr:`sync_seconds`.
        """
        self.parallel_regions += 1
        t0 = time.perf_counter()
        worker_s, results = zip(*self._executor.map(_timed, tasks))
        region_s = time.perf_counter() - t0
        self.barrier_stats.record(region_s, worker_s)
        self.sync_seconds += max(region_s - max(worker_s, default=0.0), 0.0)
        if _obs.ENABLED:
            _obs.instant(
                "forkjoin_region",
                threads=self.n_workers,
                measured_us=region_s * 1e6,
            )
            _obs_metrics.get_registry().counter(
                "repro_forkjoin_regions_total",
                "fork-join parallel regions (two barriers each)",
            ).inc()
        return list(results)

    def _kernel(self, tasks: list) -> list:
        """One kernel dispatch over every slice."""
        self.policy.kernel(self)
        return self._dispatch(tasks)

    def _waves(self, plans: list, sweep: str) -> int:
        """Run per-slice plans wave by wave in lock-step; returns the depth."""
        depth = max((p.depth for p in plans), default=0)
        for k in range(depth):
            self.policy.boundary(self, k, sweep)
            self._dispatch([
                (lambda w=w, wave=p.waves[k]: w.executor.run_wave(wave))
                if k < p.depth else None
                for w, p in zip(self.workers, plans)
            ])
        return depth

    def _gather(self, parts: list) -> np.ndarray:
        """Per-slice arrays scattered into full-length lanes in pattern order."""
        parts = [np.asarray(p) for p in parts]
        lane = np.empty(parts[0].shape[:-1] + (self.patterns.n_patterns,))
        for idx, part in zip(self._slices, parts):
            lane[..., idx] = part
        return lane

    def _retry(self, fn):
        """Replay a pool operation across absorbed worker deaths.

        The pool absorbs a death by slice adoption and raises
        :class:`~repro.parallel.pool.WorkerRestart`; workers are
        deterministic, so the replay is exact.  Deaths are mirrored into
        the engine's rank accounting.
        """
        for _ in range(2 * self.n_workers + 1):
            try:
                out = fn()
            except WorkerRestart:
                for w in self.pool.dead:
                    if w not in self.dead_ranks:
                        self.dead_ranks.add(w)
                        self.rank_failures += 1
                    self.adoptions[w] = self.pool.owner_of(w)
                continue
            self.parallel_regions = self.pool.barrier_stats.regions
            self.sync_seconds = self.pool.barrier_stats.overhead_seconds
            return out
        raise WorkerFailure(-1, "too many worker restarts")

    def _broadcast(self, remote, local) -> None:
        """``remote()`` on the pool, else ``local(worker, slice)`` per slice."""
        if self.pool is not None:
            self._retry(remote)
            return
        for worker, idx in zip(self.workers, self._slices):
            local(worker, idx)

    def _pool_validate(self, root_edge: int) -> None:
        """One prepare + per-wave regions on the process pool (no retry:
        callers wrap the whole top-level op so replays re-prepare)."""
        depth = self.pool.prepare(self.tree.to_state(), root_edge)
        for k in range(depth):
            self.policy.boundary(self, k, "down")
            self.pool.run_wave(k)

    # ------------------------------------------------------------------
    # validity (wave execution)
    # ------------------------------------------------------------------
    def ensure_valid(self, root_edge: int) -> None:
        """Run the levelized plan on every slice, one boundary per wave.

        Workers pick up *whole waves*: each slice executes wave ``k``
        inside one dispatch instead of paying a sync per ``newview``
        call — the batching the execution-plan IR buys the fork-join
        scheme, and a free boundary under ExaML's.
        """
        if self.pool is not None:
            self._retry(lambda: self._pool_validate(root_edge))
            return
        self._waves([w.plan_execution(root_edge) for w in self.workers], "down")

    # ------------------------------------------------------------------
    # LikelihoodEngine-compatible surface
    # ------------------------------------------------------------------
    @property
    def rates_model(self) -> GammaRates:
        return self._rates

    @property
    def model(self) -> SubstitutionModel:
        return self._model

    @property
    def alpha(self) -> float | None:
        """CAT shape parameter (None for plain Gamma engines)."""
        return self._alpha if self.cat is not None else None

    def set_model(self, model: SubstitutionModel, rates: GammaRates | None = None) -> None:
        self._model = model
        if rates is not None:
            self._rates = rates
        self._broadcast(
            lambda: self.pool.set_model(model, rates),
            lambda w, _: w.set_model(model, rates),
        )

    def set_alpha(self, alpha: float) -> None:
        alpha = float(alpha)
        if self.cat is None:
            self._rates = self._rates.with_alpha(alpha)
            self._broadcast(
                lambda: self.pool.set_alpha(alpha),
                lambda w, _: w.set_alpha(alpha),
            )
            return
        # CAT: category rates are renormalised at the master against the
        # *full* alignment's pattern weights — a worker doing this against
        # its slice weights would silently shift every site rate.
        rates = discrete_gamma_rates(alpha, self.cat.category_rates.shape[0])
        mean = float(
            np.average(
                rates[self.cat.site_categories], weights=self.patterns.weights
            )
        )
        self.cat = CatRates(
            category_rates=rates / mean,
            site_categories=self.cat.site_categories,
        )
        self._alpha = alpha

        def local(worker, idx) -> None:
            worker.cat = slice_cat(self.cat, idx)
            worker.set_model(worker.model)
            worker._alpha = alpha

        self._broadcast(lambda: self.pool.set_cat(self.cat, alpha), local)

    def default_edge(self) -> int:
        return min(self.tree.edge_ids)

    def _site_lane(self, root_edge: int | None) -> np.ndarray:
        """Validate, evaluate and gather the per-site lnL lane."""
        if root_edge is None:
            root_edge = self.default_edge()
        if self.pool is not None:
            def op() -> np.ndarray:
                self._pool_validate(root_edge)
                self.pool.root(root_edge)
                return self.pool.site_lane()
            return self._retry(op)
        self.ensure_valid(root_edge)
        return self._gather(self._kernel([
            (lambda w=w: w.site_log_likelihoods(root_edge))
            for w in self.workers
        ]))

    def log_likelihood(self, root_edge: int | None = None) -> float:
        """lnL as the fixed-order reduction of the gathered site lane.

        ``np.dot`` over the full-length lane reduces in pattern order
        whatever the distribution, so the value is bit-identical to the
        sequential engine for every worker count.
        """
        site = self._site_lane(root_edge)
        weights = self.patterns.weights
        value = float(np.dot(site, weights))
        self.policy.reduce(self, lambda: [
            float(np.dot(site[idx], weights[idx])) for idx in self._slices
        ])
        return value

    def site_log_likelihoods(self, root_edge: int | None = None) -> np.ndarray:
        """Gathered per-pattern lnL in original pattern order."""
        return np.array(self._site_lane(root_edge))

    def edge_sum_buffer(self, root_edge: int):
        """Per-slice ``derivativeSum`` buffers (resident, never communicated)."""
        if self.pool is not None:
            def op():
                self._pool_validate(root_edge)
                return self.pool.sumbuf(root_edge)
            return self._retry(op)
        self.ensure_valid(root_edge)
        return self._kernel([
            (lambda w=w: w.edge_sum_buffer(root_edge)) for w in self.workers
        ])

    def branch_derivatives(self, sumbufs, t: float) -> tuple[float, float, float]:
        """Per-slice ``derivativeCore`` site terms, reduced at the master."""
        if self.pool is not None:
            def op() -> np.ndarray:
                self.pool.deriv(sumbufs, t)
                return self.pool.terms_lane().copy()
            lane = self._retry(op)
        else:
            lane = self._gather(self._kernel([
                (lambda w=w, sb=sb: w.derivative_site_terms(sb, t))
                for w, sb in zip(self.workers, sumbufs)
            ]))
        weights = self.patterns.weights
        value = derivative_reduce(lane[0], lane[1], lane[2], weights)
        self.policy.reduce(self, lambda: [
            np.array(derivative_reduce(*lane[:, idx], weights[idx]))
            for idx in self._slices
        ])
        return value

    def all_branch_gradients(
        self, root_edge: int | None = None
    ) -> dict[int, tuple[float, float]]:
        """All-branch ``(d1, d2)`` via sliced bidirectional sweeps.

        The post-order down-sweep rides :meth:`ensure_valid`'s waves; the
        pre-order up-sweep then runs one policy boundary per up-wave.
        Workers collect per-edge *site terms* on their slices; the master
        gathers each edge's full-length ``(l0, l1, l2)`` lanes in pattern
        order and applies the same
        :func:`~repro.core.kernels.derivative_reduce` the sequential
        engine uses — bit-identical for every worker count.  The sweep
        ends in *one* reduction of ``2 * (2N - 3)`` per-edge partials.
        """
        if root_edge is None:
            root_edge = self.default_edge()
        if self.pool is not None:
            def op() -> dict[int, np.ndarray]:
                self._pool_validate(root_edge)
                return self.pool.grad(root_edge)
            lanes = self._retry(op)
        else:
            self.ensure_valid(root_edge)
            plans = [w.plan_gradient(root_edge).up for w in self.workers]
            for worker in self.workers:
                worker._pre, worker._grad_terms = {}, {}
            with _obs.span(
                "gradient.all_branches",
                up_waves=max((p.depth for p in plans), default=0),
                workers=self.n_workers,
            ):
                self._waves(plans, "up")
            lanes = {
                eid: self._gather([w._grad_terms[eid] for w in self.workers])
                for eid in self.workers[0]._grad_terms
            }
            for worker in self.workers:
                worker._pre, worker._grad_terms = {}, None
        weights = self.patterns.weights
        out = {
            eid: derivative_reduce(lane[0], lane[1], lane[2], weights)[1:]
            for eid, lane in lanes.items()
        }
        self.policy.reduce(self, lambda: [
            np.concatenate([
                derivative_reduce(*lane[:, idx], weights[idx])[1:]
                for lane in lanes.values()
            ])
            for idx in self._slices
        ])
        return out

    def drop_caches(self) -> None:
        self._broadcast(
            lambda: self.pool.drop_caches(), lambda w, _: w.drop_caches()
        )

    # ------------------------------------------------------------------
    # rank-failure bookkeeping
    # ------------------------------------------------------------------
    def owner_of(self, rank: int) -> int:
        """The worker currently computing ``rank``'s slice (adoption-aware)."""
        return self.adoptions.get(rank, rank)

    @property
    def alive_ranks(self) -> list[int]:
        """Workers still alive, in index order."""
        return [r for r in range(self.n_workers) if r not in self.dead_ranks]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def counters(self) -> KernelCounters:
        """Worker-0 counters in-process (every slice performs the same
        call mix); merged across worker processes for process pools."""
        if self.pool is not None:
            return self.pool.merged_counters()
        return self.workers[0].counters

    @property
    def profile(self) -> KernelProfile:
        """Measured kernel profile over every worker, without
        double-counting shared backend instances."""
        if self.pool is not None:
            return self.pool.merged_profile()
        return merged_backend_profile(self.workers)

    @property
    def wave_stats(self) -> WaveStats:
        """Wave statistics merged across every worker's executor."""
        if self.pool is not None:
            return self.pool.merged_wave_stats()
        total = WaveStats()
        for worker in self.workers:
            total.merge(worker.wave_stats)
        return total

    @property
    def comm_seconds(self) -> float:
        """Modelled communication time accumulated so far (ExaML)."""
        return self.mpi.comm_seconds if self.mpi is not None else 0.0

    def _reset_sync(self) -> None:
        self.parallel_regions = 0
        self.sync_seconds = 0.0
        self.barrier_stats.reset()
        self.wave_boundaries = 0
        self.recovery_seconds = 0.0
        if self.mpi is not None:
            self.mpi.comm_seconds = 0.0
            self.mpi.allreduce_calls = 0
            self.mpi.bytes_reduced = 0.0
            self.mpi.allreduce_retries = 0
            self.mpi.seconds_in_faults = 0.0

    def reset_profile(self) -> None:
        """Zero every worker's counters/stats and the sync accounting."""
        self._broadcast(
            lambda: self.pool.reset_profiles(), lambda w, _: w.reset_profile()
        )
        self._reset_sync()

    def reset_all_observability(self) -> None:
        """Engine-wide reset plus the obs metrics registry and tracer.

        Process pools forward the reset to every worker process, so
        per-worker counters/profiles/wave-stats restart from zero too.
        """
        self._broadcast(
            lambda: self.pool.reset_observability(),
            lambda w, _: w.reset_profile(),
        )
        self._reset_sync()
        _obs_metrics.get_registry().reset()
        if _obs.ENABLED:
            _obs.get_tracer().clear()

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the execution substrate (idempotent).

        Shuts the process pool down (unlinking its shared arena) or the
        thread pool; a no-op for the simulated substrate.
        """
        if self.pool is not None:
            self.pool.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "SlicedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _timed(task):
    """Run one worker task (``None`` idles), returning ``(seconds, result)``."""
    if task is None:
        return 0.0, None
    t0 = time.perf_counter()
    value = task()
    return time.perf_counter() - t0, value
