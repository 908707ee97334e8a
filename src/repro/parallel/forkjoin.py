"""RAxML-Light-style PThreads fork-join engine (Sec. V-C).

RAxML-Light parallelises the PLF with a master/worker scheme: alignment
sites are distributed evenly among worker threads, *every* kernel
invocation becomes a parallel region bracketed by two synchronisation
points (job announcement + completion barrier), and reductions happen
in shared memory at the master.  The paper reuses this scheme unchanged
for the native MIC port ("there is no need to introduce a thread-level
parallelization in the kernel code").

:class:`ForkJoinEngine` is a :class:`~repro.parallel.sliced.SlicedEngine`
under :class:`ForkJoinSync`: one region per wave and per kernel call,
charged the *modelled* two-barrier cost of a
:class:`~repro.parallel.pthreads.ForkJoinModel` on the simulated
substrate — the cost structure that makes fork-join lose to ExaML's
scheme as thread counts grow (ablation E9) — and *measured* on the
thread and process substrates.
"""

from __future__ import annotations

from ..core.backends import KernelBackend
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates, GammaRates
from ..phylo.tree import Tree
from .distribute import SiteDistribution
from .pthreads import CPU_PTHREADS, ForkJoinModel
from .sliced import (
    EXEC_ENV,
    EXECUTION_MODES,
    WORKERS_ENV,
    SlicedEngine,
    default_execution,
    default_workers,
    merged_backend_profile,
)

__all__ = [
    "ForkJoinEngine",
    "ForkJoinSync",
    "EXECUTION_MODES",
    "WORKERS_ENV",
    "EXEC_ENV",
    "default_workers",
    "default_execution",
    "merged_backend_profile",
]


class ForkJoinSync:
    """Every wave and every kernel call is one two-barrier region.

    The reduction itself happens inside the kernel's region (shared
    memory at the master), so :meth:`reduce` is free.
    """

    track = "thread"
    mpi = None

    def __init__(self, model: ForkJoinModel) -> None:
        self.model = model

    def boundary(self, engine: SlicedEngine, k: int, sweep: str) -> None:
        self.kernel(engine)

    def kernel(self, engine: SlicedEngine) -> None:
        """Charge one modelled region; measured substrates record their own."""
        if engine.execution != "simulated":
            return
        engine.parallel_regions += 1
        overhead = self.model.region_overhead_s(engine.n_workers)
        engine.sync_seconds += overhead
        if _obs.ENABLED:
            _obs.instant(
                "forkjoin_region",
                threads=engine.n_workers,
                modelled_us=overhead * 1e6,
            )
            reg = _obs_metrics.get_registry()
            reg.counter(
                "repro_forkjoin_regions_total",
                "fork-join parallel regions (two barriers each)",
            ).inc()
            reg.counter(
                "repro_barriers_total", "simulated rank barriers"
            ).inc(2)

    def reduce(self, engine: SlicedEngine, partials) -> None:
        pass


class ForkJoinEngine(SlicedEngine):
    """Master/worker PLF over site slices with per-call barrier costs."""

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        n_threads: int = 4,
        sync_model: ForkJoinModel = CPU_PTHREADS,
        distribution: SiteDistribution | None = None,
        backend: str | KernelBackend | None = None,
        execution: str = "simulated",
        cat: CatRates | None = None,
        on_worker_failure: str = "degrade",
        start_method: str | None = None,
        label: str = "",
    ) -> None:
        super().__init__(
            patterns, tree, model, rates, n_threads, ForkJoinSync(sync_model),
            distribution=distribution, backend=backend, execution=execution,
            cat=cat, on_worker_failure=on_worker_failure,
            start_method=start_method, label=label,
        )
