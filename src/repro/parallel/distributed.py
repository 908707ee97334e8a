"""Distributed likelihood engine (ExaML's parallelisation, Sec. V-D).

ExaML's scheme: every rank runs its own *consistent* copy of the
tree-search algorithm over its slice of the alignment sites, and the
ranks communicate only where information must be combined — the
AllReduce after ``evaluate`` (summing partial log-likelihoods) and after
each ``derivativeCore`` batch (summing the two derivatives).  Crucially
there is *no* communication between consecutive ``newview`` calls.

:class:`DistributedEngine` is a :class:`~repro.parallel.sliced.SlicedEngine`
under :class:`ExaMLSync`: wave boundaries are counted but free, and
every reduction runs one :class:`~repro.parallel.simmpi.SimMPI`
AllReduce of the per-rank partials, so communication volume and
modelled time are accounted.  The search code from :mod:`repro.search`
runs on it unchanged — the tree search is oblivious to the
distribution, exactly as in ExaML.
"""

from __future__ import annotations

from ..core.backends import KernelBackend
from ..faults.plan import RankFailure
from ..obs import metrics as _obs_metrics
from ..obs import server as _obs_server
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from .distribute import SiteDistribution
from .simmpi import SimMPI
from .sliced import SlicedEngine

__all__ = ["DistributedEngine", "ExaMLSync"]


class ExaMLSync:
    """Free wave boundaries; one AllReduce per reduction.

    Rank failure (injected through the :class:`SimMPI` fault plan)
    follows ``on_rank_failure``:

    * ``"degrade"`` (default) — the dead rank's pattern slice is
      *adopted* by the lowest surviving rank (ExaML's restart story
      compressed into one process: the survivor re-reads the alignment
      slice and rebuilds the CLAs, charged as modelled recovery time),
      the collective is retried among survivors, and the search
      continues with identical numerics.  Over real worker processes
      the injected death kills the pool worker too, so the next region
      exercises the pool's real slice adoption;
    * ``"abort"`` — :class:`~repro.faults.RankFailure` propagates, so a
      checkpoint-aware driver can snapshot-and-exit.
    """

    track = "rank"

    def __init__(self, mpi: SimMPI, on_rank_failure: str = "degrade") -> None:
        if on_rank_failure not in ("degrade", "abort"):
            raise ValueError("on_rank_failure must be 'degrade' or 'abort'")
        self.mpi = mpi
        self.on_rank_failure = on_rank_failure

    def boundary(self, engine: SlicedEngine, k: int, sweep: str) -> None:
        """Count one lock-step wave boundary; no message is exchanged."""
        engine.wave_boundaries += 1
        if _obs.ENABLED:
            _obs.instant(
                "wave_boundary", wave=k, ranks=engine.n_workers, sweep=sweep
            )
            _obs_metrics.get_registry().counter(
                "repro_wave_boundaries_total",
                "lock-step wave boundaries across ranks",
            ).inc()

    def kernel(self, engine: SlicedEngine) -> None:
        pass

    def reduce(self, engine: SlicedEngine, partials) -> None:
        """One AllReduce of ``partials()`` with rank-failure recovery.

        A death during the collective is absorbed (slice adoption) and
        the collective retried among survivors; numerics are unchanged
        because slices are disjoint and the adopter replays the dead
        rank's contribution.  Bounded to guard against pathological
        always-fire plans.
        """
        parts = partials()
        for _ in range(2 * self.mpi.n_ranks + 1):
            try:
                self.mpi.allreduce_sum(parts)
                return
            except RankFailure as failure:
                pool = engine.pool
                if (
                    pool is not None
                    and self.on_rank_failure == "degrade"
                    and failure.rank not in engine.dead_ranks
                    and failure.rank not in pool.dead
                ):
                    pool.kill_worker(failure.rank)
                self._adopt(engine, failure)
        raise RankFailure(-1, "rank-death faults kept firing; giving up")

    def _adopt(self, engine: SlicedEngine, failure: RankFailure) -> None:
        """Apply the ``on_rank_failure`` policy to one injected death."""
        if self.on_rank_failure == "abort":
            raise failure
        rank = failure.rank
        if rank in engine.dead_ranks:  # repeated death of a ghost: no-op
            return
        survivors = [r for r in engine.alive_ranks if r != rank]
        if not survivors:
            raise RankFailure(rank, "last surviving rank failed") from failure
        adopter = survivors[0]
        engine.dead_ranks.add(rank)
        engine.adoptions[rank] = adopter
        for ghost, owner in list(engine.adoptions.items()):
            if owner == rank:  # re-adopt slices the dead rank had adopted
                engine.adoptions[ghost] = adopter
        engine.rank_failures += 1
        # Modelled recovery: survivors synchronise (one barrier) and the
        # adopter re-reads + rebuilds the dead rank's slice — tip data
        # over the interconnect, CLAs recomputed locally (not charged
        # separately: the next traversal recomputes them anyway).
        patterns = engine.patterns
        slice_bytes = float(
            engine.distribution.indices_of(rank).shape[0]
            * len(patterns.taxa)
            * patterns.data.itemsize
        )
        dt = (
            self.mpi.interconnect.message_time(slice_bytes, len(survivors))
            if slice_bytes
            else 0.0
        )
        engine.recovery_seconds += dt
        self.mpi.comm_seconds += dt
        self.mpi.barrier()
        if _obs.ENABLED:
            _obs.instant(
                "rank.adopted",
                dead=rank,
                adopter=adopter,
                survivors=len(survivors),
                recovery_us=dt * 1e6,
            )
            _obs_metrics.get_registry().counter(
                "repro_rank_failures_total",
                "injected rank deaths absorbed by degradation",
            ).inc()
        if _obs_server.ENABLED:
            _obs_server.health_event(
                "rank_death",
                rank=rank,
                adopter=adopter,
                survivors=len(survivors),
                recovery_us=dt * 1e6,
            )


class DistributedEngine(SlicedEngine):
    """Rank-parallel PLF over a shared tree (ExaML's communication scheme)."""

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        n_ranks: int = 2,
        mpi: SimMPI | None = None,
        distribution: SiteDistribution | None = None,
        backend: str | KernelBackend | None = None,
        on_rank_failure: str = "degrade",
        execution: str = "simulated",
        start_method: str | None = None,
    ) -> None:
        policy = ExaMLSync(
            mpi if mpi is not None else SimMPI(n_ranks), on_rank_failure
        )
        super().__init__(
            patterns, tree, model, rates, n_ranks, policy,
            distribution=distribution, backend=backend, execution=execution,
            on_worker_failure=on_rank_failure, start_method=start_method,
        )
