"""Persistent multiprocess worker pool executing the PLF for real.

This is the reproduction's *actually parallel* execution substrate: a
spawn-once pool of worker processes, each owning one contiguous site
slice of the alignment, all state shared through a
:class:`~repro.parallel.shm.SharedArena`.  The master drives the PR 2
wave schedule exactly as the simulated engines do — but every fork-join
region is now a *measured* cost (:class:`BarrierStats`), not a modelled
constant: one broadcast over per-worker pipes, one join collecting the
per-worker compute times.

Design points, mirroring the paper's PThreads scheme (Sec. V-C/V-D):

* **site split** — workers hold disjoint contiguous pattern ranges
  (block :class:`~repro.parallel.distribute.SiteDistribution`); every
  kernel is elementwise across sites, so workers never exchange CLAs.
* **zero-copy state** — tips, CLAs, scale counters, the sum buffer and
  the per-site result lanes live in the shared arena.  A region's
  payload is a few dozen bytes of job descriptor; results come back
  through the arena, not the pipe.
* **deterministic replay** — every worker holds a replica of the tree
  (synchronised by :meth:`~repro.phylo.tree.Tree.to_state`, which is
  id-exact) and levelizes the *same* execution plan as the master, so a
  wave index fully identifies the work (ExaML's replicated-search idea
  applied to one shared-memory node).
* **fixed-order reductions** — the master reduces per-site lanes in
  pattern order (``np.dot`` over the gathered full-length array), so
  log-likelihoods and branch derivatives are **bit-identical** to the
  sequential engine for every worker count.
* **degradable workers** — a worker death (real crash, or the PR 4
  fault plan made real via :meth:`WorkerPool.kill_worker`) is absorbed
  by slice adoption at the lowest surviving worker, after which the
  interrupted operation is replayed; numerics are unchanged because
  slices stay disjoint.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..core.backends import KernelProfile, get_backend
from ..core.cat import CatLikelihoodEngine
from ..core.engine import LikelihoodEngine
from ..core.schedule import WaveStats
from ..core.traversal import KernelCounters, KernelKind
from ..obs import server as _obs_server
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.rates import CatRates, GammaRates
from ..phylo.tree import Tree
from .distribute import SiteDistribution, distribute_block
from .shm import SharedArena

__all__ = [
    "BarrierStats",
    "WorkerFailure",
    "WorkerRestart",
    "SumBufferHandle",
    "WorkerPool",
    "slice_cat",
]


# ----------------------------------------------------------------------
# measured fork-join accounting
# ----------------------------------------------------------------------
@dataclass
class BarrierStats:
    """Measured fork-join region costs (replaces the modelled constants).

    One *region* is a job broadcast plus a completion join — the paper's
    two synchronisation points.  ``region_seconds`` is master wall time
    from first send to last ack; ``compute_seconds`` sums the per-worker
    kernel time reported in the acks; ``overhead_seconds`` accumulates
    ``region - max(worker compute)``, i.e. the measured announcement +
    barrier + straggler cost the PThreads model only estimated.
    """

    regions: int = 0
    region_seconds: float = 0.0
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0
    max_region_seconds: float = 0.0

    def record(self, region_s: float, worker_s: list[float]) -> None:
        self.regions += 1
        self.region_seconds += region_s
        self.compute_seconds += sum(worker_s)
        self.overhead_seconds += max(region_s - max(worker_s, default=0.0), 0.0)
        self.max_region_seconds = max(self.max_region_seconds, region_s)

    @property
    def mean_region_overhead_s(self) -> float:
        return self.overhead_seconds / self.regions if self.regions else 0.0

    def reset(self) -> None:
        self.regions = 0
        self.region_seconds = 0.0
        self.compute_seconds = 0.0
        self.overhead_seconds = 0.0
        self.max_region_seconds = 0.0

    def to_dict(self) -> dict:
        return {
            "regions": self.regions,
            "region_seconds": self.region_seconds,
            "compute_seconds": self.compute_seconds,
            "overhead_seconds": self.overhead_seconds,
            "mean_region_overhead_s": self.mean_region_overhead_s,
            "max_region_seconds": self.max_region_seconds,
        }


class WorkerFailure(RuntimeError):
    """A pool worker died and the failure policy chose not to absorb it."""

    def __init__(self, worker: int, message: str = "") -> None:
        super().__init__(message or f"pool worker {worker} died")
        self.worker = worker


class WorkerRestart(RuntimeError):
    """Internal signal: a death was absorbed; replay the current operation."""

    def __init__(self, worker: int) -> None:
        super().__init__(f"worker {worker} absorbed; replay the operation")
        self.worker = worker


@dataclass(frozen=True)
class SumBufferHandle:
    """Opaque handle to the arena-resident ``derivativeSum`` buffer.

    Returned by pool-backed ``edge_sum_buffer``; only valid while its
    ``epoch`` matches the pool's latest ``sumbuf`` operation (the arena
    holds one live buffer, like RAxML's single ``sumBuffer``).
    """

    epoch: int


def slice_cat(cat: CatRates, idx: np.ndarray) -> CatRates:
    """A worker's per-site CAT rates over a pattern index slice.

    ``category_rates`` are kept verbatim (they were normalised against
    the *full* alignment's pattern weights by the master), so sliced
    engines reproduce the full engine's per-site rates bit-for-bit.
    """
    return CatRates(
        category_rates=cat.category_rates,
        site_categories=cat.site_categories[idx],
    )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _SlabMixin:
    """Engine mixin storing CLAs in shared-arena slab slots.

    ``newview`` results are committed into per-node slots of the arena's
    CLA slab (one ``memcpy`` per op); ``self._clas`` then references the
    slab views, so every downstream read — child CLAs of the next wave,
    root sides, ``derivativeSum`` — streams straight from shared memory.
    When the slab is full the engine degrades to private arrays
    (counted in ``slab_fallbacks``) rather than failing.
    """

    _slab_arena: SharedArena | None = None
    _slab_lo = 0
    _slab_hi = 0

    def attach_slab(self, arena: SharedArena, lo: int, hi: int) -> None:
        self._slab_arena = arena
        self._slab_lo = lo
        self._slab_hi = hi
        self._slab_free = list(range(arena.n_slots - 1, -1, -1))
        self._slab_slot: dict[int, int] = {}
        self.slab_fallbacks = 0

    def _store_op(self, op, z, sc):  # noqa: ANN001 - mirrors base signature
        arena = self._slab_arena
        if arena is not None:
            slot = self._slab_slot.get(op.node)
            if slot is None and self._slab_free:
                slot = self._slab_free.pop()
                self._slab_slot[op.node] = slot
            if slot is not None:
                zv, sv = arena.cla_slot(slot, self._slab_lo, self._slab_hi)
                zv = zv[:, : z.shape[1], :]
                np.copyto(zv, z)
                np.copyto(sv, sc)
                z, sc = zv, sv
            else:
                self.slab_fallbacks += 1
        super()._store_op(op, z, sc)

    def _reclaim_slots(self) -> None:
        if self._slab_arena is None:
            return
        for node in [n for n in self._slab_slot if n not in self._clas]:
            self._slab_free.append(self._slab_slot.pop(node))

    def ensure_valid(self, root_edge):  # noqa: ANN001
        super().ensure_valid(root_edge)
        self._reclaim_slots()

    def drop_caches(self) -> None:
        super().drop_caches()
        self._reclaim_slots()


class SlabLikelihoodEngine(_SlabMixin, LikelihoodEngine):
    """GTR+Gamma worker engine over a shared-arena CLA slab."""


class SlabCatEngine(_SlabMixin, CatLikelihoodEngine):
    """CAT worker engine over a shared-arena CLA slab."""


def _build_worker_engine(cfg: dict, arena: SharedArena, lo: int, hi: int, tree, backend):
    """One slice engine over arena-backed pattern data."""
    tips = np.ascontiguousarray(arena.site_slice("tips", lo, hi))
    weights = arena.site_slice("weights", lo, hi).copy()
    patterns = PatternAlignment(
        taxa=list(cfg["taxa"]),
        data=tips,
        weights=weights,
        site_to_pattern=np.arange(hi - lo),
        states=cfg["states"],
    )
    idx = np.arange(lo, hi)
    if cfg.get("cat") is not None:
        engine = SlabCatEngine(
            patterns, tree, cfg["model"], slice_cat(cfg["cat"], idx),
            backend=backend,
        )
    else:
        engine = SlabLikelihoodEngine(
            patterns, tree, cfg["model"], cfg["rates"], backend=backend
        )
    engine.attach_slab(arena, lo, hi)
    return engine


def _write_sumbuf(arena: SharedArena, lo: int, hi: int, sb: np.ndarray) -> None:
    view = arena.site_slice("sumbuf", lo, hi)
    if sb.ndim == 2:  # CAT: (p, k) into the single-rate plane
        view[:, 0, : sb.shape[1]] = sb
    else:
        view[:, : sb.shape[1], : sb.shape[2]] = sb


def _read_sumbuf(arena: SharedArena, lo: int, hi: int, engine) -> np.ndarray:
    view = arena.site_slice("sumbuf", lo, hi)
    k = engine.eigen.eigenvalues.shape[0]
    if isinstance(engine, CatLikelihoodEngine):
        return view[:, 0, :k]
    return view[:, : engine.n_rates, :k]


def _worker_main(conn, cfg: dict) -> None:
    """Worker process: attach the arena, build the slice engine, serve jobs.

    Every reply is ``("ok", elapsed_compute_seconds, payload)`` or
    ``("err", repr(exc))``; the master converts errors into exceptions.
    The loop exits on ``("close",)``, a broken pipe (master died), or an
    injected ``("die",)`` used by the fault tests.
    """
    arena = SharedArena.attach(cfg["arena_name"], cfg["layout"])
    tree = Tree.from_state(cfg["tree_state"])
    backend = get_backend(cfg["backend"])
    wid = cfg["worker_id"]
    engines: dict[int, tuple] = {}  # owner id -> (engine, lo, hi)
    engines[wid] = (
        _build_worker_engine(cfg, arena, cfg["lo"], cfg["hi"], tree, backend),
        cfg["lo"],
        cfg["hi"],
    )
    plans: dict[int, object] = {}

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # master is gone
            break
        cmd = msg[0]
        try:
            if cmd == "close":
                conn.send(("ok", 0.0, None))
                break
            if cmd == "die":  # fault-injection hook: no goodbye
                os._exit(17)
            t0 = time.perf_counter()
            payload = None
            if cmd == "prepare":
                tree_state, root_edge = msg[1], msg[2]
                if tree_state is not None:
                    tree = Tree.from_state(tree_state)
                    for engine, _lo, _hi in engines.values():
                        engine.tree = tree
                depth = 0
                for owner, (engine, _lo, _hi) in engines.items():
                    plan = engine.plan_execution(root_edge)
                    plans[owner] = plan
                    depth = max(depth, plan.depth)
                payload = depth
            elif cmd == "wave":
                k = msg[1]
                for owner, (engine, _lo, _hi) in engines.items():
                    plan = plans.get(owner)
                    if plan is not None and k < plan.depth:
                        engine.executor.run_wave(plan.waves[k])
            elif cmd == "root":
                root_edge = msg[1]
                for engine, lo, hi in engines.values():
                    engine.ensure_valid(root_edge)
                    arena.view("site")[lo:hi] = engine.site_log_likelihoods(
                        root_edge
                    )
            elif cmd == "sumbuf":
                root_edge = msg[1]
                for engine, lo, hi in engines.values():
                    sb = engine.edge_sum_buffer(root_edge)
                    _write_sumbuf(arena, lo, hi, sb)
            elif cmd == "deriv":
                t = msg[1]
                terms = arena.view("terms")
                for engine, lo, hi in engines.values():
                    sb = _read_sumbuf(arena, lo, hi, engine)
                    l0, l1, l2 = engine.derivative_site_terms(sb, t)
                    terms[0, lo:hi] = l0
                    terms[1, lo:hi] = l1
                    terms[2, lo:hi] = l2
            elif cmd == "grad":
                root_edge = msg[1]
                # Per-owner all-branch gradient *site terms*: the pre-order
                # up-sweep runs slice-locally (every kernel is elementwise
                # across sites), the reduction happens at the master in
                # fixed pattern order.  Lanes travel over the pipe: the
                # arena's terms lane holds one edge, these hold 2N - 3.
                payload = {}
                for owner, (engine, _lo, _hi) in engines.items():
                    terms = engine.all_branch_gradients(root_edge, terms=True)
                    payload[owner] = {
                        eid: np.stack(t3) for eid, t3 in terms.items()
                    }
            elif cmd == "set_model":
                model, rates = msg[1], msg[2]
                for engine, _lo, _hi in engines.values():
                    engine.set_model(model, rates)
            elif cmd == "set_alpha":
                for engine, _lo, _hi in engines.values():
                    engine.set_alpha(msg[1])
            elif cmd == "set_cat":
                cats, alpha = msg[1], msg[2]
                for owner, (engine, _lo, _hi) in engines.items():
                    engine.cat = cats[owner]
                    engine.set_model(engine.model)
                    if alpha is not None:
                        engine._alpha = alpha
            elif cmd == "adopt":
                dead, lo2, hi2, state = msg[1], msg[2], msg[3], msg[4]
                if dead not in engines:  # idempotent re-announcement
                    cfg2 = dict(cfg)
                    cfg2["model"] = state["model"]
                    cfg2["rates"] = state["rates"]
                    cfg2["cat"] = state["cat"]
                    ghost = _build_worker_engine(
                        cfg2, arena, lo2, hi2, tree, backend
                    )
                    if state["cat"] is not None and state["alpha"] is not None:
                        ghost._alpha = state["alpha"]
                    engines[dead] = (ghost, lo2, hi2)
            elif cmd == "profile":
                counters = KernelCounters()
                stats = WaveStats()
                fallbacks = 0
                for engine, _lo, _hi in engines.values():
                    counters.merge(engine.counters)
                    stats.merge(engine.wave_stats)
                    fallbacks += getattr(engine, "slab_fallbacks", 0)
                payload = {
                    "profile": backend.profile.to_dict(),
                    "counters": {k.value: v for k, v in counters.calls.items()},
                    "site_units": {
                        k.value: v for k, v in counters.site_units.items()
                    },
                    "reductions": counters.reductions,
                    "wave_stats": stats.to_dict(),
                    "slab_fallbacks": fallbacks,
                }
            elif cmd == "reset":
                for engine, _lo, _hi in engines.values():
                    engine.reset_profile()
            elif cmd == "reset_obs":
                for engine, _lo, _hi in engines.values():
                    engine.reset_all_observability()
            elif cmd == "drop_caches":
                for engine, _lo, _hi in engines.values():
                    engine.drop_caches()
                plans.clear()
            else:
                raise ValueError(f"unknown pool command {cmd!r}")
            conn.send(("ok", time.perf_counter() - t0, payload))
        except Exception as exc:  # noqa: BLE001 - forwarded to the master
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    try:
        arena.close()
        conn.close()
    except Exception:  # pragma: no cover - teardown best-effort
        pass


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class WorkerPool:
    """Spawn-once pool of slice workers over one shared arena.

    Parameters mirror the engines: ``cat`` selects CAT workers (mutually
    exclusive with ``rates``).  ``backend`` must be a registry *name*
    (or ``None``): each worker process resolves its own instance, so
    scratch-carrying backends are never shared across processes.

    ``on_worker_failure`` is PR 4's rank policy made real: ``"degrade"``
    re-assigns a dead worker's slice to the lowest survivor and replays
    the interrupted operation; ``"abort"`` raises
    :class:`WorkerFailure`.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree,
        model,
        rates: GammaRates | None = None,
        *,
        n_workers: int,
        backend: str | None = None,
        cat: CatRates | None = None,
        on_worker_failure: str = "degrade",
        distribution: SiteDistribution | None = None,
        start_method: str | None = None,
        label: str = "",
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if backend is not None and not isinstance(backend, str):
            raise ValueError(
                "process pools take a backend *name* (each worker builds "
                "its own instance); got a backend object — pass the "
                "registry name, or use repro.core.backends."
                "resolve_backend_name() to translate a registered instance"
            )
        if on_worker_failure not in ("degrade", "abort"):
            raise ValueError("on_worker_failure must be 'degrade' or 'abort'")
        self.on_worker_failure = on_worker_failure
        self.label = label
        self.patterns = patterns
        self.n_workers = n_workers
        self.backend_name = backend
        self.distribution = distribution or distribute_block(
            patterns.n_patterns, n_workers
        )
        if self.distribution.n_workers != n_workers:
            raise ValueError("distribution worker count mismatch")
        self.bounds: list[tuple[int, int]] = []
        for w in range(n_workers):
            idx = self.distribution.indices_of(w)
            if idx.shape[0] == 0:
                prev_hi = self.bounds[-1][1] if self.bounds else 0
                self.bounds.append((prev_hi, prev_hi))
                continue
            lo, hi = int(idx[0]), int(idx[-1]) + 1
            if hi - lo != idx.shape[0]:
                raise ValueError(
                    "process pools need contiguous slices (block "
                    "distribution); got a non-contiguous assignment"
                )
            self.bounds.append((lo, hi))
        n_rates = 1 if cat is not None else (rates.rates.shape[0] if rates else 1)
        n_states = patterns.states.n_states
        self.arena = SharedArena.create(
            n_patterns=patterns.n_patterns,
            n_rates=n_rates,
            n_states=n_states,
            n_taxa=len(patterns.taxa),
            n_slots=4 * max(tree.n_leaves, 2) + 16,
            tip_dtype=patterns.data.dtype,
        )
        self.arena.view("tips")[:] = patterns.data
        self.arena.view("weights")[:] = patterns.weights

        methods = mp.get_all_start_methods()
        method = start_method or ("fork" if "fork" in methods else "spawn")
        ctx = mp.get_context(method)
        self.start_method = method
        self.barrier_stats = BarrierStats()
        self.sumbuf_epoch = 0
        self._model = model
        self._rates = rates
        self._cat = cat
        self._alpha = None
        self.dead: set[int] = set()
        self.adoptions: dict[int, int] = {}
        self.worker_failures = 0
        self._conns = []
        self._procs = []
        tree_state = tree.to_state()
        for w in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            cfg = {
                "worker_id": w,
                "lo": self.bounds[w][0],
                "hi": self.bounds[w][1],
                "arena_name": self.arena.name,
                "layout": self.arena.layout,
                "taxa": list(patterns.taxa),
                "states": patterns.states,
                "model": model,
                "rates": rates,
                "cat": cat,
                "backend": backend,
                "tree_state": tree_state,
            }
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, cfg),
                daemon=True,
                name=f"repro-pool-{w}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._conns, self.arena
        )
        if _obs_server.ENABLED:
            _obs_server.register_pool(self)

    # -- liveness -------------------------------------------------------
    @property
    def alive(self) -> list[int]:
        return [w for w in range(self.n_workers) if w not in self.dead]

    def owner_of(self, worker: int) -> int:
        return self.adoptions.get(worker, worker)

    def _engine_state(self) -> dict:
        """Current model state, shipped with adoptions so a ghost engine
        built mid-run matches the live configuration."""
        return {
            "model": self._model,
            "rates": self._rates,
            "cat": self._cat,
            "alpha": self._alpha,
        }

    def _mark_dead(self, worker: int) -> None:
        if worker in self.dead:
            return
        self.dead.add(worker)
        self.worker_failures += 1
        proc = self._procs[worker]
        if proc.is_alive():  # pragma: no cover - pipe died first
            proc.terminate()
        proc.join(timeout=5)

    def _absorb_failures(self, failed: list[int]) -> None:
        """Apply the failure policy to worker deaths detected in a region.

        Called only when every surviving worker is quiescent (all commands
        sent in the failed region have had their replies consumed), so the
        adoption handshake below cannot interleave with in-flight work.
        Raises :class:`WorkerRestart` (degrade: caller replays the whole
        top-level operation) or :class:`WorkerFailure` (abort / nobody
        left).
        """
        for w in failed:
            self._mark_dead(w)
        if self.on_worker_failure == "abort" or not self.alive:
            raise WorkerFailure(failed[0])
        while True:
            adopter = self.alive[0]
            orphans = sorted(
                g for g in self.dead
                if self.adoptions.get(g) not in self.alive
            )
            try:
                for ghost in orphans:
                    lo, hi = self.bounds[ghost]
                    self._conns[adopter].send(
                        ("adopt", ghost, lo, hi, self._engine_state())
                    )
                    reply = self._conns[adopter].recv()
                    if reply[0] == "err":
                        raise RuntimeError(
                            f"pool worker {adopter}: {reply[1]}"
                        )
                    self.adoptions[ghost] = adopter
                break
            except (BrokenPipeError, EOFError, OSError):
                # The adopter died during the handshake; try the next one.
                self._mark_dead(adopter)
                if not self.alive:
                    raise WorkerFailure(adopter) from None
        if _obs.ENABLED:
            _obs.instant(
                "pool.worker_adopted",
                dead=sorted(self.dead),
                adopter=self.alive[0],
                survivors=len(self.alive),
            )
        if _obs_server.ENABLED:
            _obs_server.health_event(
                "worker_death",
                dead=sorted(self.dead),
                adopter=self.alive[0],
                survivors=len(self.alive),
            )
        raise WorkerRestart(failed[0])

    # -- the fork-join region -------------------------------------------
    def _region(self, label: str, payload: tuple) -> dict[int, object]:
        """One measured region: broadcast, join, account, trace.

        The sweep always completes — a worker found dead mid-region is
        noted, the remaining replies are still consumed (keeping every
        survivor quiescent), and only then is the failure policy applied.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        t0 = time.perf_counter()
        sent: list[int] = []
        failed: list[int] = []
        for w in self.alive:
            try:
                self._conns[w].send(payload)
                sent.append(w)
            except (BrokenPipeError, OSError):
                failed.append(w)
        elapsed: dict[int, float] = {}
        payloads: dict[int, object] = {}
        errors: list[tuple[int, str]] = []
        for w in sent:
            try:
                reply = self._conns[w].recv()
            except (EOFError, OSError):
                failed.append(w)
                continue
            if reply[0] == "err":
                errors.append((w, reply[1]))
                continue
            elapsed[w] = float(reply[1])
            payloads[w] = reply[2]
        region_s = time.perf_counter() - t0
        if errors:
            w, err = errors[0]
            raise RuntimeError(f"pool worker {w}: {err}")
        if failed:
            self._absorb_failures(failed)
        self.barrier_stats.record(region_s, list(elapsed.values()))
        if _obs.ENABLED:
            tracer = _obs.get_tracer()
            tracer.add_complete(
                f"pool.region.{label}", t0, t0 + region_s,
                args={"workers": len(elapsed)},
            )
            for w, secs in elapsed.items():
                tracer.add_complete(
                    f"pool.{label}", t0, t0 + secs, track=f"worker-{w}"
                )
        return payloads

    # -- engine-level operations ---------------------------------------
    def prepare(self, tree_state, root_edge: int) -> int:
        """Sync trees + levelize on every worker; returns the max depth."""
        depths = self._region("prepare", ("prepare", tree_state, root_edge))
        return max((int(d) for d in depths.values()), default=0)

    def run_wave(self, k: int) -> None:
        self._region("wave", ("wave", k))

    def root(self, root_edge: int) -> None:
        """Fill the per-site lnL lane for ``root_edge``."""
        self._region("root", ("root", root_edge))

    def sumbuf(self, root_edge: int) -> SumBufferHandle:
        self._region("sumbuf", ("sumbuf", root_edge))
        self.sumbuf_epoch += 1
        return SumBufferHandle(self.sumbuf_epoch)

    def deriv(self, handle: SumBufferHandle, t: float) -> None:
        if handle.epoch != self.sumbuf_epoch:
            raise ValueError(
                "stale sum-buffer handle: the arena holds one live "
                "derivativeSum buffer and it has been overwritten"
            )
        self._region("deriv", ("deriv", float(t)))

    def grad(self, root_edge: int) -> dict[int, np.ndarray]:
        """All-branch gradient lanes: ``{edge_id: (3, n_patterns)}``.

        One region; every worker runs its slice's bidirectional sweep and
        ships per-edge ``(l0, l1, l2)`` site terms back, which are placed
        into full-length lanes by the owner's pattern bounds (adopted
        slices land at the dead worker's bounds, keeping pattern order —
        and therefore the master reduction — identical).
        """
        payloads = self._region("grad", ("grad", root_edge))
        n = self.patterns.n_patterns
        lanes: dict[int, np.ndarray] = {}
        for per_owner in payloads.values():
            for owner, per_edge in per_owner.items():
                lo, hi = self.bounds[owner]
                for eid, stacked in per_edge.items():
                    lane = lanes.get(eid)
                    if lane is None:
                        lane = lanes[eid] = np.empty((3, n))
                    lane[:, lo:hi] = stacked
        return lanes

    def set_model(self, model, rates) -> None:
        self._model = model
        if rates is not None:
            self._rates = rates
        self._region("set_model", ("set_model", model, rates))

    def set_alpha(self, alpha: float) -> None:
        """Gamma pools only: CAT pools must push a master-normalised
        assignment through :meth:`set_cat` (slice-local renormalisation
        would use the wrong weights)."""
        if self._cat is not None:
            raise ValueError("CAT pools take set_cat, not set_alpha")
        self._alpha = float(alpha)
        if self._rates is not None:
            self._rates = self._rates.with_alpha(float(alpha))
        self._region("set_alpha", ("set_alpha", float(alpha)))

    def set_cat(self, cat: CatRates, alpha: float | None = None) -> None:
        """Install a full-alignment CAT assignment (already normalised by
        the master against full-pattern weights); sliced per worker here."""
        self._cat = cat
        self._alpha = alpha
        per_worker = {
            w: slice_cat(cat, np.arange(lo, hi))
            for w, (lo, hi) in enumerate(self.bounds)
        }
        self._region("set_cat", ("set_cat", per_worker, alpha))

    def drop_caches(self) -> None:
        self._region("drop_caches", ("drop_caches",))

    # -- lanes ----------------------------------------------------------
    def site_lane(self) -> np.ndarray:
        """The gathered per-site lnL lane (arena view; copy to keep)."""
        return self.arena.view("site")

    def terms_lane(self) -> np.ndarray:
        return self.arena.view("terms")

    # -- observability --------------------------------------------------
    def worker_reports(self) -> dict[int, dict]:
        """Per-worker profile/counters/wave-stats/slab reports."""
        return {
            w: r for w, r in self._region("profile", ("profile",)).items()
        }

    def merged_profile(self) -> KernelProfile:
        """One profile over every worker's backend (no double counting:
        each worker process owns exactly one backend instance)."""
        merged = KernelProfile()
        for report in self.worker_reports().values():
            merged.merge(KernelProfile.from_dict(report["profile"]))
        return merged

    def merged_wave_stats(self) -> WaveStats:
        total = WaveStats()
        for report in self.worker_reports().values():
            total.merge(WaveStats.from_dict(report["wave_stats"]))
        return total

    def merged_counters(self) -> KernelCounters:
        total = KernelCounters()
        for report in self.worker_reports().values():
            c = KernelCounters()
            c.calls = {
                KernelKind(k): int(v) for k, v in report["counters"].items()
            }
            c.site_units = {
                KernelKind(k): int(v) for k, v in report["site_units"].items()
            }
            c.reductions = int(report["reductions"])
            total.merge(c)
        return total

    def reset_profiles(self) -> None:
        self._region("reset", ("reset",))
        self.barrier_stats.reset()

    def reset_observability(self) -> None:
        self._region("reset_obs", ("reset_obs",))
        self.barrier_stats.reset()

    # -- fault-injection hook -------------------------------------------
    def kill_worker(self, worker: int) -> None:
        """Test hook: hard-kill one worker (PR 4 rank-death made real)."""
        if worker in self.dead:
            return
        try:
            self._conns[worker].send(("die",))
        except (BrokenPipeError, OSError):
            pass
        self._procs[worker].join(timeout=5)

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink the arena. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for w in self.alive:
            try:
                self._conns[w].send(("close",))
            except (BrokenPipeError, OSError):
                continue
        for w in self.alive:
            try:
                self._conns[w].recv()
            except (EOFError, OSError):
                pass
        _shutdown(self._procs, self._conns, self.arena)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _shutdown(procs, conns, arena) -> None:
    """Join/terminate workers, close pipes, unlink the arena."""
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    arena.close()
