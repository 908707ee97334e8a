"""Pluggable kernel backends: one dispatch seam for every PLF variant.

The paper's contribution is swapping PLF kernel *implementations*
(scalar vs pragma-vectorized vs intrinsics, CPU vs MIC, Sec. IV-V)
underneath an unchanged tree-search driver.  BEAGLE formalises the same
idea as a runtime-selectable "implementation" layer behind a stable
kernel API; this module is that layer for the reproduction.

A :class:`KernelBackend` provides the four PLF kernels of Section IV
(``newview`` in its three tip cases, ``evaluate``, ``derivativeSum``,
``derivativeCore``) plus the gradient up-sweep's pre-order partials and
fused edge gradient.  :class:`~repro.core.engine.LikelihoodEngine` — and
every engine built on it (memsave, CAT, +I, partitioned, fork-join,
distributed) — dispatches exclusively through its backend.

The layer is table-driven: :data:`KERNEL_SPECS` has one
:class:`KernelSpec` row per public entry point (its kind, site-count
operand, counted operands and result type), and :class:`_BackendBase`
builds every public method from it around one dispatch wrapper that
owns timing, the :class:`KernelProfile` and the obs spans.  A new
implementation (JIT-compiled, process-parallel, GPU-style batched)
derives from the base, supplies the handful of site-phase primitives
listed there, and calls :func:`register_backend`.

Shipped backends
----------------
``reference``
    The NumPy ground-truth kernels from :mod:`repro.core.kernels`,
    behavior-identical to the pre-seam engine.
``blocked``
    Site-chunked execution over preallocated scratch buffers — the
    paper's Sec. V-B cache-blocking.  The reference kernels materialise
    three ``(patterns, rates, states)`` temporaries per ``newview``
    (~38 MB at 100K DNA+Gamma4 patterns); the blocked backend streams
    the site dimension in L2-sized chunks so the temporaries stay
    cache-resident, which wins measurably at Table III widths >= 100K.
``shadow``
    Runs *two* backends per dispatch and asserts their CLAs, scale
    counters, log-likelihoods and derivatives agree — turning every
    test and search run into a cross-backend correctness oracle
    (``REPRO_BACKEND=shadow pytest`` checks blocked-vs-reference parity
    end-to-end).
``compiled``
    Generated C kernels (:mod:`repro.core.ckernels`), registered last.

Every backend records a per-kernel :class:`KernelProfile` (calls, wall
seconds, bytes moved) extending
:class:`~repro.core.traversal.KernelCounters`; measured per-kernel
times/intensities feed :mod:`repro.perf.trace` and
:mod:`repro.perf.costmodel` to calibrate the Figure 3 / Table III
predictions against reality instead of analytic constants alone.

The environment variable :data:`DEFAULT_BACKEND_ENV` (``REPRO_BACKEND``)
selects the process-wide default backend for engines constructed without
an explicit one.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from . import kernels
from .scaling import rescale_clv
from .traversal import (
    KernelCounters,
    KernelKind,
    merged_by_key,
    merged_kernel_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..phylo.alignment import PatternAlignment
    from ..phylo.models import SubstitutionModel
    from ..phylo.rates import CatRates, GammaRates
    from ..phylo.tree import Tree
    from .engine import LikelihoodEngine

__all__ = [
    "DEFAULT_BACKEND_ENV",
    "KERNEL_SPECS",
    "KernelSpec",
    "KernelResult",
    "KernelProfile",
    "KernelBackend",
    "BackendInfo",
    "ReferenceBackend",
    "BlockedBackend",
    "ShadowBackend",
    "BackendMismatchError",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "make_engine",
]

#: Environment variable naming the default backend for engines built
#: without an explicit one (e.g. ``REPRO_BACKEND=shadow pytest``).
DEFAULT_BACKEND_ENV = "REPRO_BACKEND"


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------
#: The per-kind totals of a :class:`KernelProfile` and their value types.
_PER_KIND = {"calls": int, "site_units": int, "seconds": float, "bytes_moved": int}


@dataclass
class KernelProfile(KernelCounters):
    """Kernel counters extended with measured wall time and bytes moved.

    ``seconds[k]`` accumulates wall-clock time spent inside kernel ``k``;
    ``bytes_moved[k]`` accumulates the sizes of the arrays each call read
    and wrote (a traffic *lower bound* — NumPy temporaries are not
    counted).  Together with the inherited ``site_units`` these yield
    measured per-site times and effective intensities, the quantities the
    analytic cost model (:mod:`repro.perf.costmodel`) otherwise supplies
    from VM constants.
    """

    seconds: dict[KernelKind, float] = field(default_factory=dict)
    bytes_moved: dict[KernelKind, int] = field(default_factory=dict)

    def record_timed(
        self, kind: KernelKind, n_patterns: int, elapsed_s: float, nbytes: int
    ) -> None:
        self.record(kind, n_patterns)
        self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed_s
        self.bytes_moved[kind] = self.bytes_moved.get(kind, 0) + int(nbytes)

    def reset(self) -> None:
        """Zero the profile (counters, wall times, traffic).

        Profiles are **cumulative**: a backend instance keeps
        accumulating across every run (and every engine) that dispatches
        through it.  Reset between runs for per-run measurements.
        """
        super().reset()
        self.seconds.clear()
        self.bytes_moved.clear()

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate another profile's totals into this one (in place).

        Accepts a plain :class:`KernelCounters` too (seconds/bytes are
        then left untouched).  Callers aggregating across workers must
        dedupe *shared* backend instances by identity first — merging the
        same backend's profile once per worker would multiply every
        dispatch by the worker count (the double-counting bug fixed in
        the parallel-execution PR).
        """
        super().merge(other)
        if isinstance(other, KernelProfile):
            for mine, theirs in ((self.seconds, other.seconds),
                                 (self.bytes_moved, other.bytes_moved)):
                for kind, v in theirs.items():
                    mine[kind] = mine.get(kind, 0) + v

    def to_dict(self) -> dict:
        """Picklable plain-dict form (for cross-process profile reports)."""
        out = {f: {k.value: v for k, v in getattr(self, f).items()}
               for f in _PER_KIND}
        out["reductions"] = self.reductions
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "KernelProfile":
        p = cls()
        for f, cast in _PER_KIND.items():
            setattr(p, f, {KernelKind(k): cast(v) for k, v in d.get(f, {}).items()})
        p.reductions = int(d.get("reductions", 0))
        return p

    # -- aggregation to the merged kernel names ------------------------
    def merged_seconds(self) -> dict[str, float]:
        """Wall seconds aggregated like :meth:`KernelCounters.merged`."""
        return merged_by_key(self.seconds, 0.0)

    def merged_bytes(self) -> dict[str, int]:
        """Bytes moved aggregated like :meth:`merged_seconds`."""
        return merged_by_key(self.bytes_moved)


# ----------------------------------------------------------------------
# the kernel table
# ----------------------------------------------------------------------
class KernelResult(str, Enum):
    """What an entry point returns; fixes its output bytes and comparator."""

    CLA = "cla"  # (z, scale): CLA allclose, scale counters exact
    ARRAY = "array"  # one per-pattern array, allclose
    TERMS = "terms"  # per-pattern (l0, l1, l2) arrays, allclose
    SCALARS = "scalars"  # a float or a tuple of floats, isclose; no bytes


@dataclass(frozen=True)
class KernelSpec:
    """One public kernel entry point of every backend.

    ``params`` names the positional operands; ``sites`` is the operand
    whose leading axis is the site count; ``reads`` are the operands
    that count toward ``bytes_moved`` (array outputs always count);
    ``phase`` names the backend method that computes the result — a
    site-phase primitive, or a shared phase in :class:`_BackendBase`
    built on the primitives.
    """

    method: str
    kind: KernelKind
    phase: str
    params: str
    sites: str
    reads: str
    result: KernelResult


_TT = "u_inv lookup1 codes1 lookup2 codes2"
_TI = "u_inv lookup1 codes1 a2 z2 scale2"
_II = "u_inv a1 a2 z1 z2 scale1 scale2"
_DF = "eigenvalues rates rate_weights t"


def _cla(kind: KernelKind, phase: str, params: str, sites: str) -> KernelSpec:
    """A newview / pre-order row: every operand but ``u_inv`` is read."""
    reads = params.split(maxsplit=1)[1]
    return KernelSpec(
        kind.value, kind, phase, params, sites, reads, KernelResult.CLA
    )


#: The 13 public entry points.  Pre-order partials are the newview
#: primitives under their own counter kinds.
KERNEL_SPECS: tuple[KernelSpec, ...] = (
    _cla(KernelKind.NEWVIEW_TIP_TIP, "_tip_tip", _TT, "codes1"),
    _cla(KernelKind.NEWVIEW_TIP_INNER, "_tip_inner", _TI, "z2"),
    _cla(KernelKind.NEWVIEW_INNER_INNER, "_inner_inner", _II, "z1"),
    _cla(KernelKind.PREORDER_TIP_TIP, "_tip_tip", _TT, "codes1"),
    _cla(KernelKind.PREORDER_TIP_INNER, "_tip_inner", _TI, "z2"),
    _cla(KernelKind.PREORDER_INNER_INNER, "_inner_inner", _II, "z1"),
    KernelSpec(
        "site_log_likelihoods", KernelKind.EVALUATE, "_site_log_likelihoods",
        "z_left z_right exps rate_weights scale_counts", "z_left",
        "z_left z_right exps scale_counts", KernelResult.ARRAY,
    ),
    KernelSpec(
        "evaluate_edge", KernelKind.EVALUATE, "_evaluate_edge",
        "z_left z_right exps rate_weights pattern_weights scale_counts",
        "z_left", "z_left z_right exps pattern_weights scale_counts",
        KernelResult.SCALARS,
    ),
    KernelSpec(
        "derivative_sum", KernelKind.DERIVATIVE_SUM, "_product",
        "z_left z_right", "z_left", "z_left z_right", KernelResult.ARRAY,
    ),
    KernelSpec(
        "derivative_core", KernelKind.DERIVATIVE_CORE, "_derivative_core",
        f"sumbuf {_DF} pattern_weights", "sumbuf", "sumbuf pattern_weights",
        KernelResult.SCALARS,
    ),
    KernelSpec(
        "derivative_site_terms", KernelKind.DERIVATIVE_CORE,
        "_derivative_site_terms", f"sumbuf {_DF}", "sumbuf", "sumbuf",
        KernelResult.TERMS,
    ),
    KernelSpec(
        "edge_gradient", KernelKind.EDGE_GRADIENT, "_edge_gradient",
        f"z_top z_bottom {_DF} pattern_weights", "z_top",
        "z_top z_bottom pattern_weights", KernelResult.SCALARS,
    ),
    KernelSpec(
        "edge_gradient_terms", KernelKind.EDGE_GRADIENT,
        "_edge_gradient_terms", f"z_top z_bottom {_DF}", "z_top",
        "z_top z_bottom", KernelResult.TERMS,
    ),
)

#: ``KernelKind -> spec`` for the CLA-producing (newview/pre-order) rows.
CLA_SPECS: dict[KernelKind, KernelSpec] = {
    s.kind: s for s in KERNEL_SPECS if s.result is KernelResult.CLA
}


# ----------------------------------------------------------------------
# the backend protocol
# ----------------------------------------------------------------------
@runtime_checkable
class KernelBackend(Protocol):
    """The stable kernel API every PLF implementation provides.

    Signatures mirror the reference kernels in :mod:`repro.core.kernels`;
    ``profile`` accumulates per-kernel measurements across the backend's
    lifetime (a backend instance may be shared by several engines — e.g.
    the per-slice engines of a simulated sliced parallel run — in which
    case the profile aggregates across them).

    Backends may additionally implement the **optional** stacked-wave
    method (deliberately not part of the runtime-checkable protocol, so
    plain per-op backends keep satisfying ``isinstance`` checks)::

        def newview_batch(self, calls) -> list[tuple[ndarray, ndarray]]

    where ``calls`` is a sequence of
    :class:`repro.core.schedule.NewviewCall` — one wave of mutually
    independent ``newview`` ops with prepared operands.  The plan
    executor uses it for whole-wave dispatch when present and falls back
    to a per-op loop otherwise, so implementing it is purely an
    optimisation.  Backends derived from :class:`_BackendBase` get it by
    supplying a ``_pair_table`` primitive.
    """

    name: str
    description: str
    profile: KernelProfile

    def newview_tip_tip(
        self,
        u_inv: np.ndarray,
        lookup1: np.ndarray,
        codes1: np.ndarray,
        lookup2: np.ndarray,
        codes2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def newview_tip_inner(
        self,
        u_inv: np.ndarray,
        lookup1: np.ndarray,
        codes1: np.ndarray,
        a2: np.ndarray,
        z2: np.ndarray,
        scale2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def newview_inner_inner(
        self,
        u_inv: np.ndarray,
        a1: np.ndarray,
        a2: np.ndarray,
        z1: np.ndarray,
        z2: np.ndarray,
        scale1: np.ndarray,
        scale2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def site_log_likelihoods(
        self,
        z_left: np.ndarray,
        z_right: np.ndarray,
        exps: np.ndarray,
        rate_weights: np.ndarray,
        scale_counts: np.ndarray,
    ) -> np.ndarray: ...

    def evaluate_edge(
        self,
        z_left: np.ndarray,
        z_right: np.ndarray,
        exps: np.ndarray,
        rate_weights: np.ndarray,
        pattern_weights: np.ndarray,
        scale_counts: np.ndarray,
    ) -> float: ...

    def derivative_sum(
        self, z_left: np.ndarray, z_right: np.ndarray
    ) -> np.ndarray: ...

    def derivative_core(
        self,
        sumbuf: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
        pattern_weights: np.ndarray,
    ) -> tuple[float, float, float]: ...

    def derivative_site_terms(
        self,
        sumbuf: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    # -- bidirectional-plan kernels (gradient up-sweep) ----------------
    # Pre-order partials are the newview kernels (only the counted
    # KernelKind differs), and the fused edge-gradient kernel replaces a
    # derivativeSum + derivativeCore pair.
    preorder_tip_tip = newview_tip_tip
    preorder_tip_inner = newview_tip_inner
    preorder_inner_inner = newview_inner_inner

    def edge_gradient(
        self,
        z_top: np.ndarray,
        z_bottom: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
        pattern_weights: np.ndarray,
    ) -> tuple[float, float, float]: ...

    def edge_gradient_terms(
        self,
        z_top: np.ndarray,
        z_bottom: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...


# ----------------------------------------------------------------------
# the dispatch wrapper and the shared phases
# ----------------------------------------------------------------------
def _entry(spec: KernelSpec):
    """Build the public method for one table row.

    The one place that times a dispatch, records it in the backend's
    :class:`KernelProfile` and mirrors it to the obs layer.
    """
    params = spec.params.split()
    sites = params.index(spec.sites)
    reads = tuple(params.index(p) for p in spec.reads.split())
    kind, result = spec.kind, spec.result
    perf_counter, ndarray = time.perf_counter, np.ndarray

    def method(self, *args):
        t0 = perf_counter()
        out = self._run(spec, args)
        elapsed = perf_counter() - t0
        nbytes = 0
        for i in reads:
            a = args[i]
            if isinstance(a, ndarray):
                nbytes += a.nbytes
        if result is KernelResult.ARRAY:
            nbytes += out.nbytes
        elif result is not KernelResult.SCALARS:
            for a in out:
                nbytes += a.nbytes
        self._record(kind, args[sites].shape[0], t0, elapsed, nbytes)
        return out

    method.__name__ = spec.method
    method.__qualname__ = f"_BackendBase.{spec.method}"
    method.__signature__ = inspect.Signature(
        [inspect.Parameter("self", inspect.Parameter.POSITIONAL_ONLY)]
        + [inspect.Parameter(p, inspect.Parameter.POSITIONAL_ONLY)
           for p in params]
    )
    method.__doc__ = (
        f"``{spec.kind.value}`` kernel (see :data:`KERNEL_SPECS`); "
        f"computed by ``{spec.phase}``."
    )
    return method


class _BackendBase:
    """The table-driven kernel layer every concrete backend derives from.

    The public methods are built once from :data:`KERNEL_SPECS`.  A
    backend supplies only its site-phase primitives:

    * ``_tip_tip`` / ``_tip_inner`` / ``_inner_inner`` — CLA updates
      with the :mod:`repro.core.kernels` ``newview_*`` signatures;
    * ``_site_likelihoods(z_left, z_right, exps, rate_weights)`` —
      linear-scale per-pattern likelihoods;
    * ``_product(z_left, z_right)`` — the element-wise CLA product;
    * ``_factor_terms(sumbuf, m0, m1, m2)`` — per-pattern ``(l0, l1,
      l2)`` against the :func:`kernels.derivative_factors` tables;
    * ``_gradient_terms(z_top, z_bottom, m0, m1, m2)`` — the same,
      fused with the product;
    * optionally ``_ratio_terms(sumbuf, m0, m1, m2)`` — the site phase
      fused with :func:`kernels.derivative_ratios`, by default the two
      run one after the other;
    * optionally ``_pair_table(u_inv, lut1, lut2)`` — the all-pairs
      tip-tip table, which turns on the shared :meth:`newview_batch`.

    The log, the positivity checks, the factor tables and the reductions
    are the shared phases below, written once (a fused ``_ratio_terms``
    may flag non-positive sites itself, but raises through
    :func:`kernels.check_derivative_sites`).
    """

    name = "base"
    description = ""

    def __init__(self) -> None:
        self.profile = KernelProfile()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "_pair_table") and not hasattr(cls, "newview_batch"):
            cls.newview_batch = _newview_batch

    # -- dispatch ------------------------------------------------------
    def _run(self, spec: KernelSpec, args: tuple):
        """Compute one entry point (overridden by the shadow backend)."""
        return self._call(spec.phase, args)

    def _call(self, phase: str, args: tuple):
        """Run one phase (overridden by the compiled backend's fallback)."""
        return getattr(self, phase)(*args)

    def _record(
        self, kind: KernelKind, n_patterns: int, t0: float, elapsed: float,
        nbytes: int,
    ) -> None:
        """Account one dispatch in the profile and, if tracing, the obs layer.

        Disabled runs pay only the :data:`repro.obs.spans.ENABLED` check.
        The span rides on the interval already measured for the
        :class:`KernelProfile` — the two views of kernel time are
        therefore identical by construction, which is what lets
        :func:`repro.perf.trace.trace_from_spans` feed the measured-costs
        calibration path from a saved trace alone.
        """
        self.profile.record_timed(kind, n_patterns, elapsed, nbytes)
        if not _obs.ENABLED:
            return
        _obs.get_tracer().add_complete(
            "kernel." + kind.value, t0, t0 + elapsed,
            args={"patterns": int(n_patterns), "bytes": int(nbytes),
                  "backend": self.name},
        )
        reg = _obs_metrics.get_registry()
        reg.counter("repro_kernel_dispatch_total", "PLF kernel dispatches").inc()
        key = merged_kernel_key(kind)
        reg.histogram(
            "repro_kernel_seconds_" + key, f"wall seconds per {key} dispatch"
        ).observe(elapsed)

    # -- shared scalar phases ------------------------------------------
    def _site_log_likelihoods(self, z_left, z_right, exps, rate_weights,
                              scale_counts):
        return kernels.log_site_likelihoods(
            self._site_likelihoods(z_left, z_right, exps, rate_weights),
            scale_counts,
        )

    def _evaluate_edge(self, z_left, z_right, exps, rate_weights,
                       pattern_weights, scale_counts):
        lnls = self._site_log_likelihoods(
            z_left, z_right, exps, rate_weights, scale_counts
        )
        return float(np.dot(lnls, pattern_weights))

    def _derivative_site_terms(self, sumbuf, eigenvalues, rates,
                               rate_weights, t):
        return self._factor_terms(
            sumbuf, *kernels.derivative_factors(eigenvalues, rates,
                                                rate_weights, t)
        )

    def _derivative_core(self, sumbuf, eigenvalues, rates, rate_weights, t,
                         pattern_weights):
        return kernels.derivative_sums(
            *self._ratio_terms(
                sumbuf,
                *kernels.derivative_factors(eigenvalues, rates, rate_weights,
                                            t),
            ),
            pattern_weights,
        )

    def _ratio_terms(self, sumbuf, m0, m1, m2):
        return kernels.derivative_ratios(
            *self._factor_terms(sumbuf, m0, m1, m2)
        )

    def _edge_gradient_terms(self, z_top, z_bottom, eigenvalues, rates,
                             rate_weights, t):
        return self._gradient_terms(
            z_top, z_bottom,
            *kernels.derivative_factors(eigenvalues, rates, rate_weights, t),
        )

    def _edge_gradient(self, z_top, z_bottom, eigenvalues, rates,
                       rate_weights, t, pattern_weights):
        return kernels.derivative_reduce(
            *self._edge_gradient_terms(z_top, z_bottom, eigenvalues, rates,
                                       rate_weights, t),
            pattern_weights,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


for _spec in KERNEL_SPECS:
    setattr(_BackendBase, _spec.method, _entry(_spec))
del _spec


def _newview_batch(self, calls) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stacked ``newview`` dispatch for one wave of independent ops.

    The real win is the **tip-tip pair table**: within a wave, all
    tip-tip ops sharing the same two tip-lookup operands (the engine
    caches operands per branch *length*, so equal-length cherries share
    them — this is where P-matrix construction amortises) reduce to
    gathers from one precomputed table

        T[m, n, c, k] = sum_i u_inv[k, i] lut1[c, m, i] lut2[c, n, i]

    over the (tiny) code alphabet, turning four memory passes per op
    into a single contiguous gather ``z = T[codes1, codes2]``.  The
    backend's ``_pair_table`` builds ``T`` with the same per-site
    arithmetic as its tip-tip kernel, so gathered CLAs match per-op
    dispatch.

    Tip-inner / inner-inner ops and tables that would not pay
    (``m1 * m2`` beyond ``pair_table_max``, or fewer patterns than table
    entries) go through the per-op entry points.  Each gather is
    profiled and traced as one dispatch of its kind; the shared table
    build is charged to the group's first gather.  Results are returned
    in call order.
    """
    results: list = [None] * len(calls)
    groups: dict[tuple, list[int]] = {}
    for i, call in enumerate(calls):
        spec = CLA_SPECS[call.kind]
        if spec.phase == "_tip_tip":
            u_inv, lut1, codes1, lut2, _ = call.args
            entries = lut1.shape[1] * lut2.shape[1]
            if entries <= self.pair_table_max and codes1.shape[0] >= entries:
                groups.setdefault(
                    (call.kind, id(u_inv), id(lut1), id(lut2)), []
                ).append(i)
                continue
        results[i] = getattr(self, spec.method)(*call.args)
    for (kind, *_ids), idxs in groups.items():
        u_inv, lut1, _, lut2, _ = calls[idxs[0]].args
        t_table0 = time.perf_counter()
        table = self._call("_pair_table", (u_inv, lut1, lut2))
        table_s = time.perf_counter() - t_table0
        for j, i in enumerate(idxs):
            codes1, codes2 = calls[i].args[2], calls[i].args[4]
            t0 = time.perf_counter()
            z = table[codes1, codes2]
            sc = np.zeros(codes1.shape[0], dtype=np.int64)
            elapsed = time.perf_counter() - t0
            if j == 0:
                t0, elapsed = t_table0, elapsed + table_s
            nbytes = codes1.nbytes + codes2.nbytes + z.nbytes + sc.nbytes
            self._record(kind, codes1.shape[0], t0, elapsed, nbytes)
            results[i] = (z, sc)
    return results


# ----------------------------------------------------------------------
# reference backend
# ----------------------------------------------------------------------
class ReferenceBackend(_BackendBase):
    """NumPy ground-truth kernels (:mod:`repro.core.kernels`), unchanged."""

    name = "reference"
    description = "NumPy reference kernels, whole-array (ground truth)"

    _tip_tip = staticmethod(kernels.newview_tip_tip)
    _tip_inner = staticmethod(kernels.newview_tip_inner)
    _inner_inner = staticmethod(kernels.newview_inner_inner)
    _site_likelihoods = staticmethod(kernels.site_likelihoods)
    _product = staticmethod(kernels.derivative_sum)
    _factor_terms = staticmethod(kernels.factor_site_terms)

    @staticmethod
    def _gradient_terms(z_top, z_bottom, m0, m1, m2):
        return kernels.factor_site_terms(z_top * z_bottom, m0, m1, m2)


# ----------------------------------------------------------------------
# blocked backend (Sec. V-B cache blocking)
# ----------------------------------------------------------------------
def _tip_side(lookup: np.ndarray, codes: np.ndarray):
    """Chunk filler for a tip child: gather ``lookup`` rows by code."""

    def fill(v, start, stop):
        np.copyto(v, lookup[:, codes[start:stop], :].transpose(1, 0, 2))

    return fill


def _inner_side(a: np.ndarray, z: np.ndarray):
    """Chunk filler for an inner child: ``w = A z`` per rate."""

    def fill(v, start, stop):
        np.einsum("cik,pck->pci", a, z[start:stop], out=v)

    return fill


class BlockedBackend(_BackendBase):
    """Site-chunked kernels over preallocated scratch (Sec. V-B blocking).

    The reference ``newview`` materialises three full-width
    ``(patterns, rates, states)`` float64 temporaries; at 100K DNA+Gamma4
    patterns that is 3 x 12.8 MB streamed through memory four times.
    This backend processes the site dimension in chunks of
    ``block_sites`` patterns, reusing per-chunk scratch buffers that fit
    in L2, and writes results straight into the preallocated output —
    the same transformation the paper applies to the MIC kernels
    (process 8 sites per 512-bit register block, keep working sets
    on-chip).

    Per-site arithmetic is performed in the same order as the reference
    kernels, so CLAs are bit-identical; only cross-site reductions
    (``evaluate``/``derivativeCore`` accumulations) may differ at the
    last few ulps from summation reordering.

    Small inputs (``<= block_sites`` patterns) fall through to the
    whole-array path — blocking only pays once the temporaries outgrow
    the cache.
    """

    name = "blocked"
    description = (
        "site-chunked kernels over preallocated scratch (cache blocking); "
        "stacked tip-tip pair tables for whole-wave dispatch"
    )

    def __init__(self, block_sites: int = 2048, pair_table_max: int = 4096) -> None:
        if block_sites < 1:
            raise ValueError("block_sites must be positive")
        super().__init__()
        self.block_sites = int(block_sites)
        #: Largest ``codes1 x codes2`` pair-table the stacked tip-tip
        #: path will materialise (DNA ambiguity alphabet: 16 x 16 = 256).
        self.pair_table_max = int(pair_table_max)
        self._scratch: dict[tuple, np.ndarray] = {}

    # -- scratch management -------------------------------------------
    def _buf(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """A reusable scratch buffer for one (role, shape) slot."""
        full = (key, *shape)
        buf = self._scratch.get(full)
        if buf is None:
            buf = np.empty(shape)
            self._scratch[full] = buf
        return buf

    def _chunks(self, n: int):
        b = self.block_sites
        for start in range(0, n, b):
            yield start, min(start + b, n)

    # -- newview -------------------------------------------------------
    def _newview(self, u_inv, shape, side1, side2) -> np.ndarray:
        """Chunked ``z = U^-1 (w1 * w2)``; each side fills its ``w`` chunk."""
        p, c, k = shape
        z = np.empty(shape)
        w1 = self._buf("w1", (self.block_sites, c, k))
        w2 = self._buf("w2", (self.block_sites, c, k))
        for start, stop in self._chunks(p):
            v1, v2 = w1[: stop - start], w2[: stop - start]
            side1(v1, start, stop)
            side2(v2, start, stop)
            v1 *= v2
            np.einsum("ki,pci->pck", u_inv, v1, out=z[start:stop])
        return z

    def _tip_tip(self, u_inv, lookup1, codes1, lookup2, codes2):
        p = codes1.shape[0]
        if p <= self.block_sites:
            return kernels.newview_tip_tip(
                u_inv, lookup1, codes1, lookup2, codes2
            )
        c, _, k = lookup1.shape
        z = self._newview(
            u_inv, (p, c, k),
            _tip_side(lookup1, codes1), _tip_side(lookup2, codes2),
        )
        return z, np.zeros(p, dtype=np.int64)

    def _tip_inner(self, u_inv, lookup1, codes1, a2, z2, scale2):
        if z2.shape[0] <= self.block_sites:
            return kernels.newview_tip_inner(
                u_inv, lookup1, codes1, a2, z2, scale2
            )
        z = self._newview(
            u_inv, z2.shape, _tip_side(lookup1, codes1), _inner_side(a2, z2)
        )
        sc = scale2.copy()
        rescale_clv(z, sc)
        return z, sc

    def _inner_inner(self, u_inv, a1, a2, z1, z2, scale1, scale2):
        if z1.shape[0] <= self.block_sites:
            return kernels.newview_inner_inner(
                u_inv, a1, a2, z1, z2, scale1, scale2
            )
        z = self._newview(
            u_inv, z1.shape, _inner_side(a1, z1), _inner_side(a2, z2)
        )
        sc = scale1 + scale2
        rescale_clv(z, sc)
        return z, sc

    @staticmethod
    def _pair_table(u_inv, lut1, lut2):
        # (c, m, n, i): (l1 * l2) exactly as the per-op kernels
        # associate, then the u_inv contraction -> (m, n, c, k).
        prod = lut1[:, :, None, :] * lut2[:, None, :, :]
        return np.einsum("ki,cmni->mnck", u_inv, prod)

    def _products(self, key: str, a, b, shape):
        """``(start, stop, a * b)`` per chunk, the product in scratch.

        ``shape`` is the full ``(p, c, k)`` extent; tip views broadcast a
        length-1 rate axis.  ufunc ``out=`` is usable when the product
        already has the full rate axis, else it broadcasts on assignment
        (a two-tip root against a Gamma-width ``exps``).
        """
        tmp = self._buf(key, (self.block_sites, *shape[1:]))
        direct = np.broadcast_shapes(a.shape, b.shape) == shape
        for start, stop in self._chunks(shape[0]):
            v = tmp[: stop - start]
            if direct:
                np.multiply(a[start:stop], b[start:stop], out=v)
            else:
                v[:] = a[start:stop] * b[start:stop]
            yield start, stop, v

    @staticmethod
    def _contract(chunks, p: int, m0, m1, m2):
        """Per-pattern ``(l0, l1, l2)`` of chunked site data (reference order)."""
        l0, l1, l2 = np.empty(p), np.empty(p), np.empty(p)
        for start, stop, v in chunks:
            np.einsum("pck,ck->p", v, m0, out=l0[start:stop])
            np.einsum("pck,ck->p", v, m1, out=l1[start:stop])
            np.einsum("pck,ck->p", v, m2, out=l2[start:stop])
        return l0, l1, l2

    # -- evaluate ------------------------------------------------------
    def _site_likelihoods(self, z_left, z_right, exps, rate_weights) -> np.ndarray:
        """Chunked ``L_p = sum_c w_c sum_k zl zr exp`` (linear scale)."""
        shape = np.broadcast_shapes(z_left.shape, z_right.shape, (1, *exps.shape))
        if shape[0] <= self.block_sites:
            return kernels.site_likelihoods(z_left, z_right, exps, rate_weights)
        site_l = np.empty(shape[0])
        for start, stop, v in self._products("ev", z_left, z_right, shape):
            v *= exps[None, :, :]
            np.einsum("pck,c->p", v, rate_weights, out=site_l[start:stop])
        return site_l

    # -- derivatives ---------------------------------------------------
    @staticmethod
    def _product(z_left, z_right):
        out = np.empty(np.broadcast_shapes(z_left.shape, z_right.shape))
        np.multiply(z_left, z_right, out=out)
        return out

    def _factor_terms(self, sumbuf, m0, m1, m2):
        p = sumbuf.shape[0]
        if p <= self.block_sites:
            return kernels.factor_site_terms(sumbuf, m0, m1, m2)
        chunks = ((a, b, sumbuf[a:b]) for a, b in self._chunks(p))
        return self._contract(chunks, p, m0, m1, m2)

    def _gradient_terms(self, z_top, z_bottom, m0, m1, m2):
        """Fused ``(z_top * z_bottom)`` product + site terms, chunk by chunk.

        The element-wise CLA product never materialises at full width,
        and per-site values are bit-identical to the reference backend's.
        """
        shape = np.broadcast_shapes(z_top.shape, z_bottom.shape)
        if shape[0] <= self.block_sites:
            return kernels.factor_site_terms(z_top * z_bottom, m0, m1, m2)
        chunks = self._products("eg", z_top, z_bottom, shape)
        return self._contract(chunks, shape[0], m0, m1, m2)


# ----------------------------------------------------------------------
# shadow backend (cross-implementation oracle)
# ----------------------------------------------------------------------
class BackendMismatchError(AssertionError):
    """Two shadowed backends disagreed on a kernel result."""


class ShadowBackend(_BackendBase):
    """Run two backends per dispatch; assert they agree; return primary's.

    Turns any workload — the tier-1 test suite, a full tree search, an
    EPA placement run — into a cross-backend differential test: every
    public entry point of :data:`KERNEL_SPECS` is called on both
    ``primary`` and ``reference``, and the outputs are compared by the
    row's :class:`KernelResult` (CLAs and site arrays with ``allclose``
    tolerances, scale counters exactly, scalars with ``isclose``).  A
    :class:`BackendMismatchError` names the first kernel that diverges.

    The shadow's own :class:`KernelProfile` times the *combined*
    dispatch; the wrapped backends keep their individual profiles (so
    ``shadow.primary.profile`` still measures the primary alone).
    """

    name = "shadow"
    description = "runs blocked + reference per dispatch, asserts parity"

    def __init__(
        self,
        primary: KernelBackend | None = None,
        reference: KernelBackend | None = None,
        rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> None:
        super().__init__()
        self.primary = primary if primary is not None else BlockedBackend()
        self.reference = (
            reference if reference is not None else ReferenceBackend()
        )
        self.rtol = rtol
        self.atol = atol
        self.checks = 0  # dispatches verified so far

    def _run(self, spec: KernelSpec, args: tuple):
        out = getattr(self.primary, spec.method)(*args)
        ref = getattr(self.reference, spec.method)(*args)
        kernel = spec.method
        if spec.result is KernelResult.CLA:
            self._check_arrays(kernel, out[0], ref[0], "CLA")
            if not np.array_equal(out[1], ref[1]):
                self._fail(kernel, "scale counters differ")
        elif spec.result is KernelResult.ARRAY:
            self._check_arrays(kernel, out, ref, "values")
        elif spec.result is KernelResult.TERMS:
            for what, a, b in zip(("l0", "l1", "l2"), out, ref):
                self._check_arrays(kernel, a, b, what)
        else:
            for i, (x, y) in enumerate(
                zip(np.atleast_1d(out), np.atleast_1d(ref))
            ):
                if not np.isclose(x, y, rtol=self.rtol, atol=self.atol):
                    self._fail(kernel, f"value[{i}] = {x!r} vs {y!r}")
        self.checks += 1
        return out

    def _fail(self, kernel: str, detail: str) -> None:
        raise BackendMismatchError(
            f"backend {self.primary.name!r} disagrees with "
            f"{self.reference.name!r} on {kernel}: {detail}"
        )

    def _check_arrays(self, kernel: str, a: np.ndarray, b: np.ndarray, what: str) -> None:
        if a.shape != b.shape:
            self._fail(kernel, f"{what} shape {a.shape} vs {b.shape}")
        if not np.allclose(a, b, rtol=self.rtol, atol=self.atol):
            dev = float(np.max(np.abs(a - b)))
            self._fail(kernel, f"{what} max |delta| = {dev:g}")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendInfo:
    """Registry entry: construction recipe plus a one-line description."""

    name: str
    factory: Callable[[], KernelBackend]
    description: str


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str, factory: Callable[[], KernelBackend], description: str = ""
) -> None:
    """Register (or replace) a backend under ``name``.

    ``factory`` is called afresh for every :func:`get_backend` resolution
    so each engine stack gets its own profile/scratch state.
    """
    _REGISTRY[name] = BackendInfo(
        name=name, factory=factory, description=description
    )


def available_backends() -> list[BackendInfo]:
    """Registered backends in registration order."""
    return list(_REGISTRY.values())


def get_backend(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend spec to a live instance.

    ``None`` reads :data:`DEFAULT_BACKEND_ENV` (default ``reference``);
    a string is looked up in the registry (fresh instance per call); an
    already-constructed backend passes through unchanged — which is how
    multi-engine drivers (partitioned, simulated sliced parallel) share
    one instance and hence one aggregated profile.
    """
    if spec is None:
        spec = os.environ.get(DEFAULT_BACKEND_ENV, "reference")
    if isinstance(spec, str):
        info = _REGISTRY.get(spec)
        if info is None:
            names = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"unknown backend {spec!r} (registered: {names})")
        return info.factory()
    return spec


def resolve_backend_name(backend: "KernelBackend") -> str | None:
    """Map a backend *instance* back to its registry name, if registered.

    Worker pools and process-based engines ship backend *names* across
    the fork boundary (each worker builds its own instance), so call
    sites that accept instances use this to translate before spawning.
    Only exact-type matches against registrations whose factory *is* the
    class count; subclasses and ad-hoc instances return ``None``.
    """
    for name, info in _REGISTRY.items():
        if isinstance(info.factory, type) and type(backend) is info.factory:
            return name
    return None


register_backend(
    "reference", ReferenceBackend, ReferenceBackend.description
)
register_backend("blocked", BlockedBackend, BlockedBackend.description)
register_backend("shadow", ShadowBackend, ShadowBackend.description)

# Imported after the base classes exist (ckernels.backend subclasses
# _BackendBase); registering the class itself keeps resolve_backend_name
# working across the worker-pool fork boundary.
from .ckernels.backend import CompiledBackend  # noqa: E402

register_backend("compiled", CompiledBackend, CompiledBackend.description)


# ----------------------------------------------------------------------
# engine factory
# ----------------------------------------------------------------------
def make_engine(
    patterns: "PatternAlignment",
    tree: "Tree",
    model: "SubstitutionModel",
    rates: "GammaRates | None" = None,
    *,
    backend: "str | KernelBackend | None" = None,
    max_resident: int | None = None,
    cat: "CatRates | None" = None,
    p_inv: float | None = None,
    workers: int = 1,
    execution: str = "simulated",
    auto: bool = False,
) -> "LikelihoodEngine":
    """Single construction point for every engine flavour.

    Composes the orthogonal options in one place — the kernel backend,
    CLA memory saving (``max_resident``), CAT per-site rates (``cat``),
    the invariant-sites mixture (``p_inv``) and real parallel execution
    (``workers`` / ``execution``) — so call sites never hand-assemble
    engine subclasses.

    ``workers > 1`` returns a
    :class:`~repro.parallel.forkjoin.ForkJoinEngine` — the
    :class:`~repro.parallel.sliced.SlicedEngine` under the fork-join sync
    policy — running ``workers`` site slices on the given ``execution``
    substrate (``simulated``, ``threads`` or ``processes``); results stay
    bit-identical to the serial engine.  The parallel engines own OS
    resources — call ``close()`` (or use them as context managers) when
    done.

    ``auto=True`` (equivalently ``backend="auto"``) asks the autotuner
    (:mod:`repro.perf.autotune`) for the backend / execution / workers /
    block-size combination its cost model predicts fastest for this
    workload shape; the decision is cached per machine, so only the
    first call for a given shape pays the probe cost.  Explicitly
    passing ``workers > 1`` alongside ``auto`` keeps your worker count
    and tunes only the backend.

    Mutually exclusive combinations raise ``ValueError`` rather than
    silently picking one behaviour.
    """
    from .cat import CatLikelihoodEngine
    from .engine import LikelihoodEngine
    from .invariant import InvariantSitesEngine
    from .memsave import MemorySavingEngine

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(backend, str) and backend == "auto":
        backend, auto = None, True
    if auto:
        if backend is not None:
            raise ValueError("auto=True picks the backend; pass backend=None")
        # Lazy import: repro.perf imports repro.core, not vice versa.
        from ..perf.autotune import WorkloadSignature, autotune, build_backend

        if cat is not None:
            n_rates = int(np.asarray(cat.category_rates).shape[0])
        elif rates is not None:
            n_rates = int(rates.n_categories)
        else:
            n_rates = 4  # engine default (Gamma, four categories)
        signature = WorkloadSignature.from_workload(
            patterns.n_patterns, model.n_states, n_rates
        )
        chosen = autotune(signature).chosen
        if workers == 1 and chosen.workers > 1:
            workers, execution = chosen.workers, chosen.execution
        if workers > 1 and execution != "simulated":
            # Per-worker instances are built from a registry *name*;
            # a tuned block size cannot cross the fork boundary.
            backend = chosen.backend
        else:
            backend = build_backend(chosen)
    if workers > 1:
        if max_resident is not None or p_inv is not None:
            raise ValueError(
                "workers > 1 cannot be combined with max_resident or p_inv"
            )
        # Lazy import: repro.parallel imports repro.core, not vice versa.
        from ..parallel.forkjoin import ForkJoinEngine

        if cat is not None and rates is not None:
            raise ValueError("cat replaces Gamma rates; pass rates=None")
        return ForkJoinEngine(
            patterns,
            tree,
            model,
            rates,
            n_threads=workers,
            backend=backend,
            execution=execution,
            cat=cat,
        )

    resolved = get_backend(backend)
    if cat is not None:
        if max_resident is not None or p_inv is not None:
            raise ValueError(
                "cat cannot be combined with max_resident or p_inv"
            )
        if rates is not None:
            raise ValueError("cat replaces Gamma rates; pass rates=None")
        return CatLikelihoodEngine(patterns, tree, model, cat, backend=resolved)
    if p_inv is not None:
        if max_resident is not None:
            raise ValueError("p_inv cannot be combined with max_resident")
        return InvariantSitesEngine(
            patterns, tree, model, rates, p_inv=p_inv, backend=resolved
        )
    if max_resident is not None:
        return MemorySavingEngine(
            patterns, tree, model, rates,
            max_resident=max_resident, backend=resolved,
        )
    return LikelihoodEngine(patterns, tree, model, rates, backend=resolved)
