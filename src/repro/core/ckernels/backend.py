"""``compiled`` kernel backend: generated C behind the stable kernel API.

:class:`CompiledBackend` supplies the site-phase primitives of the
table-driven kernel layer (:class:`~repro.core.backends._BackendBase`)
— the three CLA updates, linear site likelihoods, the element-wise
product, the derivative and fused-gradient site terms and the tip-tip
pair table — by calling into shared objects built on demand by
:mod:`repro.core.ckernels.build` from :mod:`~repro.core.ckernels.
codegen` source, one object per ``(n_states, n_rates)`` pair, resolved
from operand shapes at call time.  The base class turns those into the
public entry points and the stacked ``newview_batch``.

Division of labour per kernel:

* all per-site arithmetic (CLA contractions, scaling, site-likelihood
  and derivative site phases, element-wise products) runs in C;
* for ``derivative_core`` on a C-contiguous sum buffer, one C pass also
  does the element-wise half of the reduction
  (:func:`repro.core.kernels.derivative_ratios`: the ``l <= 0`` flag,
  ``l'/l`` and ``l''/l - (l'/l)^2``).  Those are IEEE ``/``, ``*`` and
  ``-`` only, which give NumPy's bits when compiled without FMA
  contraction; the error for a flagged site is still raised by the
  shared NumPy check, so its text is the same.  Other layouts take the
  base class's two-step path;
* ``exp`` (the factor tables), ``np.log`` and the ``np.dot``
  reductions (:func:`repro.core.kernels.derivative_sums`, the
  ``evaluate`` dot) stay the base class's shared phases in NumPy, so
  every scalar the engines compare comes from the same code path as
  the reference backend.  They stay there because libm's ``exp`` and
  ``log`` round differently from NumPy's SIMD loops (on an AVX-512
  host ``exp`` differs in the last bit on about 5 % of inputs), and a
  Newton search turns one-ulp differences into a different trajectory.

ctypes releases the GIL for the duration of each call, so the
``threads`` worker substrate gets genuine parallel speedup from this
backend (NumPy kernels already release it inside ufuncs; here the whole
kernel body runs GIL-free).

When no C toolchain is available (or a compile fails), the instance
permanently degrades: a private :class:`~repro.core.backends.
BlockedBackend` supplies the primitives from then on, still under this
backend's own dispatch, profile and spans.  It emits a one-time
``RuntimeWarning`` and records the reason for ``repro backends``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .. import kernels
from ..backends import BlockedBackend, _BackendBase
from .build import CompilerUnavailable, load_kernels

__all__ = ["CompiledBackend"]

_warned_fallback = False


def _f64(a: np.ndarray) -> np.ndarray:
    """C-contiguous float64 view/copy (no copy on the engine hot path)."""
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _u32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.uint32)


def _estrides(a: np.ndarray) -> tuple[int, ...]:
    """Strides in elements (broadcast axes contribute 0)."""
    return tuple(s // a.itemsize for s in a.strides)


def _ref(a: np.ndarray) -> tuple[int, ...]:
    """``(address, element strides...)``: a strided operand as C takes it.

    The caller keeps ``a`` alive for the duration of the C call.
    """
    return (a.ctypes.data, *_estrides(a))


def _bcast(shape: tuple[int, ...], *arrays: np.ndarray) -> list[np.ndarray]:
    """Each operand as a float64 view broadcast to ``shape``."""
    return [np.broadcast_to(np.asarray(a, dtype=np.float64), shape) for a in arrays]


class CompiledBackend(_BackendBase):
    """Generated-C kernels loaded via ctypes (``backend="compiled"``)."""

    name = "compiled"
    description = (
        "C kernels generated per (states, rates), compiled at first use "
        "with the system compiler and loaded via ctypes; falls back to "
        "blocked when no toolchain is available"
    )

    def __init__(self, pair_table_max: int = 4096) -> None:
        super().__init__()
        self.pair_table_max = int(pair_table_max)
        self._libs: dict[tuple[int, int], object] = {}
        self._delegate: BlockedBackend | None = None
        self.fallback_reason: str | None = None
        try:
            from .build import probe_toolchain

            probe_toolchain()
        except CompilerUnavailable as exc:
            self._activate_fallback(str(exc))

    # -- toolchain plumbing -------------------------------------------
    def _activate_fallback(self, reason: str) -> None:
        global _warned_fallback
        self.fallback_reason = reason
        self._delegate = BlockedBackend(pair_table_max=self.pair_table_max)
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                f"compiled kernels unavailable ({reason}); "
                "falling back to the blocked backend",
                RuntimeWarning,
                stacklevel=3,
            )

    def _call(self, phase: str, args: tuple):
        """Run one phase in C; on a compile failure, degrade for good."""
        if self._delegate is None:
            try:
                return getattr(self, phase)(*args)
            except CompilerUnavailable as exc:
                self._activate_fallback(str(exc))
        return getattr(self._delegate, phase)(*args)

    def _lib(self, states: int, rates: int):
        key = (states, rates)
        lib = self._libs.get(key)
        if lib is None:
            lib = load_kernels(states, rates)
            self._libs[key] = lib
        return lib

    # -- newview -------------------------------------------------------
    def _tip_tip(self, u_inv, lookup1, codes1, lookup2, codes2):
        lookup1, lookup2 = _f64(lookup1), _f64(lookup2)
        codes1, codes2 = _u32(codes1), _u32(codes2)
        c, m1, k = lookup1.shape
        p = codes1.shape[0]
        z = np.empty((p, c, k))
        u_inv = np.asarray(u_inv, dtype=np.float64)
        self._lib(k, c).nv_tip_tip(
            p, *_ref(u_inv),
            lookup1.ctypes.data, m1, codes1.ctypes.data,
            lookup2.ctypes.data, lookup2.shape[1], codes2.ctypes.data,
            z.ctypes.data,
        )
        return z, np.zeros(p, dtype=np.int64)

    def _tip_inner(self, u_inv, lookup1, codes1, a2, z2, scale2):
        lookup1, a2, z2 = _f64(lookup1), _f64(a2), _f64(z2)
        codes1 = _u32(codes1)
        p, c, k = z2.shape
        z = np.empty((p, c, k))
        sc = np.empty(p, dtype=np.int64)
        u_inv = np.asarray(u_inv, dtype=np.float64)
        self._lib(k, c).nv_tip_inner(
            p, *_ref(u_inv),
            lookup1.ctypes.data, lookup1.shape[1], codes1.ctypes.data,
            a2.ctypes.data, z2.ctypes.data,
            _i64(scale2).ctypes.data,
            z.ctypes.data, sc.ctypes.data,
        )
        return z, sc

    def _inner_inner(self, u_inv, a1, a2, z1, z2, scale1, scale2):
        a1, a2, z1, z2 = _f64(a1), _f64(a2), _f64(z1), _f64(z2)
        p, c, k = z1.shape
        z = np.empty((p, c, k))
        sc = np.empty(p, dtype=np.int64)
        u_inv = np.asarray(u_inv, dtype=np.float64)
        self._lib(k, c).nv_inner_inner(
            p, *_ref(u_inv),
            a1.ctypes.data, a2.ctypes.data,
            z1.ctypes.data, z2.ctypes.data,
            _i64(scale1).ctypes.data, _i64(scale2).ctypes.data,
            z.ctypes.data, sc.ctypes.data,
        )
        return z, sc

    def _pair_table(self, u_inv, lut1, lut2):
        """All-pairs tip-tip table, by the per-op kernel's C arithmetic.

        Gathered CLAs are therefore bit-identical to per-op dispatch.
        """
        lut1, lut2 = _f64(lut1), _f64(lut2)
        c, m1, k = lut1.shape
        m2 = lut2.shape[1]
        table = np.empty((m1, m2, c, k))
        u_inv = np.asarray(u_inv, dtype=np.float64)
        self._lib(k, c).tip_pair_table(
            *_ref(u_inv), lut1.ctypes.data, m1, lut2.ctypes.data, m2,
            table.ctypes.data,
        )
        return table

    # -- evaluate ------------------------------------------------------
    def _site_likelihoods(self, z_left, z_right, exps, rate_weights):
        """Linear-scale per-site likelihoods via the C site loop."""
        exps, rate_weights = _f64(exps), _f64(rate_weights)
        c, k = exps.shape
        shape = np.broadcast_shapes(z_left.shape, z_right.shape, (1, c, k))
        zl, zr = _bcast(shape, z_left, z_right)
        out = np.empty(shape[0])
        self._lib(k, c).evaluate_site(
            shape[0], *_ref(zl), *_ref(zr),
            exps.ctypes.data, rate_weights.ctypes.data, out.ctypes.data,
        )
        return out

    # -- derivatives ---------------------------------------------------
    def _product(self, z_left, z_right):
        shape = np.broadcast_shapes(z_left.shape, z_right.shape)
        zl, zr = _bcast(shape, z_left, z_right)
        out = np.empty(shape)
        self._lib(shape[2], shape[1]).ew_product(
            shape[0], *_ref(zl), *_ref(zr), out.ctypes.data
        )
        return out

    def _factor_terms(self, sumbuf, m0, m1, m2):
        m0, m1, m2 = _f64(m0), _f64(m1), _f64(m2)
        c, k = m0.shape
        shape = np.broadcast_shapes(sumbuf.shape, (1, c, k))
        (sb,) = _bcast(shape, sumbuf)
        l0, l1, l2 = np.empty(shape[0]), np.empty(shape[0]), np.empty(shape[0])
        self._lib(k, c).deriv_site_terms(
            shape[0], *_ref(sb),
            m0.ctypes.data, m1.ctypes.data, m2.ctypes.data,
            l0.ctypes.data, l1.ctypes.data, l2.ctypes.data,
        )
        return l0, l1, l2

    def _ratio_terms(self, sumbuf, m0, m1, m2):
        """Site terms and :func:`~repro.core.kernels.derivative_ratios` in
        one C pass over a C-contiguous float64 sum buffer.

        ``m0``/``m1``/``m2`` are the fresh C-contiguous float64 ``(c, k)``
        tables of :func:`~repro.core.kernels.derivative_factors`.  Any
        other sum-buffer layout takes the base class's two-step path.
        """
        if not (
            sumbuf.dtype == np.float64
            and sumbuf.flags.c_contiguous
            and sumbuf.shape[1:] == m0.shape
        ):
            return super()._ratio_terms(sumbuf, m0, m1, m2)
        p, c, k = sumbuf.shape
        out = np.empty((3, p))
        if self._lib(k, c).deriv_core_terms(
            p, sumbuf.ctypes.data, m0.ctypes.data, m1.ctypes.data,
            m2.ctypes.data, out.ctypes.data,
        ):
            kernels.check_derivative_sites(out[0])
        return out[0], out[1], out[2]

    def _gradient_terms(self, z_top, z_bottom, m0, m1, m2):
        m0, m1, m2 = _f64(m0), _f64(m1), _f64(m2)
        c, k = m0.shape
        shape = np.broadcast_shapes(z_top.shape, z_bottom.shape, (1, c, k))
        zt, zb = _bcast(shape, z_top, z_bottom)
        l0, l1, l2 = np.empty(shape[0]), np.empty(shape[0]), np.empty(shape[0])
        self._lib(k, c).grad_site_terms(
            shape[0], *_ref(zt), *_ref(zb),
            m0.ctypes.data, m1.ctypes.data, m2.ctypes.data,
            l0.ctypes.data, l1.ctypes.data, l2.ctypes.data,
        )
        return l0, l1, l2
