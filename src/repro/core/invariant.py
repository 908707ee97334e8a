"""Proportion-of-invariant-sites model: GTR + I + Gamma.

The classic extension of the paper's GTR+Gamma configuration: a fraction
``p_inv`` of sites is assumed strictly invariable (substitution rate 0),
the remainder evolves under the discrete Gamma, with the variable-class
rates rescaled by ``1/(1 - p_inv)`` so the expected rate stays 1 and
branch lengths keep their units.  Per site,

    L = p_inv * I(site) + (1 - p_inv) * L_Gamma(site)

where the invariant mass ``I`` is the stationary probability of a state
compatible with *every* tip character — a branch-length- and
topology-independent constant per pattern (the rate-0 transition matrix
is the identity), which is why the derivative kernels only need a
reweighting of the Gamma terms.

Numerically the mixture is combined in log space so the per-site scaling
counters of deep trees never have to be un-scaled (``exp(256 c ln 2)``
overflows immediately); the derivative path uses the identity
``d lnL/dt = (G/L) * d lnG/dt`` with the Gamma fraction ``G/L`` computed
from log quantities.
"""

from __future__ import annotations

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from . import kernels
from .backends import KernelBackend
from .engine import LikelihoodEngine
from .scaling import LOG_SCALE_STEP
from .traversal import KernelKind

__all__ = ["InvariantSitesEngine"]


class InvariantSitesEngine(LikelihoodEngine):
    """Likelihood engine under GTR(+Gamma)+I."""

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        p_inv: float = 0.1,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self._p_inv = None  # set_model runs before validation can happen
        super().__init__(patterns, tree, model, rates, backend=backend)
        self.set_p_inv(p_inv)

    # ------------------------------------------------------------------
    @property
    def p_inv(self) -> float:
        return self._p_inv if self._p_inv is not None else 0.0

    def set_p_inv(self, p_inv: float) -> None:
        """Set the invariable proportion; rescales the variable rates."""
        if not 0.0 <= p_inv < 1.0:
            raise ValueError(f"p_inv must be in [0, 1), got {p_inv}")
        self._p_inv = p_inv
        # re-derive rate_values with the new scaling (invalidates CLAs)
        self.set_model(self.model, self.rates_model)

    def set_model(self, model: SubstitutionModel, rates: GammaRates | None = None) -> None:
        super().set_model(model, rates)
        p = self.p_inv
        if p > 0.0:
            self.rate_values = self.rate_values / (1.0 - p)
        # invariant mass per pattern: pi-weighted compatibility of a
        # constant column (AND of all tip bitmask codes)
        mask = self.patterns.data[0].astype(np.uint64)
        for row in self.patterns.data[1:]:
            mask = mask & row.astype(np.uint64)
        compat = self.patterns.states.tip_rows(mask)  # (p, states)
        self._inv_mass = compat @ model.frequencies
        with np.errstate(divide="ignore"):
            self._log_inv_mass = np.log(self._inv_mass)

    # ------------------------------------------------------------------
    def site_log_likelihoods(self, root_edge: int | None = None) -> np.ndarray:
        lg = super().site_log_likelihoods(root_edge)  # true Gamma lnL
        p = self.p_inv
        if p == 0.0:
            return lg
        with np.errstate(divide="ignore"):
            log_inv = np.log(p) + self._log_inv_mass
        return np.logaddexp(log_inv, np.log1p(-p) + lg)

    def log_likelihood(self, root_edge: int | None = None) -> float:
        lnl = self.site_log_likelihoods(root_edge)
        return float(np.dot(lnl, self.patterns.weights))

    # ------------------------------------------------------------------
    def edge_sum_buffer(self, root_edge: int):
        """Sum buffer plus the root scale counters (both needed by +I)."""
        self.ensure_valid(root_edge)
        z_l, z_r, scales = self._root_sides(root_edge)
        sumbuf = self.backend.derivative_sum(z_l, z_r)
        self.counters.record(KernelKind.DERIVATIVE_SUM, self.patterns.n_patterns)
        return sumbuf, scales

    def _edge_gradient(self, z_top, z_bottom, scales, t):
        """Per-edge gradient under +I: reuse the mixture derivative math.

        The combined scale counters of the two partials give the true
        per-site Gamma magnitude the mixture weighting needs — which is
        exactly why the gradient op threads ``scales`` through.
        """
        sumbuf = self.backend.derivative_sum(z_top, z_bottom)
        return self.branch_derivatives((sumbuf, scales), t)

    def _edge_gradient_site_terms(self, z_top, z_bottom, t):
        raise NotImplementedError(
            "+I all-branch gradients are serial-only: the invariant mixture "
            "needs per-site scale counters, which the plain three-term "
            "parallel reduction does not carry"
        )

    def branch_derivatives(self, sumbuf_scales, t: float) -> tuple[float, float, float]:
        sumbuf, scales = sumbuf_scales
        l0, l1, l2 = kernels.derivative_site_terms(
            sumbuf, self.eigen.eigenvalues, self.rate_values,
            self.rate_weights, t,
        )
        self.counters.record(KernelKind.DERIVATIVE_CORE, self.patterns.n_patterns)
        w = self.patterns.weights
        p = self.p_inv
        if p == 0.0:
            return kernels.derivative_reduce(l0, l1, l2, w)
        if np.any(l0 <= 0.0):
            raise FloatingPointError("non-positive site likelihood in +I model")
        # Gamma fraction G/L per site, scale-count safe (log space):
        # log G = log(1-p) + log(l0_computed) - scales * LOG_SCALE_STEP
        with np.errstate(divide="ignore"):
            log_g = np.log1p(-p) + np.log(l0) - scales * LOG_SCALE_STEP
            log_inv = np.log(p) + self._log_inv_mass
        log_total = np.logaddexp(log_g, log_inv)
        g_frac = np.exp(log_g - log_total)
        r1 = g_frac * (l1 / l0)
        d2 = g_frac * (l2 / l0) - r1 * r1
        return (
            float(np.dot(log_total, w)),
            float(np.dot(r1, w)),
            float(np.dot(d2, w)),
        )
