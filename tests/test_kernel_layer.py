"""Kernel-layer accounting tests.

Golden profile: one fixed workload (an engine's ``log_likelihood``,
``site_log_likelihoods``, ``branch_derivatives`` and
``all_branch_gradients``, one call of every public kernel entry point,
and one multi-op wave through ``newview_batch``) must produce fixed
per-``KernelKind`` ``calls``, ``site_units`` and ``bytes_moved`` on every
backend and block size, the shadow backend's own profile included.
The numbers pin the byte-accounting rule of every entry point and of
the gathered pair-table path.

Spans: on every backend with a stacked ``newview_batch``, a traced run
emits exactly one ``kernel.*`` span per profiled dispatch — including
the tip-tip ops gathered from a shared pair table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.backends import (
    BlockedBackend,
    ReferenceBackend,
    ShadowBackend,
    make_engine,
)
from repro.core.ckernels import CompiledBackend
from repro.core.schedule import NewviewCall, dispatch_wave
from repro.core.traversal import KernelKind
from repro.phylo import GammaRates, gtr, simulate_dataset

N_STATES = 4
N_CODES = 16


def _operands(p: int = 300, c: int = 4) -> dict:
    rng = np.random.default_rng(41)
    return {
        "u_inv": rng.normal(size=(N_STATES, N_STATES)),
        "a1": rng.uniform(0.05, 1.0, size=(c, N_STATES, N_STATES)),
        "a2": rng.uniform(0.05, 1.0, size=(c, N_STATES, N_STATES)),
        "z1": rng.uniform(0.1, 1.0, size=(p, c, N_STATES)),
        "z2": rng.uniform(0.1, 1.0, size=(p, c, N_STATES)),
        "tip": rng.uniform(0.1, 1.0, size=(p, 1, N_STATES)),
        "scale1": rng.integers(0, 3, size=p),
        "scale2": rng.integers(0, 3, size=p),
        "lookup1": rng.uniform(0.1, 1.0, size=(c, N_CODES, N_STATES)),
        "lookup2": rng.uniform(0.1, 1.0, size=(c, N_CODES, N_STATES)),
        "codes": [rng.integers(0, N_CODES, size=p) for _ in range(6)],
        "exps": rng.uniform(0.1, 1.0, size=(c, N_STATES)),
        "rate_weights": np.full(c, 1.0 / c),
        "pattern_weights": rng.integers(1, 5, size=p).astype(float),
        "eigenvalues": np.concatenate(
            [[0.0], -rng.uniform(0.1, 2.0, size=N_STATES - 1)]
        ),
        "rates": rng.uniform(0.2, 3.0, size=c),
    }


def _wave(d: dict) -> list[NewviewCall]:
    """Seven independent ops: four tip-tip ops share one (lut1, lut2)
    pair (3 post-order, 1 pre-order), so a batching backend gathers them
    from two pair tables; the rest go down per op."""
    u, l1, l2, codes = d["u_inv"], d["lookup1"], d["lookup2"], d["codes"]
    tip_tip = [
        NewviewCall(None, kind, (u, l1, codes[i], l2, codes[i + 1]))
        for i, kind in enumerate([KernelKind.NEWVIEW_TIP_TIP] * 3
                                 + [KernelKind.PREORDER_TIP_TIP])
    ]
    return tip_tip + [
        NewviewCall(None, KernelKind.NEWVIEW_TIP_INNER,
                    (u, l1, codes[5], d["a2"], d["z2"], d["scale2"])),
        NewviewCall(None, KernelKind.PREORDER_TIP_INNER,
                    (u, l2, codes[4], d["a1"], d["z1"], d["scale1"])),
        NewviewCall(None, KernelKind.NEWVIEW_INNER_INNER,
                    (u, d["a1"], d["a2"], d["z1"], d["z2"],
                     d["scale1"], d["scale2"])),
    ]


def _direct_calls(backend, d: dict) -> None:
    """Every public entry point once, on fixed operands."""
    u, l1, l2, codes = d["u_inv"], d["lookup1"], d["lookup2"], d["codes"]
    z1, z2, tip = d["z1"], d["z2"], d["tip"]
    s1, s2 = d["scale1"], d["scale2"]
    for prefix in ("newview", "preorder"):
        getattr(backend, prefix + "_tip_tip")(u, l1, codes[0], l2, codes[1])
        getattr(backend, prefix + "_tip_inner")(u, l1, codes[2], d["a2"], z2, s2)
        getattr(backend, prefix + "_inner_inner")(
            u, d["a1"], d["a2"], z1, z2, s1, s2
        )
    factors = (d["eigenvalues"], d["rates"], d["rate_weights"], 0.13)
    backend.site_log_likelihoods(z1, tip, d["exps"], d["rate_weights"], s1)
    backend.evaluate_edge(
        z1, z2, d["exps"], d["rate_weights"], d["pattern_weights"], s1 + s2
    )
    sumbuf = backend.derivative_sum(z1, tip)
    backend.derivative_core(sumbuf, *factors, d["pattern_weights"])
    backend.derivative_site_terms(sumbuf, *factors)
    backend.edge_gradient(z1, tip, *factors, d["pattern_weights"])
    backend.edge_gradient_terms(z2, z1, *factors)


def _workload(backend) -> dict:
    sim = simulate_dataset(n_taxa=9, n_sites=400, seed=17)
    engine = make_engine(
        sim.alignment.compress(), sim.tree.copy(), gtr(),
        GammaRates(0.7), backend=backend,
    )
    engine.log_likelihood()
    engine.site_log_likelihoods()
    eid = engine.tree.edges[2].id
    engine.branch_derivatives(engine.edge_sum_buffer(eid), 0.09)
    engine.all_branch_gradients()
    d = _operands()
    _direct_calls(backend, d)
    dispatch_wave(backend, _wave(d))
    prof = backend.profile
    return {
        kind.value: (prof.calls[kind], prof.site_units[kind],
                     prof.bytes_moved[kind])
        for kind in sorted(prof.calls, key=lambda k: k.value)
    }


#: ``kind -> (calls, site_units, bytes_moved)``.  A per-op dispatch
#: counts its operands and outputs; a tip-tip op gathered from a shared
#: pair table counts its codes and outputs only, which is why the
#: batching backends move fewer tip-tip bytes than ``reference``.
PER_OP = {
    "derivative_core": (3, 874, 123664),
    "derivative_sum": (2, 574, 191616),
    "edge_gradient": (17, 4710, 982704),
    "evaluate": (4, 1148, 283968),
    "newview_inner_inner": (3, 874, 359664),
    "newview_tip_inner": (7, 1970, 564040),
    "newview_tip_tip": (7, 2022, 329440),
    "preorder_inner_inner": (6, 1670, 687504),
    "preorder_tip_inner": (11, 3066, 876776),
    "preorder_tip_tip": (2, 600, 99392),
}
GATHERED = {
    **PER_OP,
    "newview_tip_tip": (7, 2022, 304864),
    "preorder_tip_tip": (2, 600, 95296),
}

BACKENDS = {
    "reference": (ReferenceBackend, {}),
    "blocked": (BlockedBackend, {}),
    "blocked[17]": (BlockedBackend, {"block_sites": 17}),
    "compiled": (CompiledBackend, {}),
    "shadow": (ShadowBackend, {}),
}
GOLDEN = {
    "reference": PER_OP,
    "shadow": PER_OP,  # the shadow's own profile, by the same table rule
    "blocked": GATHERED,
    "blocked[17]": GATHERED,
    "compiled": GATHERED,
}
BATCHING = [k for k, (cls, _) in BACKENDS.items() if hasattr(cls, "newview_batch")]


def _make(label: str):
    cls, kwargs = BACKENDS[label]
    return cls(**kwargs)


@pytest.mark.parametrize("label", BACKENDS)
def test_profile_accounting_golden(label):
    assert _workload(_make(label)) == GOLDEN[label]


@pytest.mark.parametrize("label", BATCHING)
def test_every_profiled_dispatch_emits_one_span(label):
    backend = _make(label)
    sim = simulate_dataset(n_taxa=16, n_sites=300, seed=5)
    engine = make_engine(
        sim.alignment.compress(), sim.tree.copy(), gtr(),
        GammaRates(0.8), backend=backend,
    )
    tracer = obs.enable("spans")
    try:
        engine.log_likelihood()
        dispatch_wave(backend, _wave(_operands()))
    finally:
        obs.disable()
    kernel_spans = [s for s in tracer.spans if s.name.startswith("kernel.")]
    assert len(kernel_spans) == sum(backend.profile.calls.values())
    by_kind: dict[str, int] = {}
    for s in kernel_spans:
        kind = s.name.removeprefix("kernel.")
        by_kind[kind] = by_kind.get(kind, 0) + 1
    assert by_kind == {k.value: n for k, n in backend.profile.calls.items()}
