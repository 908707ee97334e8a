"""Tests for branch/model optimisation, SPR search, and the full driver."""

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.phylo import GammaRates, gtr, random_topology, simulate_dataset
from repro.search import (
    SearchConfig,
    empirical_frequencies,
    ml_search,
    optimize_all_branches,
    optimize_alpha,
    optimize_branch,
    optimize_model,
    spr_round,
)


@pytest.fixture(scope="module")
def engine_setup():
    sim = simulate_dataset(n_taxa=8, n_sites=400, seed=31)
    pat = sim.alignment.compress()
    model = gtr(frequencies=empirical_frequencies(pat))
    return sim, pat, model


def fresh_engine(sim, pat, model, alpha=1.0):
    return LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(alpha, 4))


class TestBranchOpt:
    def test_single_branch_improves_lnl(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        eid = eng.tree.edge_ids[0]
        eng.tree.edge(eid).length = 2.0  # deliberately bad
        before = eng.log_likelihood()
        res = optimize_branch(eng, eid)
        after = eng.log_likelihood()
        assert after >= before
        assert res.length != pytest.approx(2.0)

    def test_optimum_has_zero_gradient(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        eid = eng.tree.edge_ids[1]
        optimize_branch(eng, eid)
        sumbuf = eng.edge_sum_buffer(eid)
        _, d1, d2 = eng.branch_derivatives(sumbuf, eng.tree.edge(eid).length)
        assert abs(d1) < 1e-4
        assert d2 < 0

    def test_smoothing_monotone(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        rng = np.random.default_rng(0)
        for e in eng.tree.edges:
            e.length = float(rng.uniform(0.01, 1.0))
        before = eng.log_likelihood()
        after = optimize_all_branches(eng, passes=3)
        assert after > before

    def test_recovers_known_branch_length(self):
        """On abundant data the ML branch length approaches the truth."""
        from repro.phylo import Tree, simulate_alignment

        model = gtr()
        tree = Tree.from_newick("((a:0.1,b:0.1):0.25,(c:0.1,d:0.1):0.25);")
        rng = np.random.default_rng(0)
        sim = simulate_alignment(tree, model, 50_000, rng)
        pat = sim.alignment.compress()
        eng = LikelihoodEngine(pat, tree.copy(), model, GammaRates(1.0, 1))
        optimize_all_branches(eng, passes=4)
        internals = eng.tree.internal_nodes()
        eid = eng.tree.find_edge(*internals)
        assert eng.tree.edge(eid).length == pytest.approx(0.5, abs=0.05)


class TestModelOpt:
    def test_alpha_recovery(self):
        sim = simulate_dataset(n_taxa=8, n_sites=5000, seed=32, alpha=0.4)
        pat = sim.alignment.compress()
        model = gtr(
            np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
            np.array([0.3, 0.2, 0.2, 0.3]),
        )
        eng = LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(2.0, 4))
        optimize_alpha(eng)
        assert eng.rates_model.alpha == pytest.approx(0.4, abs=0.12)

    def test_model_opt_monotone(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model, alpha=3.0)
        before = eng.log_likelihood()
        res = optimize_model(eng, max_rounds=2)
        assert res.lnl > before

    def test_empirical_frequencies_sane(self, engine_setup):
        _, pat, _ = engine_setup
        freqs = empirical_frequencies(pat)
        assert freqs.shape == (4,)
        assert freqs.sum() == pytest.approx(1.0)
        assert np.all(freqs > 0)


class TestSpr:
    def test_round_improves_bad_tree(self, engine_setup):
        sim, pat, model = engine_setup
        bad_tree = random_topology(list(pat.taxa), np.random.default_rng(123))
        eng = LikelihoodEngine(pat, bad_tree, model, GammaRates(1.0, 4))
        optimize_all_branches(eng, passes=2)
        stats = spr_round(eng, radius=5)
        assert stats.lnl_after >= stats.lnl_before
        assert stats.moves_tried > 0

    def test_round_on_optimal_tree_accepts_nothing(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        optimize_all_branches(eng, passes=3)
        stats = spr_round(eng, radius=3, epsilon=0.1)
        # true tree with optimised branches should be (near) SPR-optimal
        assert stats.moves_accepted <= 1


class TestFullSearch:
    def test_recovers_true_topology(self):
        sim = simulate_dataset(n_taxa=8, n_sites=800, seed=33)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(4,), max_spr_rounds=4)
        )
        assert res.tree.robinson_foulds(sim.tree) == 0

    def test_beats_starting_tree(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=34)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(4,), max_spr_rounds=3)
        )
        start_lnl = res.lnl_trajectory[0][1]
        assert res.lnl > start_lnl

    def test_trajectory_monotone(self):
        sim = simulate_dataset(n_taxa=7, n_sites=300, seed=35)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(3,), max_spr_rounds=3)
        )
        values = [v for _, v in res.lnl_trajectory]
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    def test_counters_populated(self):
        sim = simulate_dataset(n_taxa=6, n_sites=200, seed=36)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(3,), max_spr_rounds=2)
        )
        merged = res.counters.merged()
        assert merged["newview"] > 0
        assert merged["evaluate"] > 0
        assert merged["derivative_sum"] > 0
        assert merged["derivative_core"] > merged["derivative_sum"]
        assert res.counters.reductions > 0

    def test_user_starting_tree_respected(self):
        sim = simulate_dataset(n_taxa=6, n_sites=200, seed=37)
        start = sim.tree.copy()
        res = ml_search(
            sim.alignment,
            starting_tree=start,
            config=SearchConfig(radii=(3,), max_spr_rounds=1),
        )
        # the provided tree is copied, not mutated
        assert start.robinson_foulds(sim.tree) == 0
        assert res.lnl < 0


def _host_numerics() -> tuple[str, bool]:
    """NumPy version and AVX-512F: what picks NumPy's exp/log SIMD loops
    and the bundled BLAS kernels, and so the last bits of a search."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return np.__version__, bool(__cpu_features__.get("AVX512F"))


#: ``ml_search`` on ``simulate_dataset(8 taxa, 200 sites, seed 7)`` with
#: ``SearchConfig(seed=7)`` — the CLI's tiny CI alignment — recorded on
#: the host class below.
GOLDEN_HOST = ("2.4.6", True)
GOLDEN_SEARCH = {
    "compiled": (
        "-1239.915730321042",
        "(taxon00:0.060207,taxon07:0.064001,(taxon03:0.026333,(taxon01:"
        "0.111737,(taxon04:0.025798,(taxon06:0.280109,(taxon05:0.307833,"
        "taxon02:0.155902):0.193831):0.006316):0.204663):0.099529):0.214465);",
        {"derivative_core": 3234, "derivative_sum": 344, "evaluate": 415,
         "newview_inner_inner": 339, "newview_tip_inner": 1310,
         "newview_tip_tip": 633},
    ),
    "blocked": (
        "-1239.915743267738",
        "(taxon00:0.060207,taxon07:0.064000,(taxon03:0.026333,(taxon01:"
        "0.111737,(taxon04:0.025798,(taxon06:0.280110,(taxon05:0.307833,"
        "taxon02:0.155902):0.193830):0.006317):0.204663):0.099529):0.214467);",
        {"derivative_core": 2877, "derivative_sum": 344, "evaluate": 415,
         "newview_inner_inner": 339, "newview_tip_inner": 1310,
         "newview_tip_tip": 633},
    ),
}


@pytest.mark.skipif(
    _host_numerics() != GOLDEN_HOST,
    reason="golden trajectory recorded with NumPy 2.4.6 on an AVX-512 host",
)
@pytest.mark.parametrize("backend_name", sorted(GOLDEN_SEARCH))
def test_search_trajectory_golden(backend_name):
    """The search makes exactly the same moves, kernel calls and output
    bytes as when the figures were recorded.

    A Newton step accepted or damped on rounding noise changes the call
    counts, so a change meant to remove overhead only must keep every
    figure here; one that changes the arithmetic re-records them.
    """
    from repro.core.backends import BlockedBackend
    from repro.core.ckernels import CompiledBackend

    backend = {"compiled": CompiledBackend, "blocked": BlockedBackend}[
        backend_name
    ]()
    if getattr(backend, "fallback_reason", None):
        pytest.skip("no C toolchain: compiled would run blocked")
    sim = simulate_dataset(n_taxa=8, n_sites=200, seed=7)
    res = ml_search(sim.alignment, config=SearchConfig(seed=7), backend=backend)
    lnl, newick, calls = GOLDEN_SEARCH[backend_name]
    assert repr(res.lnl) == lnl
    assert res.newick == newick
    assert {k.value: n for k, n in backend.profile.calls.items()} == calls
