#!/usr/bin/env python
"""Multi-card scaling study: Table III, Figures 4 and 5 end to end.

Reproduces the paper's application-level evaluation from one script:

1. regenerates Table III's time and speedup matrix from the trace-driven
   platform models,
2. derives Figure 4 (2-MIC vs 1-MIC) and Figure 5 (energy),
3. demonstrates the *functional* side: ExaML's distributed likelihood on
   simulated MPI ranks is bit-identical to the serial engine (the
   printed difference is 0) while the modelled AllReduce time is
   accounted.

Run:  python examples/multi_card_scaling.py
"""

from repro.core import LikelihoodEngine
from repro.harness.figure4 import render_figure4
from repro.harness.figure5 import render_figure5
from repro.harness.table3 import render_table3
from repro.parallel import DistributedEngine, SimMPI
from repro.parallel.hybrid import MIC_ONCARD_MPI
from repro.parallel.simmpi import PCIE_MIC_MIC
from repro.phylo import GammaRates, gtr, simulate_dataset


def main() -> None:
    print(render_table3())
    print()
    print(render_figure4())
    print()
    print(render_figure5())

    print("\nFunctional check: ExaML's scheme on simulated ranks")
    print("=" * 55)
    sim = simulate_dataset(n_taxa=15, n_sites=5000, seed=3)
    patterns = sim.alignment.compress()
    model, gamma = gtr(), GammaRates(0.8, 4)

    serial = LikelihoodEngine(patterns, sim.tree.copy(), model, gamma)
    lnl_serial = serial.log_likelihood()

    # 4 ranks as on two MIC cards: 2 ranks/card, cards over PCIe
    mpi = SimMPI(
        4, interconnect=MIC_ONCARD_MPI, inter=PCIE_MIC_MIC, ranks_per_group=2
    )
    dist = DistributedEngine(
        patterns, sim.tree.copy(), model, gamma, n_ranks=4, mpi=mpi
    )
    lnl_dist = dist.log_likelihood()
    print(f"serial lnL:      {lnl_serial:.6f}")
    print(f"distributed lnL: {lnl_dist:.6f}  (4 ranks, 2 cards)")
    print(f"difference:      {abs(lnl_serial - lnl_dist):.2e}")

    # a branch optimisation pass to exercise derivative reductions
    from repro.search import optimize_all_branches

    optimize_all_branches(dist, passes=1)
    print(
        f"after one smoothing pass: {mpi.allreduce_calls} AllReduce calls, "
        f"modelled communication time {mpi.comm_seconds * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
