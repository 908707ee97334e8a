"""Shared definitions of the benchmark: workload shapes, inputs, /proc probes.

Everything here is used by both the orchestrator (``run.py``) and the
measured processes (``child.py``); importing it starts nothing.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

BACKEND = "compiled"

# -- search ---------------------------------------------------------
# The paper's Table III shape: 15 taxa, GTR+Gamma4 DNA.  1 000 sites keep
# one serial search near 6 s on a 2-CPU host, so a run can cover several
# datasets (the search trajectory, not the site count, dominates the
# run-to-run spread between seeds).
SEARCH_TAXA = 15
SEARCH_SITES = 1000
#: Size of the dataset family; ``expected_search.json`` holds the
#: committed serial result of every member.
N_DATASETS = 48
#: Sizes a run: one fresh search process (set-up plus search) takes about
#: this long on a 2-CPU host, so a run of S seconds searches S / 8 datasets.
TREE_BUDGET_S = 8.0
#: Stated tolerance of the serial-search lnL check (absolute lnL units):
#: the summation order of BLAS-backed reductions may move the last digits.
LNL_TOLERANCE = 1e-3

# -- serve ----------------------------------------------------------
SERVE_TAXA = 32          # 24 reference taxa + 8 held-out query taxa
SERVE_QUERY_TAXA = 8
SERVE_SITES = 1000
TENANT = "bench"
KEEP_BEST = 5
#: Closed-loop capacity with 2 clients, measured on a 2-CPU host; it sizes
#: the closed loop, and the open loop offers half of it.
CAPACITY_QPS = 5.0
OPEN_LOOP_QPS = CAPACITY_QPS / 2
#: A request slower than this (timed from when it was due) has failed.
LATENCY_LIMIT_S = 5.0
PARITY_SAMPLES = 3

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_expected() -> dict:
    """The committed serial search results, keyed ``"<sites>:<dataset id>"``."""
    return json.loads((HERE / "expected_search.json").read_text())


def dataset_ids(seed: int, sites: int, expected: dict, count: int) -> list[int]:
    """The ``count`` members of the dataset family that ``seed`` selects.

    The family is ordered by the committed kernel-call count of its
    serial search; its lightest and heaviest sixths are left out, and the
    rest is split into ``count`` strata from which the seed draws one
    member each.  Every run then searches the same mix of light and
    heavy datasets, which keeps the seeds' wall times comparable.
    """
    family = sorted(
        (entry["kernel_calls"], int(key.split(":")[1]))
        for key, entry in expected.items() if int(key.split(":")[0]) == sites
    )
    trim = len(family) // 6
    family = family[trim:len(family) - trim]
    if len(family) < count:
        raise ValueError(f"no committed dataset family of {count} at {sites} sites")
    rng = random.Random(seed)
    per = len(family) // count
    return [family[i * per + rng.randrange(per)][1] for i in range(count)]


def search_dataset(dataset_id: int, sites: int = SEARCH_SITES):
    """Simulated alignment of one family member (``SimulationResult``)."""
    from repro.phylo import simulate_dataset

    return simulate_dataset(
        n_taxa=SEARCH_TAXA, n_sites=sites, seed=10_000 + dataset_id
    )


def serve_inputs(seed: int, sites: int = SERVE_SITES):
    """Reference alignment + tree, and the held-out query sequences.

    The reference tree is the generating tree with the query taxa
    pruned off, so the server starts without a search.
    """
    import numpy as np

    from repro.phylo import simulate_dataset
    from repro.phylo.alignment import Alignment

    sim = simulate_dataset(n_taxa=SERVE_TAXA, n_sites=sites, seed=20_000 + seed)
    aln, tree = sim.alignment, sim.tree.copy()
    rng = np.random.default_rng(seed)
    held_out = sorted(
        rng.choice(aln.taxa, size=SERVE_QUERY_TAXA, replace=False).tolist()
    )
    for name in held_out:
        leaf = tree.node_by_name(name)
        pend = tree.incident_edges(leaf)[0]
        tree.prune_subtree(pend, subtree_root=leaf)
        tree.remove_node(leaf)
    reference = Alignment.from_sequences(
        {t: aln.sequence(t) for t in aln.taxa if t not in held_out}
    )
    queries = {t: aln.sequence(t) for t in held_out}
    return reference, tree, queries


# -- /proc probes -----------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of every thread of ``pid``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` that are alive now."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS summed over ``pid`` and its live descendants."""
    total = proc_peak_rss_mb(pid)
    for child in child_pids(pid):
        try:
            total += tree_peak_rss_mb(child)
        except OSError:  # exited while we looked
            continue
    return total


def arena_segments(pid: int) -> list[str]:
    """Shared-memory arena segments created by process ``pid``."""
    prefix = f"repro-arena-{pid}-"
    try:
        return sorted(e for e in os.listdir("/dev/shm") if e.startswith(prefix))
    except OSError:
        return []
