"""Regenerate ``expected_search.json``: the serial search result of each
member of the benchmark's dataset family.

Usage, from the root of a checkout::

    python3 perfbench/make_expected.py [--sites N] [--ids 0-47]

Entries are keyed ``"<sites>:<dataset id>"`` and merged into the file.
Run it only when a change is meant to alter search results; the
benchmark compares every search against these entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, N_DATASETS, SEARCH_SITES, WORK  # noqa: E402
from run import run_child  # noqa: E402


def parse_ids(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sites", type=int, default=SEARCH_SITES)
    ap.add_argument("--ids", default=f"0-{N_DATASETS - 1}")
    opts = ap.parse_args(argv)

    WORK.mkdir(parents=True, exist_ok=True)
    run_child("prime", {})
    path = HERE / "expected_search.json"
    table = json.loads(path.read_text()) if path.exists() else {}

    def one(dataset: int) -> tuple[str, dict]:
        report = run_child("search", {"dataset": dataset, "sites": opts.sites,
                                      "workers": 1, "trace": False})
        print(f"dataset {dataset}: lnL {report['lnl']}", flush=True)
        return f"{opts.sites}:{dataset}", {
            "lnl": report["lnl"], "newick": report["newick"],
            "kernel_calls": report["kernel_calls"],
        }

    with ThreadPoolExecutor(max_workers=2) as pool:
        table.update(pool.map(one, parse_ids(opts.ids)))
    ordered = dict(sorted(table.items(), key=lambda kv: tuple(
        int(x) for x in kv[0].split(":"))))
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
