"""Extension benchmark (ours): dynamic maintenance vs rebuild.

The paper leaves dynamic distributed graphs to future work; the
library ships exact centralized maintenance (``repro.core.dynamic``).
This measures mean wall-clock cost of an incremental edge insertion /
deletion against rebuilding the index from scratch.  Insertion is two
rank floods plus set algebra, deletion the rank-ordered cone repair
(``docs/dynamic.md``): neither rebuilds, so each gets its own speed-up
column.  A write that leaves the transitive closure alone skips even
that, so each direction also reports the share of its writes that did
(``touched == (set(), set())``) — the mean is a blend of the two costs.
"""

from __future__ import annotations

import random
import time

from conftest import FIG_DATASETS, save_and_print

from repro.bench.results import ExperimentTable
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.workloads.datasets import get_dataset

DATASETS = ("WEBW", "TW") if FIG_DATASETS is None else FIG_DATASETS
NUM_UPDATES = 60


def _run() -> ExperimentTable:
    columns = [
        "insert (ms)", "delete (ms)", "rebuild (ms)",
        "insert speedup", "delete speedup",
        "insert free (%)", "delete free (%)",
    ]
    table = ExperimentTable(
        "Dynamic maintenance — mean wall ms per operation", columns, precision=2
    )
    for name in DATASETS:
        graph = get_dataset(name).load()
        dynamic = DynamicReachabilityIndex(graph)
        rng = random.Random(5)
        n = graph.num_vertices

        start = time.perf_counter()
        tol_index(dynamic.current_graph(), dynamic.order)
        rebuild_ms = (time.perf_counter() - start) * 1e3

        untouched = (set(), set())  # what a closure-preserving write reports
        inserted = []
        insert_free = delete_free = 0
        start = time.perf_counter()
        while len(inserted) < NUM_UPDATES:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if dynamic.insert_edge(u, v):
                inserted.append((u, v))
                insert_free += dynamic.touched == untouched
        insert_ms = (time.perf_counter() - start) * 1e3 / NUM_UPDATES

        start = time.perf_counter()
        for u, v in inserted:
            dynamic.delete_edge(u, v)
            delete_free += dynamic.touched == untouched
        delete_ms = (time.perf_counter() - start) * 1e3 / NUM_UPDATES

        table.set(name, "insert (ms)", insert_ms)
        table.set(name, "delete (ms)", delete_ms)
        table.set(name, "rebuild (ms)", rebuild_ms)
        table.set(name, "insert speedup", rebuild_ms / max(insert_ms, 1e-9))
        table.set(name, "delete speedup", rebuild_ms / max(delete_ms, 1e-9))
        table.set(name, "insert free (%)", 100.0 * insert_free / NUM_UPDATES)
        table.set(name, "delete free (%)", 100.0 * delete_free / NUM_UPDATES)
    return table


def test_dynamic_updates(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_and_print("dynamic_updates", table.render())
    for row in table.rows:
        # An insert costs what it changes (two cone floods, a few rows),
        # far below the half-rebuild a superset-and-sweep insert cost.
        assert table.get(row, "insert speedup").value > 4, row
    if "WEBW" in table.rows:
        # So must deletion, even where both cones span the hub core.
        assert table.get("WEBW", "delete speedup").value > 1.5


if __name__ == "__main__":
    print(_run().render())
