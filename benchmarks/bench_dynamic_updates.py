"""Extension benchmark (ours): dynamic maintenance vs rebuild.

The paper leaves dynamic distributed graphs to future work; the
library ships exact centralized maintenance (``repro.core.dynamic``).
This measures mean wall-clock cost of an incremental edge insertion /
deletion against rebuilding the index from scratch.  Insertion grows
exact entries from the new edge and drops the entries they dominate,
read off the backward label sets; deletion is a cut of the entries
whose pairs stopped reaching and a regain from the rows that lost one
(``docs/dynamic.md``): neither rebuilds, so each gets its own speed-up
column.  A write that leaves the transitive closure alone skips even
that, so each direction also reports the share of its writes that did
(``touched == (set(), set())``) — the mean is a blend of the two costs.
A promote moves a vertex from the lower half of the order to a third of
its rank: it re-ranks the band it jumps, grows the vertex's own entries
and drops the band entries read off its rows and the backward label
sets, walking no cone — its column is the mean per applied promote.

The wall-clock cells depend on the host, so they are printed only;
``benchmarks/results/dynamic_updates.txt`` keeps the free-% columns,
which a rerun reproduces.
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
#: The columns a rerun reproduces: what is saved.
SAVED = ("insert free (%)", "delete free (%)")


def _run() -> ExperimentTable:
    columns = [
        "insert (ms)", "delete (ms)", "promote (ms)", "rebuild (ms)",
        "insert speedup", "delete speedup", "promote speedup",
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

        by_rank = list(dynamic.order.by_rank())
        promoted = 0
        start = time.perf_counter()
        for v in rng.sample(by_rank[n // 2 :], NUM_UPDATES):
            promoted += dynamic.promote(v, dynamic.order.rank(v) // 3) is not None
        promote_ms = (time.perf_counter() - start) * 1e3 / promoted

        table.set(name, "insert (ms)", insert_ms)
        table.set(name, "delete (ms)", delete_ms)
        table.set(name, "promote (ms)", promote_ms)
        table.set(name, "rebuild (ms)", rebuild_ms)
        table.set(name, "insert speedup", rebuild_ms / max(insert_ms, 1e-9))
        table.set(name, "delete speedup", rebuild_ms / max(delete_ms, 1e-9))
        table.set(name, "promote speedup", rebuild_ms / max(promote_ms, 1e-9))
        table.set(name, "insert free (%)", 100.0 * insert_free / NUM_UPDATES)
        table.set(name, "delete free (%)", 100.0 * delete_free / NUM_UPDATES)
    return table


def _saved(table: ExperimentTable) -> ExperimentTable:
    """The :data:`SAVED` columns of ``table``."""
    saved = ExperimentTable(
        "Dynamic maintenance — share of writes that leave the closure alone",
        list(SAVED), precision=2,
    )
    for row in table.rows:
        for column in SAVED:
            saved.set(row, column, table.get(row, column))
    return saved


def test_dynamic_updates(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(table.render())
    save_and_print("dynamic_updates", _saved(table).render())
    for row in table.rows:
        # An insert costs what it changes (a few rows, no cone),
        # far below the half-rebuild a superset-and-sweep insert cost.
        assert table.get(row, "insert speedup").value > 4, row
        # A promote walks no cone: the two-cone promote it replaced
        # read 10-30x.
        assert table.get(row, "promote speedup").value > 40, row
    if "WEBW" in table.rows:
        # So must deletion, even where both cones span the hub core.
        assert table.get("WEBW", "delete speedup").value > 1.5


if __name__ == "__main__":
    print(_run().render())
