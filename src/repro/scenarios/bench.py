"""The `repro serve-bench` tables: cached vs uncached serving.

:func:`serve_bench` runs one :class:`~repro.scenarios.spec.ScenarioSpec`
through the scenario runner once per row (the uncached row at
``cache_size=0``), so every served answer is audited as in any
scenario.  The rows land in one
:class:`~repro.bench.results.ExperimentTable`: directly comparable, and
gate-able by the baseline machinery (``--save-baseline`` /
``--check-baseline``).  Every number is simulated, so the committed
``benchmarks/baselines/serve-bench*.json`` reproduce bit for bit on an
unchanged tree.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.results import ExperimentTable
from repro.graph.digraph import DiGraph
from repro.scenarios.runner import ScenarioResult, run_scenario, serving_index
from repro.scenarios.spec import ScenarioSpec

# Column → the ServeReport attribute it prints, in print order.
_CELLS = {
    "throughput q/s": "throughput",
    "p50 s": "p50_seconds",
    "p99 s": "p99_seconds",
    "p999 s": "p999_seconds",
    "hit rate": "cache_hit_rate",
    "shard skew": "shard_skew",
    "shed": "shed",
    "served": "served",
}
_MIXED_CELLS = {
    "read q/s": "throughput",
    "update u/s": "update_throughput",
    "p50 s": "p50_seconds",
    "p99 s": "p99_seconds",
    "write p99 s": "mutation_p99_seconds",
    "staleness s": "staleness_window_seconds",
    "hit rate": "cache_hit_rate",
    "stale reads": "stale_reads",
    "served": "served",
    "applied": "mutations_applied",
}

# The description of a row spec whose graph was handed in, not generated.
_GIVEN_GRAPH = "serves a graph given by the caller; the graph block is unused"

#: Columns of the serve-bench table, in print order.
COLUMNS = list(_CELLS)

#: Columns of the mixed (read/write) serve-bench table.
MIXED_COLUMNS = list(_MIXED_CELLS)


def serve_bench(
    spec: ScenarioSpec,
    graph: DiGraph | None = None,
    rows: tuple[str, ...] = ("cached", "uncached"),
) -> tuple[ExperimentTable, dict[str, ScenarioResult]]:
    """Run the serving benchmark; returns ``(table, results by row)``.

    One table row per name in ``rows``, each a fresh run of ``spec``:
    ``"cached"`` runs it as it is, ``"uncached"`` at ``cache_size=0``.
    With no ``graph`` the one ``spec.graph`` names is generated; any
    other graph (an edge-list file's) is served as given, and each
    row's spec description says so.  A spec with updates is the mixed
    read/write bench (:data:`MIXED_COLUMNS`).  A static index is built
    once and shared by the rows; a dynamic leader, which the writes
    change, is built afresh per row.
    """
    if graph is None:
        graph = spec.graph.build()
    else:
        spec = replace(spec, description=_GIVEN_GRAPH)
    serving, traffic, updates = spec.serving, spec.traffic, spec.updates
    if updates is None:
        name, cells = "serve-bench", _CELLS
        workload = f"{traffic.shape} workload ({traffic.requests} requests)"
    else:
        name, cells = "serve-bench mixed", _MIXED_CELLS
        # The committed baseline's keys hold no shape: name only another.
        shape = "" if traffic.shape == "poisson" else f"{traffic.shape} "
        workload = (
            f"x{serving.replicas} ({traffic.requests} {shape}reads "
            f"+ {updates.count} writes)"
        )
    table = ExperimentTable(
        title=f"{name} — n={graph.num_vertices} m={graph.num_edges} "
        f"shards={serving.shards} {workload}",
        columns=list(cells),
        scientific=True,
    )
    index = None if spec.dynamic else serving_index(spec, graph)
    row_specs = {
        "cached": spec,
        "uncached": replace(spec, serving=replace(serving, cache_size=0)),
    }
    results: dict[str, ScenarioResult] = {}
    for row in rows:
        result = results[row] = run_scenario(row_specs[row], graph, index=index)
        for column, attribute in cells.items():
            table.set(row, column, float(getattr(result.report, attribute)))
    return table, results


def caching_speedup(results: dict[str, ScenarioResult]) -> float | None:
    """Cached/uncached throughput ratio, when both rows were run."""
    cached = results.get("cached")
    uncached = results.get("uncached")
    if cached is None or uncached is None or not uncached.report.throughput:
        return None
    return cached.report.throughput / uncached.report.throughput
