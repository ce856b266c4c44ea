"""The `repro serve-bench` tables: cached vs uncached serving.

Each bench turns its arguments into a
:class:`~repro.scenarios.spec.ScenarioSpec` and runs it through the
scenario runner once per row (the uncached row at ``cache_size=0``),
so every served answer is audited as in any scenario.  Both rows land
in one :class:`~repro.bench.results.ExperimentTable`: directly
comparable, and gate-able by the baseline machinery
(``--save-baseline`` / ``--check-baseline``).  Every number is
simulated, so the committed ``benchmarks/baselines/serve-bench*.json``
reproduce bit for bit on an unchanged tree.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.results import ExperimentTable
from repro.graph.digraph import DiGraph
from repro.scenarios.runner import ScenarioResult, run_scenario_on, serving_index
from repro.scenarios.spec import (
    GraphSpec,
    ReplicationSpec,
    ScenarioSpec,
    ServingSpec,
    TrafficSpec,
    UpdatesSpec,
)

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


def _tabulate(
    name: str,
    workload: str,
    cells: dict[str, str],
    spec: ScenarioSpec,
    graph: DiGraph | GraphSpec,
    with_cache: bool,
    without_cache: bool,
) -> tuple[ExperimentTable, dict[str, ScenarioResult]]:
    """One table row per requested cache setting, each a fresh run of
    ``spec`` on ``graph``; the uncached row runs it at ``cache_size=0``.
    A :class:`GraphSpec` is generated here and becomes each row's graph
    block; any other graph (an edge-list file's) is served as given,
    and each row's spec description says so.  A static index is built
    once and shared by the rows; a dynamic leader, which the writes
    change, is built afresh per row."""
    if isinstance(graph, GraphSpec):
        spec = replace(spec, graph=graph)
        graph = graph.build()
    else:
        spec = replace(spec, description=_GIVEN_GRAPH)
    table = ExperimentTable(
        title=f"{name} — n={graph.num_vertices} m={graph.num_edges} {workload}",
        columns=list(cells),
        scientific=True,
    )
    index = None if spec.dynamic else serving_index(spec, graph)
    results: dict[str, ScenarioResult] = {}
    uncached = replace(spec, serving=replace(spec.serving, cache_size=0))
    for row, row_spec, wanted in (
        ("cached", spec, with_cache),
        ("uncached", uncached, without_cache),
    ):
        if not wanted:
            continue
        result = results[row] = run_scenario_on(row_spec, graph, index=index)
        for column, attribute in cells.items():
            table.set(row, column, float(getattr(result.report, attribute)))
    return table, results


def run_serve_bench(
    graph: DiGraph | GraphSpec,
    *,
    shards: int = 8,
    partitioner: str = "hash",
    requests: int = 20000,
    rate: float = 2_000_000.0,
    arrival: str = "poisson",
    clients: int = 32,
    zipf: float = 1.4,
    cache_size: int = 65536,
    negative_cache: bool = True,
    queue_depth: int = 1024,
    batch_size: int = 32,
    deadline_seconds: float | None = None,
    seed: int = 0,
    with_cache: bool = True,
    without_cache: bool = True,
) -> tuple[ExperimentTable, dict[str, ScenarioResult]]:
    """Run the serving benchmark; returns ``(table, results by row)``.

    ``arrival`` is ``"poisson"`` (open loop, bursty), ``"uniform"``
    (open loop, evenly spaced), or ``"closed"`` (``clients``
    request-on-completion clients; nothing is shed because offered
    load self-limits).  ``partitioner`` is any
    :data:`~repro.graph.partition.PARTITIONER_STRATEGIES` key.  The
    index is a static TOL index at one copy of every shard.
    """
    spec = ScenarioSpec(
        name="serve-bench",
        traffic=TrafficSpec(
            requests=requests, skew=zipf, pairs_seed=seed, shape=arrival,
            rate=rate, arrivals_seed=seed + 7,
            clients=clients if arrival == "closed" else None,
        ),
        serving=ServingSpec(
            shards=shards, partitioner=partitioner, replicas=1,
            cache_size=cache_size, negative_cache=negative_cache,
            queue_depth=queue_depth, batch_size=batch_size,
            deadline_seconds=deadline_seconds,
        ),
    )
    return _tabulate(
        "serve-bench",
        f"shards={shards} {arrival} workload ({requests} requests)",
        _CELLS, spec, graph, with_cache, without_cache,
    )


def run_mixed_serve_bench(
    graph: DiGraph | GraphSpec,
    *,
    shards: int = 8,
    partitioner: str = "hash",
    requests: int = 20000,
    rate: float = 2_000_000.0,
    zipf: float = 1.4,
    cache_size: int = 65536,
    negative_cache: bool = True,
    queue_depth: int = 1024,
    batch_size: int = 32,
    deadline_seconds: float | None = None,
    seed: int = 0,
    writes: int = 2000,
    write_rate: float = 200_000.0,
    insert_ratio: float = 0.6,
    node_ratio: float = 0.1,
    promote_ratio: float = 0.05,
    replicas: int = 2,
    replication_delay: float = 2e-3,
    max_lag: int = 64,
    drift_threshold: int | None = None,
    with_cache: bool = True,
    without_cache: bool = True,
) -> tuple[ExperimentTable, dict[str, ScenarioResult]]:
    """The mixed read/write serving benchmark (``serve-bench --mode mixed``).

    Interleaves a Zipf-skewed read stream (Poisson arrivals at ``rate``)
    with a Poisson write stream at ``write_rate`` — edge inserts/deletes,
    node add/deletes (``node_ratio``) and order upgrades
    (``promote_ratio``; both 0 give edge ops only) — through one
    admission queue, against the full dynamic stack: a writable leader
    (drift promotes with ``drift_threshold``), ``replicas``
    bounded-staleness groups fed by its op log, and a cache invalidated
    by its listener hooks.
    """
    spec = ScenarioSpec(
        name="serve-bench-mixed",
        traffic=TrafficSpec(
            requests=requests, skew=zipf, pairs_seed=seed, rate=rate,
            arrivals_seed=seed + 7,
        ),
        serving=ServingSpec(
            shards=shards, partitioner=partitioner, replicas=replicas,
            cache_size=cache_size, negative_cache=negative_cache,
            queue_depth=queue_depth, batch_size=batch_size,
            deadline_seconds=deadline_seconds,
        ),
        replication=ReplicationSpec(delay_seconds=replication_delay, max_lag=max_lag),
        updates=UpdatesSpec(
            count=writes, insert_ratio=insert_ratio, node_ratio=node_ratio,
            promote_ratio=promote_ratio, seed=seed + 13, via="serve",
            rate=write_rate, drift_threshold=drift_threshold,
        ),
    )
    return _tabulate(
        "serve-bench mixed",
        f"shards={shards} x{replicas} ({requests} reads + {writes} writes)",
        _MIXED_CELLS, spec, graph, with_cache, without_cache,
    )


def caching_speedup(results: dict[str, ScenarioResult]) -> float | None:
    """Cached/uncached throughput ratio, when both rows were run."""
    cached = results.get("cached")
    uncached = results.get("uncached")
    if cached is None or uncached is None or not uncached.report.throughput:
        return None
    return cached.report.throughput / uncached.report.throughput
