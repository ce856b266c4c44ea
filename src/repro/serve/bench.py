"""The `repro serve-bench` runner: cached vs uncached serving.

Builds the index once, shards it, replays the same Zipf-skewed request
stream through a cached and an uncached pipeline, and reports both as
one :class:`~repro.bench.results.ExperimentTable` — which makes the
result (a) directly comparable ("what did caching buy?") and (b)
gate-able by the existing benchmark baseline machinery
(``--save-baseline`` / ``--check-baseline``, see
``docs/observability.md``).

Every number is simulated and therefore deterministic: the committed
``benchmarks/baselines/serve-bench.json`` must reproduce bit-for-bit
on an unchanged tree.
"""

from __future__ import annotations

from repro.bench.results import ExperimentTable
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.pregel.cost_model import CostModel
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.mutation import MutationBackend
from repro.serve.pipeline import QueryServer, ServeReport
from repro.serve.replica import BoundedStalenessReplicator
from repro.serve.store import ShardedIndexBackend, ShardedLabelStore
from repro.telemetry import trace_span
from repro.workloads.traffic import poisson_arrivals, uniform_arrivals, zipf_pairs
from repro.workloads.updates import mixed_update_stream

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

#: Columns of the serve-bench table, in print order.
COLUMNS = list(_CELLS)

#: Columns of the mixed (read/write) serve-bench table.
MIXED_COLUMNS = list(_MIXED_CELLS)


def _partitioner(name: str, shards: int, graph: DiGraph):
    if name not in PARTITIONER_STRATEGIES:
        raise ValueError(
            f"unknown partitioner {name!r} "
            f"(choose from {sorted(PARTITIONER_STRATEGIES)})"
        )
    return PARTITIONER_STRATEGIES[name](shards, graph.num_vertices)


def _bench(
    title: str,
    cells: dict[str, str],
    build,
    run,
    *,
    partitioner,
    cache_size: int,
    negative_cache: bool,
    with_cache: bool,
    without_cache: bool,
    cost_model: CostModel | None,
    **server_options,
) -> tuple[ExperimentTable, dict[str, ServeReport]]:
    """One table row per requested cache setting, each over a fresh
    store → backend → cache → server stack.

    ``build()`` returns ``(index, replicator)``.  Without a replicator
    the stack is read-only at one copy of every shard; with one (whose
    leader ``index`` then is) it is the full dynamic stack: follower
    groups fed by the op log, the cache invalidated through the
    leader's hooks, the write path enabled.  ``run(server)`` replays
    the workload and returns its report.
    """
    table = ExperimentTable(title=title, columns=list(cells), scientific=True)
    reports: dict[str, ServeReport] = {}
    for row, wanted in (("cached", with_cache), ("uncached", without_cache)):
        if not wanted:
            continue
        index, replicator = build()
        dynamic = replicator is not None
        store = ShardedLabelStore(
            index,
            num_shards=partitioner.num_nodes,
            partitioner=partitioner,
            cost_model=cost_model,
            replicas=replicator.num_replicas if dynamic else 1,
            replicator=replicator,
        )
        backend = ShardedIndexBackend(store)
        if row == "cached":
            cache = QueryCache(cache_size, negative_caching=negative_cache)
            if dynamic:
                cache.attach(index)
            backend = CachingBackend(backend, cache, cost_model)
        server = QueryServer(
            backend,
            cost_model=cost_model,
            on_advance=store.advance if dynamic else None,
            mutation_backend=(
                MutationBackend(index, cost_model=cost_model, replicator=replicator)
                if dynamic
                else None
            ),
            **server_options,
        )
        report = reports[row] = run(server)
        for column, attribute in cells.items():
            table.set(row, column, float(getattr(report, attribute)))
    return table, reports


def run_serve_bench(
    graph: DiGraph,
    *,
    shards: int = 8,
    partitioner: str = "hash",
    requests: int = 20000,
    rate: float = 2_000_000.0,
    arrival: str = "poisson",
    clients: int = 32,
    think_seconds: float = 0.0,
    zipf: float = 1.4,
    cache_size: int = 65536,
    negative_cache: bool = True,
    queue_depth: int = 1024,
    batch_size: int = 32,
    deadline_seconds: float | None = None,
    seed: int = 0,
    with_cache: bool = True,
    without_cache: bool = True,
    cost_model: CostModel | None = None,
) -> tuple[ExperimentTable, dict[str, ServeReport]]:
    """Run the serving benchmark; returns ``(table, reports by row)``.

    ``arrival`` is ``"poisson"`` (open loop, bursty), ``"uniform"``
    (open loop, evenly spaced), or ``"closed"`` (``clients``
    request-on-completion clients; nothing is shed because offered
    load self-limits).  ``partitioner`` is any
    :data:`~repro.graph.partition.PARTITIONER_STRATEGIES` key.
    """
    partitioner = _partitioner(partitioner, shards, graph)
    if arrival not in ("poisson", "uniform", "closed"):
        raise ValueError("arrival must be 'poisson', 'uniform', or 'closed'")
    with trace_span("serve.build", vertices=graph.num_vertices):
        index = tol_index(graph)
    pairs = zipf_pairs(graph.num_vertices, requests, seed=seed, skew=zipf)
    if arrival == "poisson":
        arrivals = poisson_arrivals(requests, rate, seed=seed + 7)
    elif arrival == "uniform":
        arrivals = uniform_arrivals(requests, rate)
    else:
        arrivals = None

    def run(server: QueryServer) -> ServeReport:
        if arrivals is None:
            return server.run_closed(
                pairs, clients=clients, think_seconds=think_seconds
            )
        return server.run_open(pairs, arrivals)

    return _bench(
        f"serve-bench — n={graph.num_vertices} m={graph.num_edges} "
        f"shards={shards} {arrival} workload ({requests} requests)",
        _CELLS,
        lambda: (index, None),
        run,
        partitioner=partitioner,
        cache_size=cache_size,
        negative_cache=negative_cache,
        with_cache=with_cache,
        without_cache=without_cache,
        cost_model=cost_model,
        queue_depth=queue_depth,
        batch_size=batch_size,
        deadline_seconds=deadline_seconds,
    )


def run_mixed_serve_bench(
    graph: DiGraph,
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
    cost_model: CostModel | None = None,
) -> tuple[ExperimentTable, dict[str, ServeReport]]:
    """The mixed read/write serving benchmark (``serve-bench --mode mixed``).

    Interleaves a Zipf-skewed read stream (open loop, Poisson arrivals
    at ``rate``) with a Poisson write stream at ``write_rate`` — a
    valid-at-position mix of edge inserts/deletes, node add/deletes
    (``node_ratio``), and order upgrades (``promote_ratio``) — through
    one admission queue.  The serving stack is the full dynamic one:
    a writable leader (optionally with automatic drift-triggered
    upgrades via ``drift_threshold``), ``replicas`` bounded-staleness
    replica groups fed by the leader's op log, and the query cache
    invalidated through the leader's listener hooks.  Reports update
    throughput, the peak replication staleness window, and read
    latency under write pressure — cached and uncached rows, same
    baseline machinery as the read-only bench
    (``benchmarks/baselines/serve-bench-mixed.json``).
    """
    partitioner = _partitioner(partitioner, shards, graph)
    pairs = zipf_pairs(graph.num_vertices, requests, seed=seed, skew=zipf)
    arrivals = poisson_arrivals(requests, rate, seed=seed + 7)
    mutations = mixed_update_stream(
        graph,
        writes,
        insert_ratio=insert_ratio,
        node_ratio=node_ratio,
        promote_ratio=promote_ratio,
        seed=seed + 13,
    )
    mutation_arrivals = poisson_arrivals(writes, write_rate, seed=seed + 17)

    def build():
        with trace_span("serve.build", vertices=graph.num_vertices):
            leader = DynamicReachabilityIndex(
                graph, drift_threshold=drift_threshold
            )
        return leader, BoundedStalenessReplicator(
            leader,
            num_replicas=replicas,
            delay_seconds=replication_delay,
            max_lag=max_lag,
        )

    return _bench(
        f"serve-bench mixed — n={graph.num_vertices} m={graph.num_edges} "
        f"shards={shards} x{replicas} ({requests} reads + {writes} writes)",
        _MIXED_CELLS,
        build,
        lambda server: server.run_mixed(
            pairs, arrivals, mutations, mutation_arrivals
        ),
        partitioner=partitioner,
        cache_size=cache_size,
        negative_cache=negative_cache,
        with_cache=with_cache,
        without_cache=without_cache,
        cost_model=cost_model,
        queue_depth=queue_depth,
        batch_size=batch_size,
        deadline_seconds=deadline_seconds,
    )


def caching_speedup(reports: dict[str, ServeReport]) -> float | None:
    """Cached/uncached throughput ratio, when both rows were run."""
    cached = reports.get("cached")
    uncached = reports.get("uncached")
    if cached is None or uncached is None or not uncached.throughput:
        return None
    return cached.throughput / uncached.throughput
