"""Per-layer probes for the traced pass.

The end-to-end stages say how long a user waits; these probes say
where.  Each drives one layer through its public entry point from
outside ``src/repro``.  A layer's *added* cost is the nanoseconds per
request of the same stream through that layer minus the layer below
it; every layer's answer vector is compared with the raw index's.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro import telemetry
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_example_graph, web_graph
from repro.graph.io import write_edge_list
from repro.pregel.engine import Cluster
from repro.pregel.vertex_program import VertexProgram
from repro.query.service import IndexBackend
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.pipeline import QueryServer
from repro.serve.replica import ReplicatedLabelStore
from repro.serve.store import ShardedIndexBackend, ShardedLabelStore
from repro.workloads.queries import random_pairs
from repro.workloads.traffic import poisson_arrivals
from repro.workloads.updates import apply_stream, mixed_update_stream

import stages
from checks import mismatches
from inputs import TOPOLOGY_SEED, renamed, renaming

REPEATS = 3
BATCHES = 200
SHALLOW_VERTICES = 1000


def best(action, repeats: int = REPEATS) -> float:
    """Seconds of the fastest of ``repeats`` calls."""
    fastest = float("inf")
    for _ in range(repeats):
        begin = perf_counter()
        action()
        fastest = min(fastest, perf_counter() - begin)
    return fastest


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


class StreamProbe:
    """Drives one stream through successive layers of the read path."""

    def __init__(self, check, pairs, reference):
        self.check = check
        self.pairs = pairs
        self.reference = reference

    def ns(self, layer: str, make_call, answer_of=None, repeats: int = REPEATS) -> float:
        """Best ns/request of the stream through ``make_call()``.

        ``make_call`` builds the layer afresh for every repetition (a
        cache must start empty each time) and is not timed.
        """
        pairs = self.pairs
        fastest = float("inf")
        for _ in range(repeats):
            call = make_call()
            begin = perf_counter()
            results = [call(s, t) for s, t in pairs]
            fastest = min(fastest, perf_counter() - begin)
        answers = results if answer_of is None else [answer_of(r) for r in results]
        self.check.record(
            f"{layer}: answer differs from the raw-index vector",
            len(pairs),
            mismatches(answers, self.reference),
        )
        return fastest * 1e9 / len(pairs)


def first(result):
    return result[0]


def server_ns(server_of, run, pairs, repeats: int = REPEATS) -> tuple[float, object]:
    """Best ns/request of ``run(server, pairs)`` and the last report."""
    fastest = float("inf")
    for _ in range(repeats):
        server = server_of()
        begin = perf_counter()
        report = run(server)
        fastest = min(fastest, perf_counter() - begin)
    return fastest * 1e9 / len(pairs), report


# ----------------------------------------------------------------------
# Pregel: a program that only sends, to price the substrate itself
# ----------------------------------------------------------------------
class Flood(VertexProgram):
    """Every reached vertex forwards to its out-neighbours for ``hops``
    supersteps and does nothing else."""

    def __init__(self, graph, hops: int):
        self.graph = graph
        self.hops = hops

    def compute(self, ctx, vertex, messages):
        if ctx.superstep <= self.hops:
            send = ctx.send
            for w in self.graph.out_neighbors(vertex):
                send(w, vertex)


class Relay(VertexProgram):
    """One vertex messages itself for ``hops`` supersteps: barriers only."""

    def __init__(self, hops: int):
        self.hops = hops

    def compute(self, ctx, vertex, messages):
        if vertex == 0 and ctx.superstep <= self.hops:
            ctx.send(0, 0)


def pregel_null(graph) -> dict:
    cluster = Cluster(num_nodes=stages.CLUSTER_NODES)
    short = best(lambda: cluster.run(graph, Relay(100)))
    long = best(lambda: cluster.run(graph, Relay(400)))
    per_superstep = max(0.0, (long - short) / 300)
    flood_stats = []
    flood = best(lambda: flood_stats.append(cluster.run(graph, Flood(graph, 8))))
    stats = flood_stats[-1]
    return {
        "pregel.engine.null_ns_per_superstep": per_superstep * 1e9,
        "pregel.engine.null_ns_per_message": max(
            0.0, flood - stats.supersteps * per_superstep
        )
        * 1e9
        / stats.total_messages,
    }


# ----------------------------------------------------------------------
# The probes
# ----------------------------------------------------------------------
def graph_and_labels(ctx) -> dict:
    inputs = ctx.inputs
    graph, index = inputs.graph, inputs.reference
    n = graph.num_vertices
    edges = list(graph.edges())
    scratch = ctx.directory / "probe"
    backward_in = defaultdict(list)
    backward_out = defaultdict(list)
    for w in range(n):
        for v in index.in_labels(w):
            backward_in[v].append(w)
        for v in index.out_labels(w):
            backward_out[v].append(w)
    rebuilt = []
    metrics = {
        "graph.io.write_edge_list_s": best(lambda: write_edge_list(graph, scratch)),
        "graph.digraph.csr_build_s": best(lambda: DiGraph(n, edges)),
        "core.labels.from_backward_sets_s": best(
            lambda: rebuilt.append(
                ReachabilityIndex.from_backward_sets(n, backward_in, backward_out)
            )
        ),
        "core.labels.save_v2_s": best(lambda: index.save(scratch, compress=True), 2),
        "core.labels.file_v2_bytes": scratch.stat().st_size,
    }
    loaded = []
    metrics["core.labels.load_v2_s"] = best(
        lambda: loaded.append(ReachabilityIndex.load(scratch)), 2
    )
    ctx.check.require("core.labels: from_backward_sets is not TOL's", rebuilt[-1] == index)
    ctx.check.require("core.labels: v2 round trip is not TOL's", loaded[-1] == index)
    ctx.check.exact("core.labels.file_v2_bytes", metrics["core.labels.file_v2_bytes"])
    metrics["core.labels.mem_bytes_per_entry"] = (
        stages.index_memory_bytes(ctx) / index.num_entries
    )
    return metrics


def raw_queries(ctx) -> dict:
    """``index.query`` by stream shape, and its batch tail."""
    inputs, check = ctx.inputs, ctx.check
    index = inputs.reference
    metrics = {}
    uniform = list(zip(inputs.uniform, inputs.uniform_answers))
    shapes = {
        "uniform": (inputs.uniform, inputs.uniform_answers),
        "zipf": (inputs.zipf, inputs.zipf_answers),
        "positive": ([p for p, a in uniform if a], None),
        "negative": ([p for p, a in uniform if not a], None),
    }
    for shape, (pairs, reference) in shapes.items():
        if reference is None:
            reference = [shape == "positive"] * len(pairs)
        probe = StreamProbe(check, pairs, reference)
        metrics[f"core.labels.query_ns_{shape}"] = probe.ns(
            f"core.labels.query[{shape}]", lambda: index.query
        )
    base = web_graph(SHALLOW_VERTICES, seed=TOPOLOGY_SEED)
    shallow = tol_index(renamed(base, renaming(base, inputs.seed)))
    pairs = random_pairs(SHALLOW_VERTICES, len(inputs.uniform), seed=inputs.seed + 9)
    reference = [shallow.query(s, t) for s, t in pairs]
    metrics["core.labels.query_ns_shallow"] = StreamProbe(check, pairs, reference).ns(
        "core.labels.query[shallow]", lambda: shallow.query
    )
    # Tail of equal batches of the uniform stream: what a batch caller sees.
    size = max(1, len(inputs.uniform) // BATCHES)
    ask = index.query
    batch_ns = []
    for _ in range(REPEATS):
        for offset in range(0, size * BATCHES, size):
            batch = inputs.uniform[offset : offset + size]
            begin = perf_counter()
            for s, t in batch:
                ask(s, t)
            batch_ns.append((perf_counter() - begin) * 1e9 / len(batch))
    # Best of the repetitions, batch by batch, then the tail over batches.
    per_batch = [min(batch_ns[i::BATCHES]) for i in range(BATCHES)]
    metrics["core.labels.query_batch_p99_ns"] = percentile(per_batch, 0.99)
    return metrics


def read_path(ctx, stage_best: dict) -> dict:
    """The serving layers, bottom to top, on the cold and the hot stream."""
    inputs, check = ctx.inputs, ctx.check
    index = inputs.reference
    cold = StreamProbe(check, inputs.uniform, inputs.uniform_answers)
    hot = StreamProbe(check, inputs.zipf, inputs.zipf_answers)
    raw = cold.ns("core.labels.query", lambda: index.query)
    stores = []
    metrics = {
        "serve.store.build_s": best(
            lambda: stores.append(ShardedLabelStore(index, num_shards=stages.SHARDS))
        )
    }
    store = stores[-1]
    backend_ns = cold.ns(
        "query.service.IndexBackend", lambda: IndexBackend(index).query_with_cost, first
    )
    fetch_ns = cold.ns("serve.store.fetch", lambda: store.fetch, first)
    sharded = ShardedIndexBackend(store)
    sharded_ns = cold.ns("serve.store.backend", lambda: sharded.query_with_cost, first)

    def cached(size):
        return lambda: CachingBackend(sharded, QueryCache(size)).query_with_cost

    cold_cache_ns = cold.ns("serve.cache[cold]", cached(stages.COLD_CACHE), first)
    hot_cache_ns = hot.ns("serve.cache[hot]", cached(stages.HOT_CACHE), first)
    warm = CachingBackend(sharded, QueryCache(stages.HOT_CACHE))
    for s, t in inputs.zipf:
        warm.query_with_cost(s, t)
    hit_ns = hot.ns("serve.cache[hit]", lambda: warm.query_with_cost, first)
    metrics.update(
        {
            "query.service.index_backend_added_ns": backend_ns - raw,
            "serve.store.fetch_added_ns": fetch_ns - raw,
            "serve.store.backend_added_ns": sharded_ns - fetch_ns,
            "serve.cache.miss_added_ns": cold_cache_ns - sharded_ns,
            "serve.cache.hit_ns": hit_ns,
        }
    )
    for policy, name in (("primary", "fetch"), ("hedged", "hedged")):
        replicated = ReplicatedLabelStore(
            index, num_shards=stages.SHARDS, replicas=2, policy=policy
        )
        metrics[f"serve.replica.{name}_added_ns"] = (
            cold.ns(f"serve.replica.fetch[{policy}]", lambda: replicated.fetch, first)
            - fetch_ns
        )
    # The pipeline on top: closed loop from the untraced rounds, open loop here.
    hot_report = ctx.state["serve_hot_rps.report"]
    cold_report = ctx.state["serve_cold_rps.report"]
    closed_hot_ns = stage_best["serve_hot"] * 1e9 / len(inputs.zipf)
    closed_cold_ns = stage_best["serve_cold"] * 1e9 / len(inputs.uniform)

    def hot_server(request_tracing=False):
        return lambda: QueryServer(
            CachingBackend(sharded, QueryCache(stages.HOT_CACHE)),
            request_tracing=request_tracing,
        )

    # Half the simulated saturation rate, so the open loop sheds nothing.
    arrivals = poisson_arrivals(
        len(inputs.zipf), hot_report.throughput / 2, seed=inputs.seed + 10
    )
    open_ns, open_report = server_ns(
        hot_server(), lambda server: server.run_open(inputs.zipf, arrivals), inputs.zipf
    )
    check.record(
        "serve.pipeline.run_open: request shed, dropped or failed",
        len(inputs.zipf),
        len(inputs.zipf) - open_report.served,
    )

    def closed(server):
        return server.run_closed(inputs.zipf, clients=stages.CLIENTS)

    def in_session(server):
        with telemetry.session([]):
            return closed(server)

    session_ns, _ = server_ns(hot_server(request_tracing=None), in_session, inputs.zipf)
    tracing_ns, _ = server_ns(hot_server(request_tracing=True), closed, inputs.zipf)
    metrics.update(
        {
            "serve.pipeline.closed_added_ns_hot": closed_hot_ns - hot_cache_ns,
            "serve.pipeline.closed_added_ns_cold": closed_cold_ns - cold_cache_ns,
            "serve.pipeline.open_added_ns": open_ns - hot_cache_ns,
            "serve.pipeline.batches": hot_report.batches,
            "serve.pipeline.sim_throughput_qps": hot_report.throughput,
            "serve.pipeline.sim_p99_s": hot_report.p99_seconds,
            "serve.cache.hit_rate_hot": hot_report.cache_hit_rate,
            "serve.cache.hit_rate_cold": cold_report.cache_hit_rate,
            "serve.cache.evictions_cold": cold_report.cache_evictions,
            "serve.store.load_skew": cold_report.shard_skew,
            "telemetry.session_added_ns": session_ns - closed_hot_ns,
            "observe.tracing_added_ns": tracing_ns - closed_hot_ns,
        }
    )
    return metrics


def write_path(ctx, stage_best: dict, update_latencies: list[float]) -> dict:
    """The dynamic index alone, and what the serving layers add to it."""
    inputs, check = ctx.inputs, ctx.check
    graph = inputs.graph
    leaders = []
    metrics = {
        "core.dynamic.init_s": best(lambda: leaders.append(DynamicReachabilityIndex(graph)))
    }
    # The write stream on the bare index: MutationBackend's own share.
    def bare():
        leader = DynamicReachabilityIndex(graph)
        begin = perf_counter()
        apply_stream(leader, inputs.mutations)
        return perf_counter() - begin

    bare_seconds = min(bare() for _ in range(REPEATS))
    metrics["serve.mutation.apply_added_ms"] = (
        (sum(update_latencies) - bare_seconds) * 1e3 / len(inputs.mutations)
    )
    # Every kind of write, on a stream long enough to hold all five.
    count = 40
    while True:
        stream = mixed_update_stream(
            graph, count, insert_ratio=0.5, node_ratio=0.3, promote_ratio=0.2,
            seed=inputs.seed + 11,
        )
        if len({op for op, _, _ in stream}) == 5:
            break
        count *= 2
    per_op = [float("inf")] * len(stream)
    for _ in range(REPEATS):
        leader = DynamicReachabilityIndex(graph)
        for i, write in enumerate(stream):
            begin = perf_counter()
            apply_stream(leader, (write,))
            per_op[i] = min(per_op[i], perf_counter() - begin)
    check.require("core.dynamic: leader differs from a rebuild", stages.leader_is_exact(leader))
    by_kind = defaultdict(list)
    for (op, _, _), seconds in zip(stream, per_op):
        by_kind[op].append(seconds)
    names = {
        "insert": "insert_edge", "delete": "delete_edge", "add_node": "add_node",
        "delete_node": "delete_node", "promote": "promote",
    }
    for op, name in names.items():
        metrics[f"core.dynamic.{name}_p50_ms"] = percentile(by_kind[op], 0.5) * 1e3
    metrics["core.dynamic.snapshot_s"] = best(leader.snapshot)
    metrics["core.dynamic.current_graph_s"] = best(leader.current_graph)
    metrics["core.dynamic.query_ns"] = stage_best["dyn_query"] * 1e9 / len(inputs.zipf)
    # Replication's share of the mixed run: two replica groups against one.
    single = min(stages.mixed(ctx, replicas=1) for _ in range(2))
    metrics["serve.replica.replay_added_s"] = stage_best["mixed"] - single
    metrics["serve.cache.invalidated_mixed"] = ctx.state["mixed.report"].cache_invalidated
    counts = ctx.check.counts
    metrics["serve.mutation.applied"] = counts["serve.mutation.applied"]
    metrics["serve.mutation.noop"] = counts["serve.mutation.noops"]
    metrics["serve.mutation.rejected"] = counts["serve.mutation.rejected"]
    return metrics


def multiprocess(ctx, span_best: dict) -> dict:
    """The mp engine's fixed cost, and what is left per superstep."""
    tiny = paper_example_graph()
    before = stages.shm_segments()
    fixed = best(
        lambda: build_index(
            tiny, method="drl-b", num_nodes=stages.CLUSTER_NODES,
            engine="mp", workers=stages.MP_WORKERS,
        )
    )
    stats = ctx.state["build_mp_s.stats"]
    layer = span_best["pregel.mp.build"]
    return {
        "pregel.mp.fixed_overhead_s": fixed,
        "pregel.mp.wall_ns_per_superstep": max(0.0, layer - fixed) * 1e9 / stats.supersteps,
        "pregel.mp.speedup_x": span_best["core.drl_batch.build"] / layer,
        "pregel.mp.leaked_shm_segments": len(stages.shm_segments() - before),
    }


def command_line(ctx, root: Path) -> dict:
    """The subprocess twin of ``load_s``: interpreter start, import, one query."""
    environment = dict(os.environ, PYTHONPATH=str(root / "src"))
    s, t = ctx.inputs.uniform[0]

    def run(*arguments):
        return subprocess.run(
            [sys.executable, *arguments], env=environment, capture_output=True, text=True
        )

    outputs = []
    metrics = {
        "cli.import_s": best(lambda: run("-c", "import repro.cli"), 2),
        "cli.query_oneshot_s": best(
            lambda: outputs.append(
                run("-m", "repro", "query", str(ctx.inputs.reference_file), str(s), str(t))
            )
        ),
    }
    wanted = "reachable" if ctx.inputs.uniform_answers[0] else "unreachable"
    ctx.check.require(
        "cli.query_oneshot_s: wrong answer or exit code",
        all(o.returncode == 0 and o.stdout.split() == [str(s), str(t), wanted] for o in outputs),
        len(outputs),
    )
    return metrics
