"""The measured path, stage by stage.

Each stage times one thing a user of the system waits for, by calling
the repository's public functions from outside, and then checks what
came back.  A stage returns its wall seconds (a list of per-operation
seconds for the write loop); the harness repeats the stages in rounds
and keeps the best repetition.  The checks run outside the timed
region.

With a real :class:`~recorder.Recorder` the same stages also record a
span around every layer call, and the serving stages slip forwarding
proxies between the layers.
"""

from __future__ import annotations

import filecmp
import os
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.io import read_edge_list
from repro.graph.order import degree_order
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.mutation import MutationBackend
from repro.serve.pipeline import QueryServer
from repro.serve.replica import BoundedStalenessReplicator, ReplicatedLabelStore
from repro.serve.store import ShardedIndexBackend, ShardedLabelStore

from checks import Checker, answers_of, mismatches
from inputs import Inputs
from recorder import Forward, NullRecorder

CLUSTER_NODES = 8
SHARDS = 8
CLIENTS = 32
HOT_CACHE = 65536
COLD_CACHE = 1024
MIXED_SHARDS = 4
MIXED_REPLICAS = 2
LOADS = 30
MP_WORKERS = min(2, os.cpu_count() or 1)
SEGMENT_PATIENCE = 3.0  # seconds

#: The ``RunStats`` fields the engines must agree on bit for bit.
STATS_FIELDS = (
    "supersteps",
    "compute_units",
    "local_messages",
    "remote_messages",
    "remote_bytes",
    "broadcast_bytes",
    "simulated_seconds",
)
#: The simulated ``ServeReport`` fields a repetition must reproduce.
REPORT_FIELDS = (
    "served",
    "positives",
    "batches",
    "queue_peak",
    "makespan_seconds",
    "p50_seconds",
    "p99_seconds",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_invalidated",
    "shard_skew",
)


@dataclass
class Context:
    """What a stage needs: the inputs, a scratch directory, the gate."""

    inputs: Inputs
    directory: Path
    check: Checker
    recorder: object = field(default_factory=NullRecorder)
    #: Things one stage leaves for a later one or for the report.
    state: dict = field(default_factory=dict)
    #: Shared-memory segments that appeared during an mp build.
    suspects: set = field(default_factory=set)


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments that exist right now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Build: edge-list file → read → order → build → save
# ----------------------------------------------------------------------
def build(ctx: Context, metric: str, layer: str, method: str | None, **engine) -> float:
    """One whole build through ``method`` (``None``: plain ``tol_index``)."""
    inputs, rec = ctx.inputs, ctx.recorder
    out = ctx.directory / f"{metric}.idx"
    segments_before = shm_segments()
    stats = None
    with rec.span(metric):
        begin = perf_counter()
        with rec.span("graph.io.read_edge_list"):
            graph = read_edge_list(inputs.edge_file, num_vertices=inputs.graph.num_vertices)
        with rec.span("graph.order.degree_order"):
            order = degree_order(graph)
        with rec.span(layer):
            if method is None:
                index = tol_index(graph, order)
            else:
                result = build_index(
                    graph, method=method, order=order, num_nodes=CLUSTER_NODES, **engine
                )
                index, stats = result.index, result.stats
        with rec.span("core.labels.save_v1"):
            index.save(out)
        seconds = perf_counter() - begin
    check = ctx.check
    check.require(f"{metric}: index is not TOL's", index == inputs.reference)
    check.require(
        f"{metric}: index file differs from the reference file",
        filecmp.cmp(out, inputs.reference_file, shallow=False),
    )
    if stats is not None:
        # Same method on either engine must account identically.
        for name in STATS_FIELDS:
            check.exact(f"pregel.{method}.{name}", getattr(stats, name))
        ctx.state[metric + ".stats"] = stats
    if engine:
        ctx.suspects |= shm_segments() - segments_before
    return seconds


def check_segments(ctx: Context) -> None:
    """A segment that appeared during an mp build and is still there
    when the workload ends was leaked.  One that another process made
    meanwhile is gone within seconds; a leak stays."""
    deadline = perf_counter() + SEGMENT_PATIENCE
    while ctx.suspects & shm_segments() and perf_counter() < deadline:
        sleep(0.1)
    ctx.check.require(
        "build_mp_s: shared-memory segment leaked", not ctx.suspects & shm_segments()
    )


def build_tol(ctx):
    return build(ctx, "build_tol_s", "core.tol.tol_index", None)


def build_drl(ctx):
    return build(ctx, "build_drl_s", "core.drl.build", "drl")


def build_drlb(ctx):
    return build(ctx, "build_drlb_s", "core.drl_batch.build", "drl-b")


def build_mp(ctx):
    return build(
        ctx, "build_mp_s", "pregel.mp.build", "drl-b", engine="mp", workers=MP_WORKERS
    )


# ----------------------------------------------------------------------
# Load and query the saved index
# ----------------------------------------------------------------------
def load(ctx: Context) -> float:
    """Seconds per load of the v1 file (the files are small, so one
    repetition loads it :data:`LOADS` times back to back)."""
    with ctx.recorder.span("core.labels.load_v1"):
        begin = perf_counter()
        for _ in range(LOADS):
            index = ReachabilityIndex.load(ctx.inputs.reference_file)
        seconds = (perf_counter() - begin) / LOADS
    ctx.check.require("load_s: loaded index is not TOL's", index == ctx.inputs.reference)
    ctx.state["loaded"] = index
    return seconds


def index_memory_bytes(ctx: Context) -> int:
    """Bytes the loaded index holds, by ``tracemalloc`` (its own, untimed load)."""
    tracemalloc.start()
    try:
        index = ReachabilityIndex.load(ctx.inputs.reference_file)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ctx.check.require("index_mem_bytes: loaded index is not TOL's", index == ctx.inputs.reference)
    return held


def query(ctx: Context) -> float:
    """The uniform stream through the loaded index, raw."""
    inputs = ctx.inputs
    ask = ctx.state["loaded"].query
    with ctx.recorder.span("core.labels.query"):
        begin = perf_counter()
        answers = answers_of(ask, inputs.uniform)
        seconds = perf_counter() - begin
    ctx.check.record(
        "query_qps: answer differs from the raw-index vector",
        len(answers),
        mismatches(answers, inputs.uniform_answers),
    )
    return seconds


# ----------------------------------------------------------------------
# Serve: QueryServer → CachingBackend → ShardedIndexBackend → store
# ----------------------------------------------------------------------
def serve(ctx: Context, stream: str, pairs, reference, cache_size: int) -> float:
    """One closed-loop run of ``pairs`` (the ``hot`` or the ``cold``
    stream) through the read-only stack."""
    rec = ctx.recorder
    metric = f"serve_{stream}_rps"
    index = ctx.inputs.reference
    answers: list[bool] = []
    if rec.enabled:
        # The store reads three attributes of the index per fetch; a
        # proxy resolves the ones it is given without a fallback lookup.
        index = Forward(
            index,
            query=rec.spanned(f"core.labels.{stream}", index.query),
            out_labels=index.out_labels,
            in_labels=index.in_labels,
        )
    store = ShardedLabelStore(index, num_shards=SHARDS)
    if rec.enabled:
        store = Forward(store, fetch=rec.spanned(f"serve.store.fetch.{stream}", store.fetch))
    backend = ShardedIndexBackend(store)
    if rec.enabled:
        backend = Forward(
            backend,
            query_with_cost=rec.spanned(f"serve.store.backend.{stream}", backend.query_with_cost),
        )
    backend = CachingBackend(backend, QueryCache(cache_size))
    if rec.enabled:
        backend = Forward(
            backend,
            query_with_cost=rec.spanned(
                f"serve.cache.{stream}", backend.query_with_cost, answers
            ),
        )
    server = QueryServer(backend, request_tracing=False)
    with rec.span(f"serve.pipeline.{stream}"):
        begin = perf_counter()
        report = server.run_closed(pairs, clients=CLIENTS)
        seconds = perf_counter() - begin
    check = ctx.check
    lost = report.shed + report.deadline_dropped + report.failed
    check.record(f"{metric}: request shed, dropped or failed", len(pairs), lost)
    check.require(
        f"{metric}: served or positive count differs from the raw index",
        report.served == len(pairs) and report.positives == sum(reference),
    )
    if rec.enabled:
        check.record(
            f"{metric}: traced answer differs from the raw-index vector",
            len(pairs),
            mismatches(answers, reference),
        )
    for name in REPORT_FIELDS:
        check.exact(f"{metric}.{name}", getattr(report, name))
    ctx.state[metric + ".report"] = report
    return seconds


def serve_hot(ctx):
    inputs = ctx.inputs
    return serve(ctx, "hot", inputs.zipf, inputs.zipf_answers, HOT_CACHE)


def serve_cold(ctx):
    inputs = ctx.inputs
    return serve(ctx, "cold", inputs.uniform, inputs.uniform_answers, COLD_CACHE)


# ----------------------------------------------------------------------
# Mutate: the full dynamic stack, then the bare write loop
# ----------------------------------------------------------------------
def dynamic_stack(graph, replicas: int):
    """Leader + replicator + replicated store + attached cache + writes."""
    leader = DynamicReachabilityIndex(graph)
    replicator = BoundedStalenessReplicator(leader, num_replicas=replicas)
    store = ReplicatedLabelStore(
        leader, num_shards=MIXED_SHARDS, replicas=replicas, replicator=replicator
    )
    cache = QueryCache(HOT_CACHE)
    cache.attach(leader)
    backend = CachingBackend(ShardedIndexBackend(store), cache)
    server = QueryServer(
        backend,
        request_tracing=False,
        on_advance=store.advance,
        mutation_backend=MutationBackend(leader, replicator=replicator),
    )
    return leader, server


def leader_is_exact(leader) -> bool:
    """The maintained labels equal a rebuild under the current order."""
    return leader.snapshot() == tol_index(leader.current_graph(), leader.order)


def mixed(ctx: Context, replicas: int = MIXED_REPLICAS) -> float:
    """Reads and writes interleaved on one queue, wall seconds."""
    inputs = ctx.inputs
    leader, server = dynamic_stack(inputs.graph, replicas)
    with ctx.recorder.span("serve.mixed"):
        begin = perf_counter()
        report = server.run_mixed(
            inputs.mixed_reads,
            inputs.mixed_arrivals,
            inputs.mutations,
            inputs.mutation_arrivals,
        )
        seconds = perf_counter() - begin
    check = ctx.check
    reads, writes = len(inputs.mixed_reads), len(inputs.mutations)
    check.record(
        "mixed_rps: read shed, dropped or failed",
        reads,
        report.shed + report.deadline_dropped + report.failed,
    )
    check.record(
        "mixed_rps: write shed or rejected",
        writes,
        report.mutations_shed + report.mutations_rejected,
    )
    check.require("mixed_rps: leader differs from a rebuild", leader_is_exact(leader))
    for name in REPORT_FIELDS + ("mutations_applied", "mutations_noop", "stale_reads"):
        check.exact(f"mixed_rps.r{replicas}.{name}", getattr(report, name))
    ctx.state["mixed.report"] = report
    return seconds


def update(ctx: Context) -> list[float]:
    """The write stream alone on a fresh leader: seconds per operation."""
    inputs = ctx.inputs
    leader = DynamicReachabilityIndex(inputs.graph)
    backend = MutationBackend(leader)
    latencies = []
    with ctx.recorder.span("serve.mutation"):
        for op, u, v in inputs.mutations:
            begin = perf_counter()
            backend.apply_with_cost(op, u, v)
            latencies.append(perf_counter() - begin)
    check = ctx.check
    check.record("update_ops_s: write rejected", len(inputs.mutations), backend.rejected)
    check.require("update_ops_s: leader differs from a rebuild", leader_is_exact(leader))
    for name in ("applied", "noops", "rejected"):
        check.exact(f"serve.mutation.{name}", getattr(backend, name))
    ctx.state["leader"] = leader
    return latencies


def dynamic_query(ctx: Context) -> float:
    """The Zipf stream through the leader :func:`update` left behind."""
    inputs = ctx.inputs
    leader = ctx.state["leader"]
    with ctx.recorder.span("core.dynamic.query"):
        begin = perf_counter()
        answers = answers_of(leader.query, inputs.zipf)
        seconds = perf_counter() - begin
    reference = answers_of(leader.snapshot().query, inputs.zipf)
    ctx.check.record(
        "dyn_query_qps: answer differs from the snapshot's",
        len(answers),
        mismatches(answers, reference),
    )
    return seconds
