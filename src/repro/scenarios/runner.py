"""Executes a :class:`~repro.scenarios.spec.ScenarioSpec` end to end.

One call builds the graph and index, stands up the replicated store +
cache + server, replays traffic with the fault schedule and write
burst riding the serving clock, then grades every expectation — and
**audits correctness** (serve-bench rows too): every served answer is
recorded with the index version it was served at and re-checked
against a transitive-closure oracle built for that exact version.  The
audit is the teeth behind the library's ``incorrect_answers_max: 0``
assertions: a replica crash during a write burst must not leak a
single wrong answer, and this is where that is proven rather than
assumed.

Everything is deterministic (all randomness is seeded in the spec), so
a scenario that passes passes every time, and a red scenario replays
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.transitive_closure import TransitiveClosure
from repro.bench.results import atomic_write_text
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.graph.traversal import reachable_set
from repro.scenarios.spec import EXPECTATIONS, ScenarioSpec
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.mutation import MutationBackend
from repro.serve.faults import Timeline
from repro.serve.pipeline import QueryServer, ServeReport
from repro.serve.replica import BoundedStalenessReplicator
from repro.serve.store import ShardedIndexBackend, ShardedLabelStore
from repro.telemetry import trace_span
from repro.workloads.updates import mixed_update_stream


class AuditingBackend:
    """Records ``(version, s, t, answer)`` for every served query.

    Wraps the outermost backend so whatever answer the server is about
    to return — cached, replicated, confirmed, anything — is what gets
    audited.  ``version_of()`` reports the leader index's current
    update count, so the post-run oracle knows exactly which graph each
    answer was served against.
    """

    def __init__(self, inner, version_of):
        self.inner = inner
        self._version_of = version_of
        self.records: list[tuple[int, int, int, bool]] = []

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        answer, seconds = self.inner.query_with_cost(s, t)
        self.records.append((self._version_of(), s, t, answer))
        return answer, seconds


@dataclass
class ExpectationCheck:
    """One graded assertion from the spec's ``expect`` block."""

    name: str
    expected: float
    actual: float
    ok: bool

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        op = ">=" if self.name.endswith("_min") else "<="
        return f"  [{mark}] {self.name}: {self.actual:g} {op} {self.expected:g}"


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    report: ServeReport
    checks: list[ExpectationCheck]
    audited: int = 0
    incorrect_answers: int = 0
    events: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every expectation hold?"""
        return all(check.ok for check in self.checks)

    @property
    def audit(self) -> dict:
        """The audit's two counts, as every JSON report writes them."""
        return {"audited": self.audited, "incorrect_answers": self.incorrect_answers}

    def render(self) -> str:
        """Multi-line human-readable result."""
        status = "PASS" if self.ok else "FAIL"
        lines = [f"scenario {self.spec.name}: {status}"]
        if self.spec.description:
            lines.append(f"  {self.spec.description}")
        lines.append(
            f"  {self.report.offered} offered / {self.report.served} served "
            f"(availability {self.report.availability:.2%}), "
            f"p99 {self.report.p99_seconds:.2e}s"
        )
        if self.audited:
            lines.append(
                f"  audit: {self.audited} answers checked against the "
                f"oracle, {self.incorrect_answers} incorrect"
            )
        if self.events:
            names = [e["event"] for e in self.events]
            lines.append(f"  events: {', '.join(names)}")
        lines.extend(check.render() for check in self.checks)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready report (the ``--report`` artifact shape)."""
        return {
            "name": self.spec.name,
            "ok": self.ok,
            "spec": self.spec.to_dict(),
            "report": {
                "offered": self.report.offered,
                "served": self.report.served,
                "shed": self.report.shed,
                "deadline_dropped": self.report.deadline_dropped,
                "failed": self.report.failed,
                "availability": self.report.availability,
                "throughput": self.report.throughput,
                "p50_seconds": self.report.p50_seconds,
                "p99_seconds": self.report.p99_seconds,
                "cache_hit_rate": self.report.cache_hit_rate,
                "failovers": self.report.failovers,
                "replica_timeouts": self.report.replica_timeouts,
                "stale_reads": self.report.stale_reads,
                "confirmed_reads": self.report.confirmed_reads,
                "shard_skew": self.report.shard_skew,
                "mutations_offered": self.report.mutations_offered,
                "mutations_applied": self.report.mutations_applied,
                "mutations_shed": self.report.mutations_shed,
                "update_throughput": self.report.update_throughput,
                "staleness_window_seconds": (
                    self.report.staleness_window_seconds
                ),
            },
            "audit": self.audit,
            "events": self.events,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "ok": c.ok,
                }
                for c in self.checks
            ],
        }


def serving_index(spec: ScenarioSpec, graph: DiGraph):
    """The index ``spec`` serves over ``graph``: a writable leader when
    the spec is dynamic, else a static TOL index."""
    with trace_span("serve.build", vertices=graph.num_vertices):
        if spec.dynamic:
            drift = spec.updates.drift_threshold if spec.updates else None
            return DynamicReachabilityIndex(graph, drift_threshold=drift)
        return tol_index(graph)


def run_scenario(
    spec: ScenarioSpec,
    graph: DiGraph | None = None,
    *,
    index=None,
) -> ScenarioResult:
    """Execute ``spec`` and grade its expectations.  It serves the graph
    ``spec.graph`` names, or ``graph`` when one is given (``spec.graph``
    is then not read).  ``index`` is a static index of that graph from
    :func:`serving_index`, for callers that serve one graph more than
    once (serve-bench's rows); a dynamic spec writes to its leader, so
    it always builds its own."""
    if graph is None:
        graph = spec.graph.build()
    serving = spec.serving
    partitioner = PARTITIONER_STRATEGIES[serving.partitioner](
        serving.shards, graph.num_vertices
    )

    # --- index + replication -----------------------------------------
    replicator = None
    applied_updates: list[tuple[str, int, int]] = []
    if index is None:
        index = serving_index(spec, graph)
    elif spec.dynamic:
        raise ValueError("a dynamic scenario builds its own leader index")
    if spec.dynamic:
        index.subscribe(lambda op, u, v: applied_updates.append((op, u, v)))
        if spec.replication is not None:
            replicator = BoundedStalenessReplicator(
                index,
                serving.replicas,
                delay_seconds=spec.replication.delay_seconds,
                max_lag=spec.replication.max_lag,
                apply_seconds_per_op=spec.replication.apply_seconds_per_op,
            )

    store = ShardedLabelStore(
        index,
        num_shards=serving.shards,
        partitioner=partitioner,
        replicas=serving.replicas,
        policy=serving.policy,
        replicator=replicator,
    )

    # --- backend chain: audit(cache(store)) --------------------------
    backend = ShardedIndexBackend(store)
    if serving.cache_size:
        cache = QueryCache(
            capacity=serving.cache_size,
            negative_caching=serving.negative_cache,
        )
        if spec.dynamic:
            cache.attach(index)
        backend = CachingBackend(backend, cache)
    auditor = AuditingBackend(backend, lambda: len(applied_updates))

    # --- the write burst, scheduled on the serving clock -------------
    stream, times = [], []
    serve_writes = spec.updates is not None and spec.updates.via == "serve"
    if spec.updates is not None:
        stream = mixed_update_stream(
            graph,
            spec.updates.count,
            insert_ratio=spec.updates.insert_ratio,
            node_ratio=spec.updates.node_ratio,
            promote_ratio=spec.updates.promote_ratio,
            seed=spec.updates.seed,
        )
        times = spec.updates.arrivals()

    # --- one schedule on the serving clock: leader writes (unless they
    # arrive through the admission queue, ``via: serve``), then the fault
    # plan — a write and a fault due at the same instant fire in that
    # order — and the store's replication/health pump once per batch.
    def write(op: tuple[str, int, int], at: float) -> None:
        if replicator is not None:
            replicator.note_time(at)  # replication delay runs from issue time
        index.apply(*op)

    timeline = Timeline(store.advance)
    if not serve_writes:
        for at, op in zip(times, stream):
            timeline.at(at, write, op)
    spec.faults.schedule(timeline, store)

    # --- serve --------------------------------------------------------
    mutation_backend = None
    if serve_writes:
        mutation_backend = MutationBackend(index, replicator=replicator)
    server = QueryServer(
        auditor,
        queue_depth=serving.queue_depth,
        batch_size=serving.batch_size,
        deadline_seconds=serving.deadline_seconds,
        on_advance=timeline.advance,
        mutation_backend=mutation_backend,
    )
    pairs, arrivals = spec.traffic.build(graph.num_vertices)
    if serve_writes:
        report = server.run_mixed(pairs, arrivals, stream, times)
    elif arrivals is None:
        report = server.run_closed(pairs, clients=spec.traffic.clients)
    else:
        report = server.run_open(pairs, arrivals)

    # --- audit: every served answer vs the oracle at its version -----
    audited, incorrect = _audit(graph, applied_updates, auditor.records)
    checks = _grade(spec, report, incorrect)
    return ScenarioResult(
        spec=spec,
        report=report,
        checks=checks,
        audited=audited,
        incorrect_answers=incorrect,
        events=list(store.events),
    )


def _audit(
    graph: DiGraph,
    applied_updates: list[tuple[str, int, int]],
    records: list[tuple[int, int, int, bool]],
) -> tuple[int, int]:
    """Check every served answer against the exact graph it was served
    on: replay the applied ops on an adjacency up to each recorded
    version, and compare with a transitive closure of that graph.  The
    closure follows inserts and added vertices in place, a promote moves
    no edge, and a delete ``(u, v)`` after which ``u`` still reaches
    ``v`` removes no pair; any other delete, and a deleted vertex, has
    the closure rebuilt before the next answer is checked."""
    out = _Adjacency(set(graph.out_neighbors(u)) for u in range(graph.num_vertices))
    oracle = None  # rebuilt from ``out`` when next needed
    version = 0
    audited = incorrect = 0
    for record_version, s, t, answer in sorted(records, key=lambda r: r[0]):
        while version < record_version:
            op, u, v = applied_updates[version]
            version += 1
            if op == "insert":
                out[u].add(v)
                if oracle is not None:
                    oracle.add_edge(u, v)
            elif op == "delete":
                out[u].discard(v)
                if oracle is not None and v not in reachable_set(out, u):
                    oracle = None
            elif op == "add_node":
                out.append(set())
                if oracle is not None:
                    oracle.add_vertex()
            elif op == "delete_node":
                out[u].clear()
                for targets in out:
                    targets.discard(u)
                oracle = None
        if oracle is None:
            oracle = TransitiveClosure(out)
        audited += 1
        incorrect += answer != oracle.query(s, t)
    return audited, incorrect


class _Adjacency(list):
    """The audit's mutable graph: ``self[u]`` is ``u``'s out-neighbor
    set, read like a :class:`DiGraph` by the closure and the BFS."""

    @property
    def num_vertices(self) -> int:
        return len(self)

    def out_neighbors(self, v: int) -> set[int]:
        return self[v]


def _grade(
    spec: ScenarioSpec, report: ServeReport, incorrect: int
) -> list[ExpectationCheck]:
    """Grade the spec's ``expect`` block against the run."""
    checks = []
    for name, expected in spec.expect.items():
        reads = EXPECTATIONS[name][1]
        actual = (
            getattr(report, reads)
            if isinstance(reads, str)
            else reads(report, incorrect)
        )
        if name.endswith("_min"):
            ok = actual >= expected
        else:
            ok = actual <= expected
        checks.append(ExpectationCheck(name, float(expected), float(actual), ok))
    return checks


def write_scenario_report(
    results: list[ScenarioResult], path: str | Path
) -> None:
    """Write a combined JSON report atomically (never a torn file)."""
    payload = {
        "scenarios": [result.to_dict() for result in results],
        "ok": all(result.ok for result in results),
    }
    atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
