"""Query backends and the batch evaluation service."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.baselines.bfl import BflIndex
from repro.baselines.grail import GrailIndex
from repro.baselines.online import OnlineSearcher
from repro.core.labels import ReachabilityIndex, label_sizes
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, node_assignment
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.telemetry import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    current_metrics,
    enabled,
    trace_span,
)
from repro.telemetry.metrics import sorted_percentile


class QueryBackend(Protocol):
    """Anything that answers a reachability query with a cost."""

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        """Returns ``(answer, simulated seconds)``."""
        ...  # pragma: no cover


class IndexBackend:
    """2-hop index backend (TOL / DRL family): charged as a sorted merge.

    Serves every index flavour :func:`~repro.core.labels.label_sizes`
    reads; over a live dynamic index the sizes come from the mutable
    index, so answers track updates (pair it with
    :class:`repro.serve.QueryCache`, which subscribes to its hooks).
    """

    def __init__(self, index, cost_model: CostModel | None = None):
        self._query = index.query
        self._out_size_of, self._in_size_of = label_sizes(index)
        self._t_op = (cost_model or DEFAULT_COST_MODEL).t_op

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        units = self._out_size_of(s) + self._in_size_of(t) + 1
        return self._query(s, t), units * self._t_op


class MeteredSearchBackend:
    """Backend over an index whose ``query(s, t, meter=)`` mixes label
    tests with an occasional pruned search, metered serially: BFL^C's
    Bloom-filter labels (:class:`BflBackend`) and GRAIL's intervals
    (:class:`GrailBackend`)."""

    def __init__(
        self, index: BflIndex | GrailIndex, cost_model: CostModel | None = None
    ):
        self._index = index
        self._cost = cost_model or DEFAULT_COST_MODEL

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        from repro.pregel.serial import SerialMeter

        meter = SerialMeter(self._cost.with_time_limit(None))
        answer = self._index.query(s, t, meter=meter)
        return answer, meter.simulated_seconds


BflBackend = GrailBackend = MeteredSearchBackend


class OnlineBackend:
    """Index-free backend: BFS per query."""

    def __init__(self, graph: DiGraph, cost_model: CostModel | None = None):
        self._searcher = OnlineSearcher(graph, cost_model or DEFAULT_COST_MODEL)

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        return self._searcher.query_with_cost(s, t)


class DistributedIndexBackend:
    """Query a 2-hop index whose labels stay sharded across nodes.

    The alternative to the paper's collect-to-one-machine setup: each
    query fetches ``L_out(s)`` and ``L_in(t)`` from their owners (up to
    two serialized hops plus label bytes) and merges locally.  Still
    orders of magnitude cheaper than traversing the distributed graph.
    """

    def __init__(
        self,
        index: ReachabilityIndex,
        num_nodes: int = 32,
        cost_model: CostModel | None = None,
    ):
        self._index = index
        self._cost = cost_model or DEFAULT_COST_MODEL
        self._node_of = node_assignment(
            HashPartitioner(num_nodes), index.num_vertices
        )

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        cost = self._cost
        index = self._index
        out_size = index.out_sizes[s]
        in_size = index.in_sizes[t]
        seconds = (out_size + in_size + 1) * cost.t_op
        for vertex, size in ((s, out_size), (t, in_size)):
            if self._node_of[vertex] != 0:  # node 0 coordinates the gather
                seconds += cost.t_hop + size * cost.entry_bytes * cost.t_byte
        return index.query(s, t), seconds


class FallbackBackend:
    """Serve from the index when it exists, fall back to BFS otherwise.

    Degraded-mode serving for a cluster whose index build died (crash
    without checkpointing, out-of-memory, cut-off): queries keep being
    answered — via :class:`OnlineBackend` traversal of the raw graph —
    just slower.  Every fallback-served query increments the
    ``query.fallback`` counter so operators can see the degradation.

    Use :meth:`from_build` to construct one directly from a build
    attempt: a successful build serves from the index, a build that
    raised a :class:`~repro.errors.ReproError` serves from the graph.
    """

    def __init__(
        self,
        primary: "QueryBackend | None",
        graph: DiGraph,
        cost_model: CostModel | None = None,
    ):
        self._primary = primary
        self._fallback = OnlineBackend(graph, cost_model)
        self.fallback_queries = 0

    @classmethod
    def from_build(
        cls,
        graph: DiGraph,
        builder,
        cost_model: CostModel | None = None,
    ) -> "FallbackBackend":
        """Run ``builder()`` (returning an index-bearing result or a
        bare index) and wrap whatever survives.

        Build failures signalled by a :class:`~repro.errors.ReproError`
        (time limit, memory, super-step limit) degrade to online BFS;
        other exceptions are bugs and propagate.
        """
        try:
            built = builder()
        except ReproError:
            return cls(None, graph, cost_model)
        index = getattr(built, "index", built)
        return cls(IndexBackend(index, cost_model), graph, cost_model)

    @property
    def degraded(self) -> bool:
        """True when serving BFS fallbacks instead of the index."""
        return self._primary is None

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        if self._primary is not None:
            return self._primary.query_with_cost(s, t)
        self.fallback_queries += 1
        if enabled():
            current_metrics().counter("query.fallback").inc()
        answer, seconds = self._fallback.query_with_cost(s, t)
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.add_stage("fallback", seconds)
        return answer, seconds


@dataclass(frozen=True)
class QueryReport:
    """Latency statistics for one evaluated workload."""

    count: int
    positives: int
    total_seconds: float
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    max_seconds: float

    @property
    def positive_rate(self) -> float:
        """Fraction of queries answered True."""
        return self.positives / self.count if self.count else 0.0

    @property
    def throughput(self) -> float:
        """Queries per simulated second."""
        return self.count / self.total_seconds if self.total_seconds else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.count} queries ({self.positive_rate:.0%} positive): "
            f"mean {self.mean_seconds:.2e}s, p95 {self.p95_seconds:.2e}s, "
            f"p99 {self.p99_seconds:.2e}s, max {self.max_seconds:.2e}s"
        )


class QueryService:
    """Evaluates query workloads against a backend.

    When a telemetry session is active (or ``metrics`` is given
    explicitly), every query feeds the ``query.latency_seconds``
    histogram and the ``query.count`` / ``query.positives`` counters,
    and :meth:`evaluate` runs inside a ``query.evaluate`` span whose
    simulated seconds are the workload's total latency.
    """

    def __init__(
        self, backend: QueryBackend, metrics: MetricsRegistry | None = None
    ):
        self._backend = backend
        self._metrics = metrics

    def _registry(self) -> MetricsRegistry | None:
        """Explicit registry, the session's when active, else none."""
        if self._metrics is not None:
            return self._metrics
        return current_metrics() if enabled() else None

    @staticmethod
    def _record(registry: MetricsRegistry, answer: bool, seconds: float) -> None:
        registry.counter("query.count").inc()
        if answer:
            registry.counter("query.positives").inc()
        registry.histogram("query.latency_seconds", LATENCY_BUCKETS).observe(
            seconds
        )

    def _ask(self, s: int, t: int) -> tuple[bool, float]:
        """One backend call; an id outside the index is a typed error (a
        negative one would count from the end: another vertex's answer)."""
        if s >= 0 and t >= 0:
            try:
                return self._backend.query_with_cost(s, t)
            except IndexError:
                pass
        raise ReproError(f"query ({s}, {t}) names a vertex outside the index")

    def query(self, s: int, t: int) -> bool:
        """Single query, answer only."""
        answer, seconds = self._ask(s, t)
        registry = self._registry()
        if registry is not None:
            self._record(registry, answer, seconds)
        return answer

    def evaluate(self, pairs: Iterable[tuple[int, int]]) -> QueryReport:
        """Run every pair and collect latency statistics."""
        registry = self._registry()
        latencies: list[float] = []
        positives = 0
        with trace_span(
            "query.evaluate", backend=type(self._backend).__name__
        ) as span:
            for s, t in pairs:
                answer, seconds = self._ask(s, t)
                positives += answer
                latencies.append(seconds)
                if registry is not None:
                    self._record(registry, answer, seconds)
            span.set(count=len(latencies), positives=positives)
            span.add_simulated(sum(latencies))
        if not latencies:
            return QueryReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        latencies.sort()
        total = sum(latencies)
        return QueryReport(
            count=len(latencies),
            positives=positives,
            total_seconds=total,
            mean_seconds=total / len(latencies),
            p50_seconds=sorted_percentile(latencies, 0.50),
            p95_seconds=sorted_percentile(latencies, 0.95),
            p99_seconds=sorted_percentile(latencies, 0.99),
            max_seconds=latencies[-1],
        )
