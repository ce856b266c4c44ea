"""Query backends: one ``query_with_cost(s, t)`` per way of answering."""

from __future__ import annotations

from typing import Protocol

from repro.baselines.online import OnlineSearcher
from repro.baselines.search import FilterSearchIndex
from repro.core.labels import ReachabilityIndex, label_sizes
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, node_assignment
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.telemetry import current_metrics, enabled


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
    """Backend over a filter-and-search index (BFL^C's Bloom filters,
    GRAIL's intervals, IP's sketches), whose ``query(s, t, meter=)``
    mixes label tests with an occasional pruned search, metered
    serially."""

    def __init__(
        self, index: FilterSearchIndex, cost_model: CostModel | None = None
    ):
        self._index = index
        self._cost = cost_model or DEFAULT_COST_MODEL

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        from repro.pregel.serial import SerialMeter

        meter = SerialMeter(self._cost.with_time_limit(None))
        answer = self._index.query(s, t, meter=meter)
        return answer, meter.simulated_seconds


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
    answered — by :class:`~repro.baselines.online.OnlineSearcher`
    traversal of the raw graph — just slower.  Every fallback-served
    query increments the ``query.fallback`` counter so operators can see
    the degradation.

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
        self._fallback = OnlineSearcher(graph, cost_model)
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
