"""Query backends: one ``query_with_cost(s, t)`` per way of answering."""

from __future__ import annotations

from typing import Protocol

from repro.baselines.bfl import BflIndex
from repro.baselines.online import OnlineSearcher
from repro.core.labels import label_sizes
from repro.errors import ReproError, check_vertex
from repro.graph.digraph import DiGraph
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.pregel.serial import SerialMeter
from repro.telemetry import tracing


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
        self._index = index
        self._out_size_of, self._in_size_of = label_sizes(index)
        self._t_op = (cost_model or DEFAULT_COST_MODEL).t_op

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        index = self._index
        n = index.num_vertices  # read per query: a dynamic index grows
        check_vertex(s, n)
        check_vertex(t, n)
        units = self._out_size_of(s) + self._in_size_of(t) + 1
        return index.query(s, t), units * self._t_op


class MeteredSearchBackend:
    """Backend over BFL^C, whose ``query(s, t, meter=)`` charges a
    serial meter for its label tests and its occasional pruned search."""

    def __init__(self, index: BflIndex, cost_model: CostModel | None = None):
        self._index = index
        self._cost = (cost_model or DEFAULT_COST_MODEL).with_time_limit(None)

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        index = self._index
        check_vertex(s, index.num_vertices)
        check_vertex(t, index.num_vertices)
        meter = SerialMeter(self._cost)
        answer = index.query(s, t, meter=meter)
        return answer, meter.simulated_seconds


class FallbackBackend:
    """Serve from the index when it exists, fall back to BFS otherwise.

    Degraded-mode serving for a cluster whose index build died
    (out-of-memory, the simulated cut-off): queries keep being
    answered — by :class:`~repro.baselines.online.OnlineSearcher`
    traversal of the raw graph — just slower.  Every fallback-served
    query increments :attr:`fallback_queries` (a served run's report,
    and so its ``serve.run`` span, carries it) so operators can see the
    degradation.

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
        answer, seconds = self._fallback.query_with_cost(s, t)
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.add_stage("fallback", seconds)
        return answer, seconds
