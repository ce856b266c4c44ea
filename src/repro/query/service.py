"""Query backends: one ``query_with_cost(s, t)`` per way of answering."""

from __future__ import annotations

from typing import Protocol

from repro.baselines.bfl import BflIndex
from repro.core.labels import label_sizes
from repro.errors import check_vertex
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.pregel.serial import SerialMeter


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

