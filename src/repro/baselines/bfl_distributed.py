"""``BFL^D`` — BFL built and queried with *distributed DFS* (Exp 2).

BFL's construction is tied to DFS post-order, and DFS is inherently
serial: a single token walks the graph, paying one network hop every
time it crosses a partition boundary and being unable to batch those
hops (unlike BSP messages).  Queries that the labels cannot decide must
traverse the distributed graph the same way.  Both facts make BFL^D
slow — the paper measures it ~52× slower than DRL_b at indexing and
~870× slower at querying, which is exactly the behaviour this model
reproduces.

The *index* produced is identical to ``BFL^C`` (same labels); only the
cost accounting differs.
"""

from __future__ import annotations

from repro.baselines.bfl import DEFAULT_S_BITS, BflIndex, build_bfl
from repro.errors import check_vertex
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, Partitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.metrics import RunStats


class DistributedBflIndex:
    """A BFL index whose fallback searches run on the distributed graph."""

    def __init__(
        self,
        inner: BflIndex,
        graph: DiGraph,
        node_of: list[int],
        cost_model: CostModel,
    ):
        self._inner = inner
        self._graph = graph
        self._node_of = node_of
        self._cost = cost_model
        self._stamp = 0
        self._seen = [0] * graph.num_vertices

    @property
    def inner(self) -> BflIndex:
        """The underlying label structure (same as BFL^C)."""
        return self._inner

    def size_bytes(self) -> int:
        """Same labels as BFL^C, hence the same index size."""
        return self._inner.size_bytes()

    def query(self, s: int, t: int) -> bool:
        """Distributed answer (identical truth value to BFL^C)."""
        answer, _seconds = self.query_with_cost(s, t)
        return answer

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        """Returns ``(answer, simulated seconds)`` for one query.

        Label checks are free-ish (labels are small enough to
        replicate); an inconclusive query pays a serialized token walk
        over the partitioned graph, pruned by the labels like BFL^C's
        fallback but charged one ``t_hop`` per cross-node edge.
        """
        check_vertex(s, self._graph.num_vertices)
        check_vertex(t, self._graph.num_vertices)
        cost = self._cost
        answer, used_fallback = self._inner.query_verbose(s, t)
        # Labels live with their owning nodes: every query first fetches
        # the labels of s and t (two serialized hops).
        label_fetch = 2 * cost.t_hop + 8 * cost.t_op
        if not used_fallback:
            return answer, label_fetch
        units, hops = self._fallback_walk(s, t)
        return answer, label_fetch + units * cost.t_op + hops * cost.t_hop

    def _fallback_walk(self, s: int, t: int) -> tuple[int, int]:
        """Label-pruned DFS token walk from ``s``; counts work + hops."""
        inner = self._inner
        component_of = inner._cond.component_of
        ct = component_of[t]
        graph = self._graph
        node_of = self._node_of
        self._stamp += 1
        stamp = self._stamp
        seen = self._seen
        seen[s] = stamp
        stack = [s]
        units = 1
        hops = 0
        while stack:
            u = stack.pop()
            for w in graph.out_neighbors(u):
                units += 1
                if node_of[w] != node_of[u]:
                    hops += 1
                if w == t:
                    return units, hops
                if seen[w] == stamp:
                    continue
                cw = component_of[w]
                if cw == ct or inner.confirms(cw, ct):
                    return units, hops
                if inner.refutes(cw, ct):
                    continue
                seen[w] = stamp
                stack.append(w)
        return units, hops


def build_bfl_distributed(
    graph: DiGraph,
    num_nodes: int = 32,
    s_bits: int = DEFAULT_S_BITS,
    seed: int = 0,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
) -> tuple[DistributedBflIndex, RunStats]:
    """Build BFL over a partitioned graph with distributed-DFS costs.

    Returns the index and a :class:`RunStats` whose simulated time
    reflects the serial token walk (computation) plus one ``t_hop`` for
    every cross-node edge traversal (communication).
    """
    if cost_model is None:
        cost_model = CostModel()
    partitioner = (
        partitioner if partitioner is not None else HashPartitioner(num_nodes)
    )
    node_of = [partitioner.node_of(v) for v in graph.vertices()]

    # Work: the DFS/condensation and label merges (same as BFL^C).
    units = 2 * (graph.num_edges + graph.num_vertices)
    units += graph.num_vertices * max(1, s_bits // 64)
    # Token hops: the DFS walks every edge once forward and retreats
    # back over tree edges; crossing edges pay a serialized hop each way.
    hops = 0
    for u, v in graph.edges():
        if node_of[u] != node_of[v]:
            hops += 2
    computation = units * cost_model.t_op
    communication = hops * cost_model.t_hop

    inner = build_bfl(graph, s_bits=s_bits, seed=seed)
    stats = RunStats(
        num_nodes=num_nodes,
        compute_units=units,
        remote_messages=hops,
        remote_bytes=hops * cost_model.message_bytes,
        computation_seconds=computation,
        communication_seconds=communication,
        per_node_units=[units] + [0] * (num_nodes - 1),
    )
    cost_model.check_time(stats.simulated_seconds)
    return DistributedBflIndex(inner, graph, node_of, cost_model), stats

