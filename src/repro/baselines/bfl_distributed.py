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

import random

from repro.baselines.bfl import DEFAULT_S_BITS, BflIndex, build_bfl
from repro.errors import check_count, check_vertex
from repro.faults import FaultPlan
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
    faults: FaultPlan | None = None,
    checkpoint_interval: int | None = None,
) -> tuple[DistributedBflIndex, RunStats]:
    """Build BFL over a partitioned graph with distributed-DFS costs.

    Returns the index and a :class:`RunStats` whose simulated time
    reflects the serial token walk (computation) plus one ``t_hop`` for
    every cross-node edge traversal (communication).

    Faults (see :mod:`repro.faults`) are applied analytically — BFL^D
    has no super-steps, so a :class:`~repro.faults.NodeCrash`'s
    ``superstep`` is read as the *hop index* of the serialized token
    walk at which the node dies.  With ``checkpoint_interval`` the
    walker snapshots its visited map every that-many hops; a crash
    loses only the walk since the last snapshot, otherwise the whole
    walk restarts.  Stragglers slow the fraction of the walk spent on
    their partition; transit faults charge retransmitted hops.  As in
    the BSP engine, the produced index is identical to the fault-free
    build — only the cost accounting changes.
    """
    if cost_model is None:
        cost_model = CostModel()
    if checkpoint_interval is not None:
        checkpoint_interval = check_count("checkpoint_interval", checkpoint_interval)
    if faults is not None:
        faults.validate_for(num_nodes)
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
    if faults is not None or checkpoint_interval is not None:
        _apply_analytic_faults(
            stats, graph, node_of, hops, faults, checkpoint_interval, cost_model
        )
    cost_model.check_time(stats.simulated_seconds)
    return DistributedBflIndex(inner, graph, node_of, cost_model), stats


def _apply_analytic_faults(
    stats: RunStats,
    graph: DiGraph,
    node_of: list[int],
    hops: int,
    faults: FaultPlan | None,
    checkpoint_interval: int | None,
    cost: CostModel,
) -> None:
    """Fold a fault plan into BFL^D's analytic accounting (in place).

    The token walk is serial, so costs amortize cleanly: one "hop" of
    progress costs ``(computation + communication) / hops`` seconds,
    and a crash at hop ``s`` loses the progress since the last
    checkpointed hop.  Checkpoints persist the walker's visited map
    (one entry per vertex), written by the single active node.
    """
    n = graph.num_vertices
    checkpoint_bytes = n * cost.entry_bytes
    per_hop = stats.simulated_seconds / hops if hops else 0.0

    if checkpoint_interval is not None and hops:
        count = hops // checkpoint_interval
        stats.checkpoints += count
        stats.checkpoint_seconds += (
            count * checkpoint_bytes * cost.t_checkpoint_byte
        )
    if faults is None:
        return

    if faults.stragglers:
        slowdown = faults.slowdowns(stats.num_nodes)
        share = [0] * stats.num_nodes
        for v in range(n):
            share[node_of[v]] += 1
        if n:
            multiplier = sum(
                share[node] * slowdown[node] for node in range(stats.num_nodes)
            ) / n
            stats.computation_seconds *= multiplier

    if faults.has_transit_faults and hops:
        rng = random.Random(faults.seed)
        lost = duplicated = 0
        loss, dup = faults.loss_rate, faults.duplication_rate
        if loss:
            for _ in range(hops):
                if rng.random() < loss:
                    lost += 1
        if dup:
            for _ in range(hops):
                if rng.random() < dup:
                    duplicated += 1
        stats.messages_lost += lost
        stats.messages_duplicated += duplicated
        stats.communication_seconds += (lost + duplicated) * cost.t_hop

    for crash in faults.crashes:
        if crash.superstep > hops:
            continue  # the walk finished before the node died
        stats.crashes += 1
        if checkpoint_interval is not None:
            lost_hops = crash.superstep % checkpoint_interval
            restore = checkpoint_bytes * cost.t_checkpoint_byte
        else:
            lost_hops = crash.superstep
            restore = 0.0
        stats.recovery_seconds += (
            cost.failover_seconds + restore + lost_hops * per_hop
        )
