"""DRL⁻ — the basic labeling method (Theorem 3) on the cluster.

Two vertex-centric phases per run:

1. **Filtering**: all-sources trimmed-BFS flooding (both directions at
   once, like DRL but with no ``Check`` refinement), which also records
   each source's blocker set ``BFS_hig(v)``.
2. **Refinement**: a *plain* BFS flood from every distinct blocker
   (``∪_v BFS_hig(v)``), computing which blockers reach which vertices;
   ``w`` is then removed from ``L⁻_in(v)`` iff some ``u ∈ BFS_hig(v)``
   reaches ``w``.

The refinement floods are untrimmed and numerous — this is precisely
why DRL⁻ is orders of magnitude slower than DRL (Fig. 5) and times out
on several graphs.
"""

from __future__ import annotations

from repro.core.drl import FORWARD, REVERSE
from repro.core.labels import LabelingResult, ReachabilityIndex
from repro.faults import FaultPlan
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order
from repro.graph.partition import Partitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster, ComputeContext, FinalizeContext
from repro.pregel.metrics import RunStats
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import trace_span


class _TrimmedFloodProgram(VertexProgram):
    """Phase 1: trimmed BFS from every vertex, recording blockers."""

    mp_supported = True

    def __init__(self, graph: DiGraph, order: VertexOrder):
        n = graph.num_vertices
        self._graph = graph  # unread; its name is in the checkpoint bytes
        self._rank = order.ranks
        self.fwd_set: list[set[int]] = [set() for _ in range(n)]
        self.rev_set: list[set[int]] = [set() for _ in range(n)]
        # BFS_hig per source, per direction (shared for refinement).
        self.hig_fwd: list[set[int]] = [set() for _ in range(n)]
        self.hig_rev: list[set[int]] = [set() for _ in range(n)]

    def compute(self, ctx: ComputeContext, w: int, messages) -> None:
        if ctx.superstep == 1:
            ctx.charge()
            self.fwd_set[w].add(w)
            self.rev_set[w].add(w)
            ctx.send_to_out_neighbors((w, FORWARD))
            ctx.send_to_in_neighbors((w, REVERSE))
            return
        rank = self._rank
        for message in messages:
            v, direction = message
            status = self.fwd_set[w] if direction == FORWARD else self.rev_set[w]
            if v in status:
                continue
            if rank[v] >= rank[w]:
                # w blocks the branch and becomes part of BFS_hig(v);
                # the blocker entry is replicated for the refinement.
                hig = self.hig_fwd[v] if direction == FORWARD else self.hig_rev[v]
                if w not in hig:
                    hig.add(w)
                    ctx.publish_entries()
                continue
            status.add(v)
            if direction == FORWARD:
                ctx.send_to_out_neighbors(message)
            else:
                ctx.send_to_in_neighbors(message)

    # -- multiprocessing-engine hooks ----------------------------------
    # ``hig_fwd[v]`` is keyed by the *source* ``v`` but written by the
    # computing vertex ``w``'s owner, so under the mp engine each worker
    # replica accumulates a disjoint-by-``w`` share of every blocker
    # set.  The sets are never read during the flood (only by phase 2,
    # which starts after collection), so a union merge at the end is
    # exact — and the ``w not in hig`` dedup stays exact too, because
    # all adds of a given ``w`` happen on one worker.
    def mp_collect(self, vertices):
        return (
            [(w, self.fwd_set[w], self.rev_set[w]) for w in vertices],
            [(v, s) for v, s in enumerate(self.hig_fwd) if s],
            [(v, s) for v, s in enumerate(self.hig_rev) if s],
        )

    def mp_merge(self, collected) -> None:
        label_sets, hig_fwd, hig_rev = collected
        for w, fwd, rev in label_sets:
            self.fwd_set[w] = fwd
            self.rev_set[w] = rev
        for v, blockers in hig_fwd:
            self.hig_fwd[v] |= blockers
        for v, blockers in hig_rev:
            self.hig_rev[v] |= blockers


class _DescendantFloodProgram(VertexProgram):
    """Phase 2: plain reachability flood from every distinct blocker,
    followed by the Theorem 3 set subtraction in ``finalize``."""

    mp_supported = True

    def __init__(self, filtering: _TrimmedFloodProgram, graph: DiGraph):
        n = graph.num_vertices
        self._graph = graph  # unread; its name is in the checkpoint bytes
        self._filtering = filtering
        self._src_fwd = bytearray(n)
        self._src_rev = bytearray(n)
        for hig in filtering.hig_fwd:
            for u in hig:
                self._src_fwd[u] = 1
        for hig in filtering.hig_rev:
            for u in hig:
                self._src_rev[u] = 1
        self.des_fwd: list[set[int]] = [set() for _ in range(n)]
        self.des_rev: list[set[int]] = [set() for _ in range(n)]

    def compute(self, ctx: ComputeContext, w: int, messages) -> None:
        if ctx.superstep == 1:
            if self._src_fwd[w]:
                ctx.charge()
                self.des_fwd[w].add(w)
                ctx.send_to_out_neighbors((w, FORWARD))
            if self._src_rev[w]:
                ctx.charge()
                self.des_rev[w].add(w)
                ctx.send_to_in_neighbors((w, REVERSE))
            return
        for message in messages:
            u, direction = message
            des = self.des_fwd[w] if direction == FORWARD else self.des_rev[w]
            if u in des:
                continue
            des.add(u)
            if direction == FORWARD:
                ctx.send_to_out_neighbors(message)
            else:
                ctx.send_to_in_neighbors(message)

    def finalize_vertices(self, fctx: FinalizeContext, vertices) -> None:
        """Theorem 3: drop ``w`` from ``L⁻(v)`` when a blocker of ``v``
        reaches ``w``.  Per-vertex: ``w``'s refinement only writes
        ``w``'s filtering sets and reads the (complete) blocker sets."""
        filtering = self._filtering
        for w in vertices:
            self._refine(fctx, w, filtering.fwd_set[w], filtering.hig_fwd, self.des_fwd[w])
            self._refine(fctx, w, filtering.rev_set[w], filtering.hig_rev, self.des_rev[w])

    # -- multiprocessing-engine hooks ----------------------------------
    # Collect both the descendant sets and the filtering sets this
    # worker's finalize pass refined in its replica.
    def mp_collect(self, vertices):
        filtering = self._filtering
        return [
            (
                w,
                self.des_fwd[w],
                self.des_rev[w],
                filtering.fwd_set[w],
                filtering.rev_set[w],
            )
            for w in vertices
        ]

    def mp_merge(self, collected) -> None:
        filtering = self._filtering
        for w, des_fwd, des_rev, fwd, rev in collected:
            self.des_fwd[w] = des_fwd
            self.des_rev[w] = des_rev
            filtering.fwd_set[w] = fwd
            filtering.rev_set[w] = rev

    @staticmethod
    def _refine(
        fctx: FinalizeContext,
        w: int,
        local: set[int],
        hig: list[set[int]],
        reaching: set[int],
    ) -> None:
        units = 0
        for v in sorted(local):
            blockers = hig[v]
            units += min(len(blockers), len(reaching)) + 1
            if not blockers.isdisjoint(reaching):
                local.discard(v)
        fctx.charge(w, units)


def drl_basic_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
    faults: FaultPlan | None = None,
    checkpoint_interval: int | None = None,
    node_timeline: bool = False,
    engine: str = "sim",
    workers: int | None = None,
) -> LabelingResult:
    """Build the TOL index with DRL⁻ (Theorem 3) on a cluster.

    May raise :class:`~repro.errors.TimeLimitExceeded`: on graphs with
    many blockers the refinement floods exceed the cut-off, exactly as
    in the paper's Fig. 5/6 failure markers.  Both phases share one
    cluster, so a fault plan's crash events fire at most once across
    the whole build.
    """
    if order is None:
        order = degree_order(graph)
    cluster = Cluster(
        num_nodes=num_nodes,
        cost_model=cost_model,
        partitioner=partitioner,
        faults=faults,
        checkpoint_interval=checkpoint_interval,
        engine=engine,
        workers=workers,
    )
    stats = RunStats(num_nodes=cluster.num_nodes)
    stats.per_node_units = [0] * cluster.num_nodes

    with trace_span(
        "drl-.build", vertices=graph.num_vertices, num_nodes=num_nodes
    ) as span:
        filtering = _TrimmedFloodProgram(graph, order)
        with trace_span("drl-.filtering") as phase:
            cluster.run(graph, filtering, stats=stats, node_timeline=node_timeline)
            phase.add_simulated(stats.simulated_seconds)
        refinement = _DescendantFloodProgram(filtering, graph)
        with trace_span("drl-.refinement") as phase:
            before = stats.simulated_seconds
            cluster.run(graph, refinement, stats=stats, node_timeline=node_timeline)
            phase.add_simulated(stats.simulated_seconds - before)
        with trace_span("drl-.collection"):
            index = ReachabilityIndex.from_label_lists(
                filtering.fwd_set, filtering.rev_set
            )
        span.add_simulated(stats.simulated_seconds)
        span.set(entries=index.num_entries)
    return LabelingResult(index=index, stats=stats)
