"""DRL — distributed reachability labeling (Algorithm 3).

One vertex-centric program floods *trimmed BFSs from every source at
once*, in both directions simultaneously:

- forward messages follow out-edges of ``G`` and compute the backward
  in-label sets (``fwd_set[w]`` ends up equal to ``L_in(w)``);
- reverse messages follow in-edges (i.e. run on ``Ḡ``) and compute the
  backward out-label sets (``rev_set[w]`` ends up equal to ``L_out(w)``).

Each direction's *inverted lists* (Definition 6) are the other
direction's visitor lists: ``IBFS_low(w) = rev_list[w]`` refines the
forward direction, and ``fwd_list[w]`` refines the reverse direction.
The lists are shared cluster-wide (``publish_entries`` charges the
replication traffic, Lemma 7) with BSP visibility: a ``Check`` during
super-step ``s`` sees entries published at barrier ``s - 1``; the exact
post-pass (Alg. 3 lines 19-20) then removes every survivor that a fully
published ``Check`` eliminates.

The same program, parameterized with batch label sets and a restricted
source set, implements a DRL_b batch (Algorithm 4); see
:mod:`repro.core.drl_batch`.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import Sequence

from repro.core.labels import LabelingResult, ReachabilityIndex
from repro.faults import FaultPlan
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order
from repro.graph.partition import Partitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster, ComputeContext, FinalizeContext
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import trace_span

FORWARD = 0
REVERSE = 1


class DrlFloodProgram(VertexProgram):
    """All-sources bidirectional trimmed-BFS flooding with refinement.

    Parameters
    ----------
    graph:
        The input graph ``G``.
    order:
        Total vertex order.
    sources:
        Vertices that initiate BFSs this run (a DRL_b batch); ``None``
        labels every vertex (plain DRL).
    in_label_sets / out_label_sets:
        Accumulated batch label sets ``L^{V_i}_in`` / ``L^{V_i}_out``
        from previous batches, used for Algorithm 4's pruning; ``None``
        disables batch pruning (plain DRL).
    check_pruning:
        Apply the opportunistic ``Check`` prune during the flood
        (Alg. 3 line 14).  Disabling it only costs work — the final
        cleanup still produces the exact index — and is exposed for the
        ablation benchmark.
    combine_messages:
        Enable the Pregel message combiner (drop duplicate messages per
        sending node per super-step).  Sound here because duplicate
        ``(source, direction)`` deliveries are no-ops; exposed for the
        combiner ablation.
    """

    mp_supported = True

    def __init__(
        self,
        graph: DiGraph,
        order: VertexOrder,
        sources: Sequence[int] | None = None,
        in_label_sets: list[set[int]] | None = None,
        out_label_sets: list[set[int]] | None = None,
        check_pruning: bool = True,
        combine_messages: bool = False,
    ):
        self.combine_duplicates = combine_messages
        n = graph.num_vertices
        self._graph = graph  # unread; its name is in the checkpoint bytes
        self._rank = order.ranks
        self._check_pruning = check_pruning
        self._in_label_sets = in_label_sets
        self._out_label_sets = out_label_sets
        if sources is None:
            self._is_source = None
        else:
            self._is_source = bytearray(n)
            for v in sources:
                self._is_source[v] = 1
        # Local visit status (w's own state; self-marked for sources).
        self.fwd_set: list[set[int]] = [set() for _ in range(n)]
        self.rev_set: list[set[int]] = [set() for _ in range(n)]
        # Published visitor lists for remote Check() reads (no self-marks).
        self._fwd_list: list[list[int]] = [[] for _ in range(n)]
        self._rev_list: list[list[int]] = [[] for _ in range(n)]
        self._fwd_pub = [0] * n
        self._rev_pub = [0] * n
        self._dirty_fwd: set[int] = set()
        self._dirty_rev: set[int] = set()

    # ------------------------------------------------------------------
    def initial_vertices(self, graph: DiGraph):
        if self._is_source is None:
            return graph.vertices()
        return compress(graph.vertices(), self._is_source)

    def compute(self, ctx: ComputeContext, w: int, messages) -> None:
        if ctx.superstep == 1:  # w is a source (see initial_vertices)
            if self._in_label_sets is not None:
                ins, outs = self._in_label_sets[w], self._out_label_sets[w]
                ctx.charge(min(len(ins), len(outs)) + 2)
                # Alg. 4 line 6: a higher-order vertex closes a cycle
                # through w, so every backward set of w is empty — skip.
                if not ins.isdisjoint(outs):
                    return
                # Alg. 4 line 8: share w's batch label sets cluster-wide.
                ctx.publish_entries(len(ins) + len(outs))
            else:
                ctx.charge()
            self.fwd_set[w].add(w)
            self.rev_set[w].add(w)
            ctx.send_to_out_neighbors((w, FORWARD))
            ctx.send_to_in_neighbors((w, REVERSE))
            return
        rank = self._rank
        rank_w = rank[w]
        fwd_seen, rev_seen = self.fwd_set[w], self.rev_set[w]
        in_sets, out_sets = self._in_label_sets, self._out_label_sets
        check = self._check_pruning
        units = accepted = 0
        for message in messages:
            v, direction = message
            forward = direction == FORWARD
            seen = fwd_seen if forward else rev_seen
            if v in seen:
                continue  # visited before (Alg. 3 line 12)
            if rank[v] >= rank_w:
                continue  # ord(v) < ord(w): w blocks this branch (trimmed BFS)
            if in_sets is not None:
                # Alg. 4 line 12: a previous batch's vertex on the v-w walk?
                if forward:
                    a, b = out_sets[v], in_sets[w]
                else:
                    a, b = in_sets[v], out_sets[w]
                units += min(len(a), len(b)) + 1
                if not a.isdisjoint(b):
                    continue
            if check:
                # Alg. 3 line 14, Check(v, w): the inverted list of v as
                # published at the last barrier against w's own visits.
                if forward:
                    inverted, limit = self._rev_list[v], self._rev_pub[v]
                else:
                    inverted, limit = self._fwd_list[v], self._fwd_pub[v]
                units += limit + 1
                if limit and not seen.isdisjoint(islice(inverted, limit)):
                    continue  # a current-run vertex lies on the walk
            seen.add(v)
            accepted += 1
            if forward:
                self._fwd_list[w].append(v)
                self._dirty_fwd.add(w)
                ctx.send_to_out_neighbors(message)
            else:
                self._rev_list[w].append(v)
                self._dirty_rev.add(w)
                ctx.send_to_in_neighbors(message)
        ctx.charge(units)
        ctx.publish_entries(accepted)  # replicate the new inverted-list entries

    def on_barrier(self, superstep: int) -> None:
        # Publish this super-step's new inverted-list entries.
        for w in self._dirty_fwd:
            self._fwd_pub[w] = len(self._fwd_list[w])
        for w in self._dirty_rev:
            self._rev_pub[w] = len(self._rev_list[w])
        self._dirty_fwd.clear()
        self._dirty_rev.clear()

    def finalize_vertices(self, fctx: FinalizeContext, vertices) -> None:
        """Alg. 3 lines 19-20: exact cleanup on fully published lists.

        In-place removal is sound: an eliminated pair always has a
        *maximal* witness (the highest-order vertex on any v-w walk),
        and a maximal witness can never itself be eliminated, so later
        Checks never miss their witness.  Per-vertex by construction —
        ``w``'s cleanup touches only ``w``'s sets plus the (read-only,
        fully published) inverted lists — so the multiprocessing engine
        splits it across workers.
        """
        for w in vertices:
            for local, inverted in (
                (self.fwd_set[w], self._rev_list),
                (self.rev_set[w], self._fwd_list),
            ):
                if not local:
                    continue
                units = 0
                for v in sorted(local):
                    witnesses = inverted[v]
                    units += len(witnesses) + 1
                    if witnesses and not local.isdisjoint(witnesses):
                        local.discard(v)
                fctx.charge(w, units)

    # -- multiprocessing-engine hooks ----------------------------------
    def mp_publish_delta(self):
        if not self._dirty_fwd and not self._dirty_rev:
            return None
        return (
            [
                (w, self._fwd_list[w][self._fwd_pub[w]:])
                for w in sorted(self._dirty_fwd)
            ],
            [
                (w, self._rev_list[w][self._rev_pub[w]:])
                for w in sorted(self._dirty_rev)
            ],
        )

    def mp_apply_published(self, delta) -> None:
        # Only the owner of w ever appends to list[w], so a replica that
        # already holds entries past the published watermark must be the
        # producer itself — skip the extend, keep the dirty mark so
        # on_barrier() advances every replica's watermark identically.
        for w, entries in delta[0]:
            if len(self._fwd_list[w]) == self._fwd_pub[w]:
                self._fwd_list[w].extend(entries)
            self._dirty_fwd.add(w)
        for w, entries in delta[1]:
            if len(self._rev_list[w]) == self._rev_pub[w]:
                self._rev_list[w].extend(entries)
            self._dirty_rev.add(w)

    def mp_collect(self, vertices):
        # The master's replica never computes: what is empty here is
        # empty there already.
        return [
            (w, self.fwd_set[w], self.rev_set[w])
            for w in vertices
            if self.fwd_set[w] or self.rev_set[w]
        ]

    def mp_merge(self, collected) -> None:
        for w, fwd, rev in collected:
            self.fwd_set[w] = fwd
            self.rev_set[w] = rev


def inverted_list_stats(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> dict[str, float]:
    """Measure the inverted lists' sizes after a DRL run.

    Reproduces the paper's Section III-D remark: "the average size of
    ``IBFS_low(v)`` of each vertex ``v`` is less than one", which is why
    sharing the lists is cheap (Lemma 7).  Returns average and maximum
    sizes for both directions' lists.
    """
    if order is None:
        order = degree_order(graph)
    program = DrlFloodProgram(graph, order)
    Cluster(num_nodes=num_nodes, cost_model=cost_model).run(graph, program)
    n = max(1, graph.num_vertices)
    rev_sizes = [len(lst) for lst in program._rev_list]
    fwd_sizes = [len(lst) for lst in program._fwd_list]
    return {
        "avg_ibfs": sum(rev_sizes) / n,
        "max_ibfs": max(rev_sizes, default=0),
        "avg_forward": sum(fwd_sizes) / n,
        "max_forward": max(fwd_sizes, default=0),
    }


def drl_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
    check_pruning: bool = True,
    combine_messages: bool = False,
    faults: FaultPlan | None = None,
    checkpoint_interval: int | None = None,
    node_timeline: bool = False,
    engine: str = "sim",
    workers: int | None = None,
) -> LabelingResult:
    """Build the TOL index with DRL (Algorithm 3) on a cluster.

    Returns the index together with the run's cost accounting.  With a
    ``faults`` plan (see :mod:`repro.faults`) the build rides out the
    injected failures and still produces the identical index; recovery
    overhead lands in the returned stats.  ``node_timeline=True``
    records the per-node breakdown into ``stats.node_timeline`` (see
    :mod:`repro.profiling`).  ``engine="mp"`` runs the flood across
    ``workers`` real processes (identical index and simulated-clock
    accounting, faster wall clock; see :mod:`repro.pregel.mp`).
    """
    if order is None:
        order = degree_order(graph)
    program = DrlFloodProgram(
        graph,
        order,
        check_pruning=check_pruning,
        combine_messages=combine_messages,
    )
    cluster = Cluster(
        num_nodes=num_nodes,
        cost_model=cost_model,
        partitioner=partitioner,
        faults=faults,
        checkpoint_interval=checkpoint_interval,
        engine=engine,
        workers=workers,
    )
    with trace_span(
        "drl.build", vertices=graph.num_vertices, num_nodes=num_nodes
    ) as span:
        with trace_span("drl.flood") as flood:
            stats = cluster.run(graph, program, node_timeline=node_timeline)
            flood.add_simulated(stats.simulated_seconds)
        with trace_span("drl.collection"):
            index = ReachabilityIndex.from_label_lists(
                program.fwd_set, program.rev_set
            )
        span.add_simulated(stats.simulated_seconds)
        span.set(entries=index.num_entries)
    return LabelingResult(index=index, stats=stats)
