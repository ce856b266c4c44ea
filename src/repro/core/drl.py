"""DRL — distributed reachability labeling (Algorithm 3).

Every cluster method of the paper is one filtering-and-refinement
kernel under a different *schedule of floods*.  The one vertex-centric
program floods *BFSs from every source at once*, in both directions:

- forward messages follow out-edges of ``G`` and compute the backward
  in-label sets (``fwd_set[w]`` ends up equal to ``L_in(w)``);
- reverse messages follow in-edges (i.e. run on ``Ḡ``) and compute the
  backward out-label sets (``rev_set[w]`` ends up equal to ``L_out(w)``).

Under Alg. 3 each direction's *inverted lists* (Definition 6) are the
other direction's visitor lists: ``IBFS_low(w) = rev_list[w]`` refines
the forward direction, ``fwd_list[w]`` the reverse.  The lists are
shared cluster-wide (``publish_entries`` charges the replication
traffic, Lemma 7) with BSP visibility: a ``Check`` during super-step
``s`` sees entries published at barrier ``s - 1``; the exact post-pass
(Alg. 3 lines 19-20) then removes every survivor that a fully published
``Check`` eliminates.  Theorem 3's refinement (two floods) is described
in :mod:`repro.core.drl_basic`, Algorithm 4's batches in
:mod:`repro.core.drl_batch`; DRL itself (:func:`drl_index`) is one flood.
"""

from __future__ import annotations

from contextlib import ExitStack
from itertools import compress, islice
from typing import Sequence

from repro.core.labels import LabelingResult, ReachabilityIndex
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster, ComputeContext, FinalizeContext
from repro.pregel.metrics import RunStats
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import trace_span

FORWARD = 0
REVERSE = 1


class DrlFloodProgram(VertexProgram):
    """Many-sources bidirectional BFS flooding with refinement.

    Parameters
    ----------
    graph, order:
        The input graph ``G`` and the total vertex order.
    sources:
        Vertices that initiate BFSs this run (a DRL_b batch); ``None``
        labels every vertex (plain DRL).
    in_label_sets / out_label_sets:
        Accumulated batch label sets ``L^{V_i}_in`` / ``L^{V_i}_out``
        for Algorithm 4's pruning; ``None`` disables it (plain DRL).
    check_pruning:
        Apply the opportunistic ``Check`` prune during the flood
        (Alg. 3 line 14).  Disabling it only costs work — the final
        cleanup still produces the exact index; an ablation hook.
    combine_messages:
        Enable the Pregel message combiner (drop duplicate messages per
        sending node per super-step).  Sound here because duplicate
        ``(source, direction)`` deliveries are no-ops; an ablation hook.
    refinement:
        ``"inverted-lists"`` (Alg. 3) or ``"blockers"`` (Thm 3, DRL⁻: no
        ``Check``; record each source's blocker set ``BFS_hig(v)``, then
        :meth:`reflood_from_blockers` and run again to subtract).
    """

    mp_supported = True

    #: Thm 3's flood number (1 = trimmed, recording blockers; 2 = the plain
    #: re-flood from them; 0 under Alg. 3).  Set per instance by Thm 3 only:
    #: checkpoints are priced by instance attributes, so DRL's grow none.
    _thm3_flood = 0

    def __init__(
        self,
        graph: DiGraph,
        order: VertexOrder,
        sources: Sequence[int] | None = None,
        in_label_sets: list[set[int]] | None = None,
        out_label_sets: list[set[int]] | None = None,
        check_pruning: bool = True,
        combine_messages: bool = False,
        refinement: str = "inverted-lists",
    ):
        if refinement not in ("inverted-lists", "blockers"):
            raise ValueError(f"unknown refinement {refinement!r}")
        self.combine_duplicates = combine_messages
        n = graph.num_vertices
        self._graph = graph  # unread; its name is in the checkpoint bytes
        self._rank = order.ranks
        self._check_pruning = check_pruning and refinement != "blockers"
        self._in_label_sets = in_label_sets
        self._out_label_sets = out_label_sets
        self._is_source = None if sources is None else bytearray(n)
        for v in sources or ():
            self._is_source[v] = 3  # both ways: 1 << FORWARD | 1 << REVERSE
        # Local visit status (w's own state; self-marked for sources).
        self.fwd_set: list[set[int]] = [set() for _ in range(n)]
        self.rev_set: list[set[int]] = [set() for _ in range(n)]
        if refinement == "blockers":
            self._thm3_flood = 1
            # BFS_hig per direction, per source (shared for refinement).
            self.hig = [set() for _ in range(n)], [set() for _ in range(n)]
        else:
            # Published visitor lists for remote Check() reads (no self-marks).
            self._fwd_list: list[list[int]] = [[] for _ in range(n)]
            self._rev_list: list[list[int]] = [[] for _ in range(n)]
            self._fwd_pub = [0] * n
            self._rev_pub = [0] * n
        self._dirty_fwd: set[int] = set()
        self._dirty_rev: set[int] = set()

    def reflood_from_blockers(self) -> None:
        """Re-arm a finished filtering flood as Thm 3's *plain* BFS flood
        from every distinct blocker (``∪_v BFS_hig(v)``, per direction)."""
        n = len(self.fwd_set)
        self._thm3_flood = 2
        self._is_source = bytearray(n)
        for direction, blocker_sets in enumerate(self.hig):
            for u in set().union(*blocker_sets):
                self._is_source[u] |= 1 << direction
        # Per direction, per vertex: the blockers that reach it.
        self._des = [set() for _ in range(n)], [set() for _ in range(n)]

    def inverted_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """``IBFS_low`` (Def. 6) and its reverse-direction twin."""
        return self._rev_list, self._fwd_list

    def initial_vertices(self, graph: DiGraph):
        if self._is_source is None:
            return graph.vertices()
        return compress(graph.vertices(), self._is_source)

    def compute(self, ctx: ComputeContext, w: int, messages) -> None:
        thm3_flood = self._thm3_flood
        fwd_seen, rev_seen = self.fwd_set[w], self.rev_set[w]
        if thm3_flood == 2:  # the re-flood marks its visits apart
            fwd_seen, rev_seen = self._des[FORWARD][w], self._des[REVERSE][w]
        in_sets, out_sets = self._in_label_sets, self._out_label_sets
        if ctx.superstep == 1:  # w is a source (see initial_vertices)
            seeds = 3 if self._is_source is None else self._is_source[w]
            if in_sets is not None:
                ins, outs = in_sets[w], out_sets[w]
                ctx.charge(min(len(ins), len(outs)) + 2)
                # Alg. 4 line 6: a higher-order vertex closes a cycle
                # through w, so every backward set of w is empty — skip.
                if not ins.isdisjoint(outs):
                    return
                # Alg. 4 line 8: share w's batch label sets cluster-wide.
                ctx.publish_entries(len(ins) + len(outs))
            else:  # one unit per source; the re-flood's, per direction
                ctx.charge(seeds.bit_count() if thm3_flood == 2 else 1)
            if seeds & 1:
                fwd_seen.add(w)
                ctx.send_to_out_neighbors((w, FORWARD))
            if seeds & 2:
                rev_seen.add(w)
                ctx.send_to_in_neighbors((w, REVERSE))
            return
        rank = self._rank
        # The untrimmed re-flood is a trimmed one where w outranks nobody.
        rank_w = len(rank) if thm3_flood == 2 else rank[w]
        check = self._check_pruning
        inverted = thm3_flood == 0
        units = accepted = blocked = 0
        for message in messages:
            v, direction = message
            forward = direction == FORWARD
            seen = fwd_seen if forward else rev_seen
            if v in seen:
                continue  # visited before (Alg. 3 line 12)
            if rank[v] >= rank_w:
                # ord(v) < ord(w): w blocks this branch (trimmed BFS) —
                # and, under Thm 3, becomes part of BFS_hig(v).
                if not inverted and w not in self.hig[direction][v]:
                    self.hig[direction][v].add(w)
                    blocked += 1
                continue
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
                    witnesses, limit = self._rev_list[v], self._rev_pub[v]
                else:
                    witnesses, limit = self._fwd_list[v], self._fwd_pub[v]
                units += limit + 1
                if limit and not seen.isdisjoint(islice(witnesses, limit)):
                    continue  # a current-run vertex lies on the walk
            seen.add(v)
            accepted += 1
            if forward:
                if inverted:
                    self._fwd_list[w].append(v)
                    self._dirty_fwd.add(w)
                ctx.send_to_out_neighbors(message)
            else:
                if inverted:
                    self._rev_list[w].append(v)
                    self._dirty_rev.add(w)
                ctx.send_to_in_neighbors(message)
        ctx.charge(units)  # none under Thm 3: it neither prunes nor Checks
        # Replicate what the refinement will read: every new inverted-list
        # entry (Alg. 3), every new blocker entry (Thm 3).
        ctx.publish_entries(accepted if inverted else blocked)

    def on_barrier(self, superstep: int) -> None:
        # Publish this super-step's new inverted-list entries.
        for w in self._dirty_fwd:
            self._fwd_pub[w] = len(self._fwd_list[w])
        for w in self._dirty_rev:
            self._rev_pub[w] = len(self._rev_list[w])
        self._dirty_fwd.clear()
        self._dirty_rev.clear()

    def finalize_vertices(self, fctx: FinalizeContext, vertices) -> None:
        """The exact refinement pass, on fully published structures.

        Alg. 3 lines 19-20 drop ``v`` from ``w``'s set when the inverted
        list of ``v`` meets the set itself (``|list| + 1`` units each).
        In-place removal is sound: an eliminated pair always has a
        *maximal* witness (the highest-order vertex on any v-w walk),
        and a maximal witness can never itself be eliminated, so later
        Checks never miss their witness.  Theorem 3's re-flood drops
        ``v`` from ``L⁻(w)`` when a blocker of ``v`` reaches ``w``
        (``min(|BFS_hig(v)|, |reaching|) + 1`` units each).  ``w``'s pass
        writes only ``w``'s sets and reads complete shared structures,
        so the mp engine's workers split it.
        """
        if self._thm3_flood == 1:
            return  # the re-flood refines
        subtract = self._thm3_flood == 2
        refining = self.hig if subtract else (self._rev_list, self._fwd_list)
        for w in vertices:
            for direction, local in enumerate((self.fwd_set[w], self.rev_set[w])):
                if not local:
                    continue
                witnesses_of = refining[direction]
                against = self._des[direction][w] if subtract else local
                units = 0
                for v in sorted(local):
                    witnesses = witnesses_of[v]
                    if subtract:
                        units += min(len(witnesses), len(against)) + 1
                    else:
                        units += len(witnesses) + 1
                    if witnesses and not against.isdisjoint(witnesses):
                        local.discard(v)
                fctx.charge(w, units)

    # -- multiprocessing-engine hooks ----------------------------------
    def mp_publish_delta(self):
        if not self._dirty_fwd and not self._dirty_rev:
            return None
        return tuple(
            [(w, lists[w][published[w]:]) for w in sorted(dirty)]
            for lists, published, dirty in (
                (self._fwd_list, self._fwd_pub, self._dirty_fwd),
                (self._rev_list, self._rev_pub, self._dirty_rev),
            )
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
        # empty there already — unless Thm 3's subtraction emptied it.
        fwd, rev, every = self.fwd_set, self.rev_set, self._thm3_flood
        labels = [(w, fwd[w], rev[w]) for w in vertices if every or fwd[w] or rev[w]]
        # ``hig[d][v]`` is keyed by the *source* ``v`` but written by
        # the computing vertex ``w``'s owner, so each worker replica
        # accumulates a disjoint-by-``w`` share of every blocker set.
        # Nothing reads the sets before the re-flood, so a union merge
        # at the end is exact — and so is the ``w not in hig`` dedup,
        # because all adds of a given ``w`` happen on one worker.
        return labels, self.hig if self._thm3_flood == 1 else ()

    def mp_merge(self, collected) -> None:
        labels, blocker_shares = collected
        for w, fwd, rev in labels:
            self.fwd_set[w] = fwd
            self.rev_set[w] = rev
        for direction, shares in enumerate(blocker_shares):
            for v, share in enumerate(shares):
                self.hig[direction][v] |= share


class FloodBuild(ExitStack):
    """What a cluster method's schedule of floods runs inside: the
    order default, the one :class:`Cluster` (``cluster_options`` are
    its; a fault plan's crash events fire once per build and a node
    lost in one flood stays dead for the next), the one ``RunStats``,
    the ``<name>.build`` → phase → ``<name>.collection`` spans and index
    assembly.  ``node_timeline=True`` records every flood's per-node
    breakdown into ``stats.node_timeline`` (:mod:`repro.profiling`).
    """

    def __init__(
        self,
        name: str,
        graph: DiGraph,
        order: VertexOrder | None = None,
        num_nodes: int = 32,
        node_timeline: bool = False,
        **cluster_options,
    ):
        super().__init__()
        self._cluster = Cluster(num_nodes=num_nodes, **cluster_options)
        self._name, self._node_timeline = name, node_timeline
        self.graph = graph
        self.order = degree_order(graph) if order is None else order
        self.stats = RunStats(num_nodes=num_nodes, per_node_units=[0] * num_nodes)
        self.span = self.enter_context(  # open until the ``with`` ends
            trace_span(
                f"{name}.build", vertices=graph.num_vertices, num_nodes=num_nodes
            )
        )

    def flood(self, phase: str, program: DrlFloodProgram, **attrs) -> None:
        """Run ``program`` to quiescence inside a ``phase`` span."""
        stats = self.stats
        with trace_span(phase, **attrs) as span:
            before = stats.simulated_seconds
            self._cluster.run(
                self.graph, program, stats=stats, node_timeline=self._node_timeline
            )
            span.add_simulated(stats.simulated_seconds - before)

    def collect(self, in_sets, out_sets) -> LabelingResult:
        """Assemble the index from the surviving backward label sets."""
        with trace_span(f"{self._name}.collection"):
            index = ReachabilityIndex.from_label_lists(in_sets, out_sets)
        self.span.add_simulated(self.stats.simulated_seconds)
        self.span.set(entries=index.num_entries)
        return LabelingResult(index=index, stats=self.stats)


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
    with FloodBuild("drl", graph, order, num_nodes, cost_model=cost_model) as build:
        program = DrlFloodProgram(graph, build.order)
        build.flood("drl.flood", program)
    stats = {}
    for name, lists in zip(("ibfs", "forward"), program.inverted_lists()):
        sizes = [len(lst) for lst in lists]
        stats[f"avg_{name}"] = sum(sizes) / max(1, graph.num_vertices)
        stats[f"max_{name}"] = max(sizes, default=0)
    return stats


def drl_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    check_pruning: bool = True,
    combine_messages: bool = False,
    **build_options,
) -> LabelingResult:
    """Build the TOL index with DRL (Algorithm 3) on a cluster: one flood.

    Returns the index together with the run's cost accounting.
    ``build_options`` are :class:`FloodBuild`'s: a ``faults`` plan
    (:mod:`repro.faults`) is ridden out to the identical index, recovery
    overhead landing in the stats; ``engine="mp"`` runs the flood across
    ``workers`` real processes (same index and simulated clock).
    """
    with FloodBuild("drl", graph, order, num_nodes, **build_options) as build:
        program = DrlFloodProgram(
            graph,
            build.order,
            check_pruning=check_pruning,
            combine_messages=combine_messages,
        )
        build.flood("drl.flood", program)
        return build.collect(program.fwd_set, program.rev_set)
