"""DRL_b — batch labeling (Algorithm 4, Section IV).

Batches of decreasing order run sequentially; inside a batch, vertices
label in parallel with DRL's machinery plus two extra prunes driven by
the *batch label sets* accumulated from previous batches:

- a source ``v`` with ``L^{V_i}_out(v) ∩ L^{V_i}_in(v) ≠ ∅`` is skipped
  entirely (a higher-order vertex closes a cycle through it, so all of
  its backward sets are empty);
- a flood from ``v`` is blocked at ``w`` when
  ``L^{V_i}_out(v) ∩ L^{V_i}_in(w) ≠ ∅`` (a previous batch's vertex is
  on the ``v``-``w`` walk).

The early batches contain the graph's dominant hubs, so their labels
prune most of the search space of later (much larger) batches — the
trade-off between TOL's pruning power and DRL's parallelism.
"""

from __future__ import annotations

from repro.core.batching import batch_sequence
from repro.core.drl import DrlFloodProgram, FloodBuild
from repro.core.labels import LabelingResult
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder
from repro.telemetry import current_metrics, enabled


def drl_batch_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    initial_batch_size: float = 2,
    growth_factor: float = 2.0,
    check_pruning: bool = True,
    combine_messages: bool = False,
    batches: list[list[int]] | None = None,
    **build_options,
) -> LabelingResult:
    """Build the TOL index with DRL_b on a cluster: one flood per batch.

    Parameters
    ----------
    initial_batch_size, growth_factor:
        The paper's ``b`` and ``k`` (both default 2; see Exps 7-8).
    check_pruning, combine_messages:
        Forwarded to the flood program (ablation hooks).
    batches:
        Explicit batch sequence overriding ``b``/``k`` (must satisfy
        Definition 7; validated by the flood's correctness, not here).
    build_options:
        :class:`~repro.core.drl.FloodBuild`'s.  Under ``engine="mp"``
        every batch re-forks the workers from the master's accumulated
        label sets, so batch pruning sees exactly the simulator's state.
    """
    n = graph.num_vertices
    in_label_sets: list[set[int]] = [set() for _ in range(n)]
    out_label_sets: list[set[int]] = [set() for _ in range(n)]
    with FloodBuild("drl_b", graph, order, num_nodes, **build_options) as build:
        if batches is None:
            batches = batch_sequence(build.order, initial_batch_size, growth_factor)
        build.span.set(batches=len(batches))
        every_batch = dict(
            in_label_sets=in_label_sets,
            out_label_sets=out_label_sets,
            check_pruning=check_pruning,
            combine_messages=combine_messages,
        )
        for number, batch in enumerate(batches, 1):
            program = DrlFloodProgram(graph, build.order, sources=batch, **every_batch)
            build.flood("drl_b.batch", program, batch=number, sources=len(batch))
            # Fold the surviving visits into the accumulated label sets
            # (Alg. 4 line 14: they become the next batch's L^{V_{i+1}}).
            for w in range(n):
                if program.fwd_set[w]:
                    in_label_sets[w] |= program.fwd_set[w]
                if program.rev_set[w]:
                    out_label_sets[w] |= program.rev_set[w]
            if enabled():
                entries = sum(map(len, in_label_sets)) + sum(map(len, out_label_sets))
                current_metrics().gauge("drl_b.label_entries").set(entries)
        return build.collect(in_label_sets, out_label_sets)
