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

from itertools import chain

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
        :class:`~repro.core.drl.FloodBuild`'s.  One program floods every
        batch: :meth:`~repro.core.drl.DrlFloodProgram.next_batch` re-arms
        it between two, on the master's copy and, under ``engine="mp"``,
        on every worker's replica after the last batch's merged state,
        so batch pruning sees exactly the simulator's state on workers
        forked once per build.
    """
    n = graph.num_vertices
    with FloodBuild("drl_b", graph, order, num_nodes, **build_options) as build:
        if batches is None:
            batches = batch_sequence(build.order, initial_batch_size, growth_factor)
        build.span.set(batches=len(batches))
        program = DrlFloodProgram(
            graph,
            build.order,
            sources=(),
            in_label_sets=[set() for _ in range(n)],
            out_label_sets=[set() for _ in range(n)],
            check_pruning=check_pruning,
            combine_messages=combine_messages,
        )
        for number, batch in enumerate(batches, 1):
            build.rearm(program.next_batch, batch)
            build.flood("drl_b.batch", program, batch=number, sources=len(batch))
            if enabled():  # the label sets once this batch is folded in
                sets = chain(*program.batch_label_sets, program.fwd_set, program.rev_set)
                current_metrics().gauge("drl_b.label_entries").set(sum(map(len, sets)))
        program.next_batch(())  # fold the last batch in
        return build.collect(*program.batch_label_sets)
