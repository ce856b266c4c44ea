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
from repro.core.drl import DrlFloodProgram
from repro.core.labels import LabelingResult, ReachabilityIndex
from repro.faults import FaultPlan
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order
from repro.graph.partition import Partitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.metrics import RunStats
from repro.telemetry import current_metrics, enabled, trace_span


def drl_batch_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    initial_batch_size: float = 2,
    growth_factor: float = 2.0,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
    check_pruning: bool = True,
    combine_messages: bool = False,
    batches: list[list[int]] | None = None,
    faults: FaultPlan | None = None,
    checkpoint_interval: int | None = None,
    node_timeline: bool = False,
    engine: str = "sim",
    workers: int | None = None,
) -> LabelingResult:
    """Build the TOL index with DRL_b on a cluster.

    Parameters
    ----------
    graph, order, num_nodes, cost_model, partitioner:
        As in :func:`~repro.core.drl.drl_index`.
    initial_batch_size, growth_factor:
        The paper's ``b`` and ``k`` (both default 2; see Exps 7-8).
    check_pruning, combine_messages:
        Forwarded to the flood program (ablation hooks).
    batches:
        Explicit batch sequence overriding ``b``/``k`` (must satisfy
        Definition 7; validated by the flood's correctness, not here).
    faults, checkpoint_interval:
        Fault plan and checkpoint cadence (see :mod:`repro.faults`).
        All batch runs share one cluster, so each crash event fires at
        most once across the whole build and a node lost in batch ``i``
        stays dead for batches ``i+1, ...``.
    node_timeline:
        Record the per-node breakdown of every batch into
        ``stats.node_timeline`` (see :mod:`repro.profiling`); batches
        append to one timeline, so super-step numbers restart per batch.
    engine, workers:
        Execution engine selection (``"sim"`` or ``"mp"``) and the mp
        engine's worker-process count; see :mod:`repro.pregel.mp`.
        Every batch re-forks the workers from the master's accumulated
        label sets, so batch pruning sees exactly the simulator's state.
    """
    if order is None:
        order = degree_order(graph)
    if batches is None:
        batches = batch_sequence(order, initial_batch_size, growth_factor)
    n = graph.num_vertices
    cluster = Cluster(
        num_nodes=num_nodes,
        cost_model=cost_model,
        partitioner=partitioner,
        faults=faults,
        checkpoint_interval=checkpoint_interval,
        engine=engine,
        workers=workers,
    )
    in_label_sets: list[set[int]] = [set() for _ in range(n)]
    out_label_sets: list[set[int]] = [set() for _ in range(n)]
    stats = RunStats(num_nodes=cluster.num_nodes)
    stats.per_node_units = [0] * cluster.num_nodes

    with trace_span(
        "drl_b.build",
        vertices=n,
        num_nodes=cluster.num_nodes,
        batches=len(batches),
    ) as span:
        for number, batch in enumerate(batches, 1):
            program = DrlFloodProgram(
                graph,
                order,
                sources=batch,
                in_label_sets=in_label_sets,
                out_label_sets=out_label_sets,
                check_pruning=check_pruning,
                combine_messages=combine_messages,
            )
            with trace_span(
                "drl_b.batch", batch=number, sources=len(batch)
            ) as batch_span:
                before = stats.simulated_seconds
                cluster.run(graph, program, stats=stats, node_timeline=node_timeline)
                # Fold the surviving visits into the accumulated label sets
                # (Alg. 4 line 14: they become the next batch's L^{V_{i+1}}).
                for w in range(n):
                    if program.fwd_set[w]:
                        in_label_sets[w] |= program.fwd_set[w]
                    if program.rev_set[w]:
                        out_label_sets[w] |= program.rev_set[w]
                batch_span.add_simulated(stats.simulated_seconds - before)
            if enabled():
                entries = sum(len(s) for s in in_label_sets) + sum(
                    len(s) for s in out_label_sets
                )
                current_metrics().gauge("drl_b.label_entries").set(entries)
        with trace_span("drl_b.collection"):
            index = ReachabilityIndex.from_label_lists(
                in_label_sets, out_label_sets
            )
        span.add_simulated(stats.simulated_seconds)
        span.set(entries=index.num_entries)
    return LabelingResult(index=index, stats=stats)
