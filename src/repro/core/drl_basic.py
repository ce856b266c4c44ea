"""DRL⁻ — the basic labeling method (Theorem 3) on the cluster.

Two floods of the one program (:class:`~repro.core.drl.DrlFloodProgram`,
``refinement="blockers"``) per run:

1. **Filtering**: all-sources trimmed-BFS flooding (both directions at
   once, like DRL but with no ``Check`` refinement: no prune or
   ``Check`` units per arrival), which also records each source's
   blocker set ``BFS_hig(v)``, publishing one entry per *new blocker*.
2. **Refinement**: a *plain* BFS flood from every distinct blocker
   (``∪_v BFS_hig(v)``), computing which blockers reach which vertices;
   ``w`` is then removed from ``L⁻_in(v)`` iff some ``u ∈ BFS_hig(v)``
   reaches ``w``.

The refinement floods are untrimmed and numerous — this is precisely
why DRL⁻ is orders of magnitude slower than DRL (Fig. 5) and times out
on several graphs.
"""

from __future__ import annotations

from repro.core.drl import DrlFloodProgram, FloodBuild
from repro.core.labels import LabelingResult
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder


def drl_basic_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    **build_options,
) -> LabelingResult:
    """Build the TOL index with DRL⁻ (Theorem 3) on a cluster.

    ``build_options`` are :class:`~repro.core.drl.FloodBuild`'s.  May
    raise :class:`~repro.errors.TimeLimitExceeded`: on graphs with many
    blockers the refinement floods exceed the cut-off, exactly as in the
    paper's Fig. 5/6 failure markers.
    """
    with FloodBuild("drl-", graph, order, num_nodes, **build_options) as build:
        program = DrlFloodProgram(graph, build.order, refinement="blockers")
        build.flood("drl-.filtering", program)
        build.rearm(program.reflood_from_blockers)
        build.flood("drl-.refinement", program)
        return build.collect(program.fwd_set, program.rev_set)
