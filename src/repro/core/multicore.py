"""DRL_b^M — the multi-core (shared-memory) variant of DRL_b (Exp 3).

Same algorithm as :func:`~repro.core.drl_batch.drl_batch_index`, but
the "cluster" is the cores of a single machine: data exchange happens
through shared memory (zero byte cost, near-free barriers) while the
*whole graph* must fit in that one machine's memory — which is exactly
why the paper's DRL_b^M is slightly faster than DRL_b on medium graphs
yet cannot index the billion-edge ones.
"""

from __future__ import annotations

from repro.core.drl_batch import drl_batch_index
from repro.core.labels import LabelingResult
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder
from repro.graph.partition import (
    HashPartitioner,
    Partitioner,
    node_assignment,
)
from repro.pregel.cost_model import CostModel, shared_memory_model

#: Estimated per-vertex working-state bytes (status maps, lists).
_WORKING_BYTES_PER_VERTEX = 64


def per_core_working_bytes(
    graph: DiGraph, partitioner: Partitioner
) -> list[int]:
    """Estimated working-state bytes per core under ``partitioner``.

    Uses the same :func:`~repro.graph.partition.node_assignment` helper
    as both execution engines, so the memory estimate and the engines
    can never disagree on which core owns which vertex.
    """
    vertices_per_core = [0] * partitioner.num_nodes
    for core in node_assignment(partitioner, graph.num_vertices):
        vertices_per_core[core] += 1
    return [
        _WORKING_BYTES_PER_VERTEX * count for count in vertices_per_core
    ]


def drl_multicore_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    num_cores: int = 32,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
    **drl_b_options,
) -> LabelingResult:
    """Build the TOL index with DRL_b^M on one multi-core machine.

    DRL_b behind a pre-flight: the shared-memory cost model, one
    partition per core and the one-machine memory check (raises
    :class:`~repro.errors.OutOfMemoryError` when the graph plus working
    state exceeds the budget); ``drl_b_options`` are
    :func:`~repro.core.drl_batch.drl_batch_index`'s.  A fault plan here
    models a worker process dying mid-build; ``engine="mp"`` makes the
    build *really* multi-core, with the same vertex-to-core assignment
    the memory estimate is based on.
    """
    if cost_model is None:
        cost_model = shared_memory_model()
    if partitioner is None:
        partitioner = HashPartitioner(num_cores)
    cost_model.check_memory(
        graph.memory_bytes() + sum(per_core_working_bytes(graph, partitioner)),
        what="DRL_b^M",
    )
    return drl_batch_index(
        graph,
        order,
        num_cores,
        cost_model=cost_model,
        partitioner=partitioner,
        **drl_b_options,
    )
