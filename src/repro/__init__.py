"""repro — Reachability Labeling for Distributed Graphs (ICDE 2022).

A from-scratch Python reproduction of Zhang et al.'s distributed
reachability labeling system: the serial gold standard **TOL**, the
distributed family **DRL⁻ / DRL / DRL_b / DRL_b^M** (all producing an
index *identical* to TOL's), the **BFL** competitor, and a
vertex-centric BSP cluster simulator with explicit cost accounting.

Quickstart
----------
>>> from repro import build_index, social_graph
>>> graph = social_graph(1000, seed=7)
>>> result = build_index(graph, method="drl-b", num_nodes=32)
>>> result.index.query(0, 42)  # can vertex 0 reach vertex 42?
True
"""

from repro.core import (
    CondensedIndex,
    DynamicReachabilityIndex,
    LabelingResult,
    ReachabilityIndex,
    batch_sequence,
    build_condensed_index,
    build_index,
    drl_basic_index,
    drl_batch_index,
    drl_index,
    drl_multicore_index,
    tol_index,
    tol_index_reference,
)
from repro.distributed import (
    distributed_condensation,
    distributed_scc,
    distributed_wcc,
)
from repro.errors import OutOfMemoryError, ReproError, TimeLimitExceeded
from repro.graph import (
    DiGraph,
    GraphBuilder,
    VertexOrder,
    citation_graph,
    degree_order,
    knowledge_graph,
    kronecker_graph,
    paper_example_graph,
    random_dag,
    random_digraph,
    social_graph,
    trimmed_bfs,
    web_graph,
)
from repro.pregel import Cluster, CostModel, RunStats, VertexProgram

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "CondensedIndex",
    "CostModel",
    "DiGraph",
    "DynamicReachabilityIndex",
    "GraphBuilder",
    "LabelingResult",
    "OutOfMemoryError",
    "ReachabilityIndex",
    "ReproError",
    "RunStats",
    "TimeLimitExceeded",
    "VertexOrder",
    "VertexProgram",
    "__version__",
    "batch_sequence",
    "build_condensed_index",
    "build_index",
    "citation_graph",
    "degree_order",
    "distributed_condensation",
    "distributed_scc",
    "distributed_wcc",
    "drl_basic_index",
    "drl_batch_index",
    "drl_index",
    "drl_multicore_index",
    "knowledge_graph",
    "kronecker_graph",
    "paper_example_graph",
    "random_dag",
    "random_digraph",
    "social_graph",
    "tol_index",
    "tol_index_reference",
    "trimmed_bfs",
    "web_graph",
]
