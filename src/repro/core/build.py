"""One-call façade over every index construction method."""

from __future__ import annotations

from typing import Callable

from repro.core.drl import drl_index
from repro.core.drl_basic import drl_basic_index
from repro.core.drl_batch import drl_batch_index
from repro.core.labels import LabelingResult
from repro.core.multicore import drl_multicore_index
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder
from repro.pregel.serial import SerialMeter


def _tol_result(graph, order=None, num_nodes=1, cost_model=None, **_) -> LabelingResult:
    meter = SerialMeter(cost_model)
    index = tol_index(graph, order=order, meter=meter)
    return LabelingResult(index=index, stats=meter.stats())


_METHODS: dict[str, Callable[..., LabelingResult]] = {
    "tol": _tol_result,
    "drl-": drl_basic_index,
    "drl": drl_index,
    "drl-b": drl_batch_index,
    "drl-b-m": drl_multicore_index,
}


def build_index(
    graph: DiGraph,
    method: str = "drl-b",
    order: VertexOrder | None = None,
    num_nodes: int = 32,
    **kwargs,
) -> LabelingResult:
    """Build a TOL-identical reachability index with the chosen method;
    returns the index (identical across all methods) plus run statistics.

    Parameters
    ----------
    graph:
        The input graph (cyclic allowed).
    method:
        One of ``"tol"`` (serial Algorithm 1), ``"drl-"`` (Theorem 3),
        ``"drl"`` (Algorithm 3), ``"drl-b"`` (Algorithm 4, the paper's
        best), or ``"drl-b-m"`` (multi-core DRL_b).
    order:
        Vertex order; defaults to the paper's degree-based order.  One
        that does not cover the graph's vertices is a ``ValueError``.
    num_nodes:
        Simulated cluster size (cores, for ``"drl-b-m"``); not ``"tol"``'s.
    kwargs:
        The method's own options (``initial_batch_size``, ``batches``,
        ``check_pruning``, ...) and, for the cluster methods,
        :class:`~repro.core.drl.FloodBuild`'s (``cost_model``,
        ``partitioner``, ``faults``, ``checkpoint_interval``, ``engine``,
        ...).  The serial ``"tol"`` baseline ignores cluster-only ones.
    """
    try:
        builder = _METHODS[method]
    except KeyError:
        known = ", ".join(sorted(_METHODS))
        raise ValueError(f"unknown method {method!r}; choose one of: {known}")
    if order is not None and len(order) != graph.num_vertices:
        raise ValueError("order does not cover the graph's vertices")
    return builder(graph, order, num_nodes, **kwargs)


METHOD_NAMES = tuple(sorted(_METHODS))
"""All method names accepted by :func:`build_index`."""
