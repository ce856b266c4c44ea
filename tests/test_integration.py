"""Cross-module integration tests at moderate scale."""

import pytest

from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.core.validate import check_canonical, check_cover
from repro.graph.generators import web_graph
from repro.graph.order import degree_order
from repro.pregel.cost_model import CostModel
from repro.query import IndexBackend
from repro.workloads import (
    apply_stream,
    balanced_pairs,
    get_dataset,
    mixed_update_stream,
)

_NO_LIMIT = CostModel(time_limit_seconds=None)


def test_medium_dataset_pipeline_end_to_end(tmp_path):
    """Load a registry dataset, index it two ways, validate, serve,
    serialize, and reload — the full user journey."""
    graph = get_dataset("GO").load()
    order = degree_order(graph)
    serial = tol_index(graph, order)
    distributed = build_index(
        graph, method="drl-b", order=order, num_nodes=32, cost_model=_NO_LIMIT
    )
    assert distributed.index == serial
    assert check_cover(distributed.index, graph, sample=2000).ok
    assert check_canonical(distributed.index, graph, order).ok

    from repro.baselines.transitive_closure import TransitiveClosure

    oracle = TransitiveClosure(graph)
    pairs = balanced_pairs(graph, oracle.query, 100, seed=1)
    backend = IndexBackend(distributed.index, _NO_LIMIT)
    assert sum(backend.query_with_cost(s, t)[0] for s, t in pairs) == 50

    path = tmp_path / "go.idx"
    distributed.index.save(path, compress=True)
    assert ReachabilityIndex.load(path) == serial


def test_dynamic_index_stays_canonical_under_stream():
    graph = web_graph(400, seed=9, copy_prob=0.4, out_links=3)
    dynamic = DynamicReachabilityIndex(graph)
    stream = mixed_update_stream(graph, 40, seed=10)
    apply_stream(dynamic, stream)
    current = dynamic.current_graph()
    snapshot = dynamic.snapshot()
    assert check_cover(snapshot, current, sample=3000).ok
    assert check_canonical(snapshot, current, dynamic.order).ok


def test_moderate_scale_equality_all_methods():
    graph = web_graph(2000, seed=11, copy_prob=0.5, out_links=4)
    order = degree_order(graph)
    reference = tol_index(graph, order)
    for method in ("drl", "drl-b", "drl-b-m"):
        built = build_index(
            graph, method=method, order=order, num_nodes=16,
            cost_model=_NO_LIMIT,
        ).index
        assert built == reference, method


def test_index_entries_scale_reasonably():
    """2-hop index stays far below the transitive closure's size."""
    graph = get_dataset("TW").load()
    index = build_index(graph, cost_model=_NO_LIMIT).index
    from repro.baselines.transitive_closure import TransitiveClosure

    closure_pairs = TransitiveClosure(graph).reachable_pairs()
    assert index.num_entries < closure_pairs / 10
