"""Tests for the query backends (``repro.query.service``)."""

import pytest

from repro.baselines.bfl import build_bfl
from repro.baselines.online import OnlineSearcher
from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.labels import label_sizes
from repro.core.tol import tol_index
from repro.graph.generators import social_graph
from repro.pregel.cost_model import CostModel
from repro.query import IndexBackend, MeteredSearchBackend
from repro.workloads.queries import random_pairs

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(400, seed=2)


@pytest.fixture(scope="module")
def oracle(graph):
    return TransitiveClosure(graph)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.num_vertices, 300, seed=3)


def _backends(graph):
    index = build_index(graph, cost_model=_NO_LIMIT).index
    return {
        "index": IndexBackend(index, _NO_LIMIT),
        "bfl": MeteredSearchBackend(build_bfl(graph), _NO_LIMIT),
        "online": OnlineSearcher(graph, _NO_LIMIT),
    }


def test_all_backends_agree_with_oracle(graph, oracle, pairs):
    for name, backend in _backends(graph).items():
        for s, t in pairs[:150]:
            answer, seconds = backend.query_with_cost(s, t)
            assert answer == oracle.query(s, t), (name, s, t)
            assert seconds > 0, (name, s, t)


def test_index_backend_serves_every_index_flavour(graph, pairs):
    # One size protocol: the packed index (stored sizes), list-style (the
    # dynamic index, a replication follower's table) and an
    # attribute-forwarding stand-in all cost and answer alike.
    from repro.serve.replica import LabelTable

    class Forwarding:
        def __init__(self, target):
            self._target = target

        def __getattr__(self, name):
            return getattr(self._target, name)

    static = tol_index(graph)
    dynamic = DynamicReachabilityIndex(graph)
    follower = LabelTable(
        [frozenset(row) for row in dynamic.in_labels],
        [frozenset(row) for row in dynamic.out_labels],
    )
    expected = [IndexBackend(static, _NO_LIMIT).query_with_cost(s, t) for s, t in pairs]
    for flavour in (dynamic, follower, Forwarding(static), Forwarding(dynamic)):
        backend = IndexBackend(flavour, _NO_LIMIT)
        assert [backend.query_with_cost(s, t) for s, t in pairs] == expected
        out_size_of, in_size_of = label_sizes(flavour)
        for v in range(graph.num_vertices):
            assert out_size_of(v) == len(static.out_labels(v))
            assert in_size_of(v) == len(static.in_labels(v))
        with pytest.raises(IndexError):  # what the store's catch-up path keys on
            out_size_of(graph.num_vertices)
    # The dynamic flavour is read live: an update shows without re-wrapping.
    backend = IndexBackend(dynamic, _NO_LIMIT)
    s, t = next((s, t) for (s, t), (answer, _) in zip(pairs, expected) if not answer)
    assert dynamic.insert_edge(s, t)
    answer, seconds = backend.query_with_cost(s, t)
    assert answer is True
    entries = len(dynamic.out_labels[s]) + len(dynamic.in_labels[t])
    assert seconds == (entries + 1) * _NO_LIMIT.t_op
    out_size_of, in_size_of = label_sizes(dynamic)
    new = dynamic.add_node()  # rows the table gains later are read too
    dynamic.insert_edge(s, new)
    assert out_size_of(new) == 1 and in_size_of(new) == len(dynamic.in_labels[new]) > 1


def test_online_backend_is_slowest(graph, pairs):
    backends = _backends(graph)
    totals = {
        name: sum(backend.query_with_cost(s, t)[1] for s, t in pairs[:100])
        for name, backend in backends.items()
    }
    assert totals["online"] > totals["index"]
    assert totals["online"] > totals["bfl"]


# ----------------------------------------------------------------------
# An id outside the index is refused, never answered for another vertex
# ----------------------------------------------------------------------
_OUTSIDE = ("index", "index-dynamic", "bfl", "online",
            "online-distributed", "bfl-d")


@pytest.fixture(scope="module")
def small_backends():
    from repro.baselines.bfl_distributed import build_bfl_distributed
    from repro.baselines.online import DistributedOnlineSearcher
    graph = social_graph(60, seed=2)
    backends = {
        "index": IndexBackend(tol_index(graph), _NO_LIMIT),
        "index-dynamic": IndexBackend(DynamicReachabilityIndex(graph), _NO_LIMIT),
        "bfl": MeteredSearchBackend(build_bfl(graph), _NO_LIMIT),
        "online": OnlineSearcher(graph, _NO_LIMIT),
        "online-distributed": DistributedOnlineSearcher(
            graph, num_nodes=4, cost_model=_NO_LIMIT
        ),
        "bfl-d": build_bfl_distributed(graph, num_nodes=4, cost_model=_NO_LIMIT)[0],
    }
    assert tuple(backends) == _OUTSIDE
    return backends


@pytest.mark.parametrize("bad", [-2, -1, 60, 61])
@pytest.mark.parametrize("name", _OUTSIDE)
def test_backend_refuses_a_vertex_outside_the_index(small_backends, name, bad):
    # (-2, 3) used to come back as (58, 3); 60 raised a bare IndexError;
    # the online searchers answered (3, 60) with False.
    from repro.errors import ReproError

    backend = small_backends[name]
    message = rf"vertex {bad} is outside the index \(0\.\.59\)"
    for s, t in ((bad, 3), (3, bad)):
        with pytest.raises(ReproError, match=message):
            backend.query_with_cost(s, t)
    assert backend.query_with_cost(3, 3)[0] is True
