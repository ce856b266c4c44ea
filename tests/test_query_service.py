"""Tests for the query backends (``repro.query.service``)."""

import pytest

from repro.baselines.bfl import build_bfl
from repro.baselines.grail import build_grail
from repro.baselines.ip_label import build_ip
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
        "grail": MeteredSearchBackend(build_grail(graph), _NO_LIMIT),
        "ip": MeteredSearchBackend(build_ip(graph), _NO_LIMIT),
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
    assert totals["online"] > totals["grail"]


# ----------------------------------------------------------------------
# FallbackBackend: degraded serving after a failed build
# ----------------------------------------------------------------------
def test_fallback_backend_degrades_to_online(graph, oracle, pairs):
    from repro.core.drl import drl_index
    from repro.query import FallbackBackend

    doomed = CostModel(time_limit_seconds=1e-12)
    backend = FallbackBackend.from_build(
        graph,
        lambda: drl_index(graph, num_nodes=4, cost_model=doomed),
        cost_model=_NO_LIMIT,
    )
    assert backend.degraded
    for s, t in pairs[:100]:
        assert backend.query_with_cost(s, t)[0] == oracle.query(s, t), (s, t)
    assert backend.fallback_queries == 100


def test_fallback_backend_prefers_index(graph, oracle, pairs):
    from repro.core.drl import drl_index
    from repro.query import FallbackBackend

    backend = FallbackBackend.from_build(
        graph,
        lambda: drl_index(graph, num_nodes=4, cost_model=_NO_LIMIT),
        cost_model=_NO_LIMIT,
    )
    assert not backend.degraded
    for s, t in pairs[:100]:
        assert backend.query_with_cost(s, t)[0] == oracle.query(s, t), (s, t)
    assert backend.fallback_queries == 0


def test_fallback_backend_counts_metric(graph):
    from repro.query import FallbackBackend
    from repro.telemetry import session
    from repro.telemetry.sinks import InMemorySink

    backend = FallbackBackend(None, graph, _NO_LIMIT)
    sink = InMemorySink()
    with session([sink]):
        backend.query_with_cost(0, 1)
    counters = {
        r["name"]: r["value"]
        for r in sink.metrics
        if r.get("metric") == "counter"
    }
    assert counters.get("query.fallback") == 1


def test_fallback_backend_propagates_real_bugs(graph):
    from repro.query import FallbackBackend

    def broken():
        raise RuntimeError("not a simulated-resource failure")

    with pytest.raises(RuntimeError):
        FallbackBackend.from_build(graph, broken)
