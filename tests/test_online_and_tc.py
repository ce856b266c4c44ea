"""Tests for the online-search baselines and the transitive closure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.online import (
    DistributedOnlineSearcher,
    OnlineSearcher,
    ground_truth_matrix,
)
from repro.baselines.transitive_closure import TransitiveClosure
from repro.graph.digraph import DiGraph
from repro.graph.generators import social_graph
from tests.conftest import digraphs


def test_online_trivial_cases():
    g = DiGraph(3, [(0, 1)])
    searcher = OnlineSearcher(g)
    assert searcher.query(0, 0)
    assert searcher.query(0, 1)
    assert not searcher.query(1, 0)
    assert not searcher.query(0, 2)


def test_online_query_with_cost():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    searcher = OnlineSearcher(g)
    answer, seconds = searcher.query_with_cost(0, 3)
    assert answer and seconds > 0
    answer_self, seconds_self = searcher.query_with_cost(2, 2)
    assert answer_self and seconds_self < seconds


def test_online_reuses_visited_array():
    g = social_graph(200, seed=1)
    searcher = OnlineSearcher(g)
    first = [searcher.query(0, t) for t in range(200)]
    second = [searcher.query(0, t) for t in range(200)]
    assert first == second


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_property_distributed_online_matches_centralized(g):
    central = OnlineSearcher(g)
    distributed = DistributedOnlineSearcher(g, num_nodes=4)
    for s in range(min(g.num_vertices, 6)):
        for t in range(g.num_vertices):
            assert distributed.query(s, t) == central.query(s, t)


def test_distributed_online_charges_rounds():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    searcher = DistributedOnlineSearcher(g, num_nodes=2)
    _answer, near = searcher.query_with_cost(0, 1)
    _answer, far = searcher.query_with_cost(0, 3)
    assert far > near  # more BFS rounds -> more barriers/messages


def test_ground_truth_matrix():
    g = DiGraph(3, [(0, 1), (1, 2)])
    matrix = ground_truth_matrix(g)
    assert matrix[0] == {0, 1, 2}
    assert matrix[1] == {1, 2}
    assert matrix[2] == {2}


# ----------------------------------------------------------------------
# Transitive closure
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(digraphs())
def test_property_tc_matches_bfs(g):
    oracle = TransitiveClosure(g)
    searcher = OnlineSearcher(g)
    for s in range(min(g.num_vertices, 8)):
        for t in range(g.num_vertices):
            assert oracle.query(s, t) == searcher.query(s, t)


def test_tc_descendants():
    g = DiGraph(4, [(0, 1), (1, 0), (1, 2)])
    oracle = TransitiveClosure(g)
    assert oracle.descendants(0) == {0, 1, 2}
    assert oracle.descendants(3) == {3}


def test_tc_reachable_pairs():
    g = DiGraph(3, [(0, 1), (1, 2)])
    # pairs: (0,0),(0,1),(0,2),(1,1),(1,2),(2,2)
    assert TransitiveClosure(g).reachable_pairs() == 6


def test_tc_reachable_pairs_with_scc():
    g = DiGraph(2, [(0, 1), (1, 0)])
    assert TransitiveClosure(g).reachable_pairs() == 4


@settings(max_examples=30, deadline=None)
@given(digraphs())
def test_property_tc_reachable_pairs_matches_enumeration(g):
    oracle = TransitiveClosure(g)
    expected = sum(
        oracle.query(s, t)
        for s in range(g.num_vertices)
        for t in range(g.num_vertices)
    )
    assert oracle.reachable_pairs() == expected


@settings(max_examples=40, deadline=None)
@given(digraphs(), st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=12))
def test_property_tc_follows_added_edges_and_vertices(g, additions):
    """Grown in place, the closure answers as one built from scratch,
    cycles closed by the new edges included."""
    tc = TransitiveClosure(g)
    edges = list(g.edges())
    n = g.num_vertices
    for a, b in additions:
        if a % 4 == 0:
            tc.add_vertex()
            n += 1
            continue
        u, v = a % n, b % n
        tc.add_edge(u, v)
        edges.append((u, v))
        fresh = TransitiveClosure(DiGraph(n, sorted(set(edges))))
        assert tc.num_vertices == n
        assert all(
            tc.query(s, t) == fresh.query(s, t) for s in range(n) for t in range(n)
        )
        assert tc.reachable_pairs() == fresh.reachable_pairs()
        assert tc.descendants(u) == fresh.descendants(u)
