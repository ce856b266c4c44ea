"""Tests for Tarjan SCC and the condensation, cross-checked against
networkx on random graphs."""

import networkx as nx
from hypothesis import given, settings

from repro.graph.digraph import DiGraph
from repro.graph.scc import condensation, strongly_connected_components
from tests.conftest import digraphs


def test_single_cycle_one_component():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    components = strongly_connected_components(g)
    assert len(components) == 1
    assert sorted(components[0]) == [0, 1, 2, 3]


def test_dag_all_singletons():
    g = DiGraph(4, [(0, 1), (1, 2), (1, 3)])
    assert sorted(map(len, strongly_connected_components(g))) == [1, 1, 1, 1]


def test_two_cycles_bridged():
    g = DiGraph(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
    components = {frozenset(c) for c in strongly_connected_components(g)}
    assert frozenset({0, 1}) in components
    assert frozenset({2, 3, 4}) in components
    assert frozenset({5}) in components


def test_emission_order_is_reverse_topological():
    """A component is emitted before any component that reaches it."""
    g = DiGraph(5, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)])
    cond = condensation(g)
    for cu, cv in cond.dag.edges():
        assert cv < cu  # edge target (reachable side) was emitted first


def test_condensation_dag_is_acyclic():
    g = DiGraph(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5)])
    cond = condensation(g)
    assert all(
        len(c) == 1 for c in strongly_connected_components(cond.dag)
    )


def test_condensation_maps_members_consistently():
    g = DiGraph(4, [(0, 1), (1, 0), (2, 3)])
    cond = condensation(g)
    for cid, members in enumerate(cond.members):
        for v in members:
            assert cond.component_of[v] == cid


def test_condensation_trivial_flag():
    dag = DiGraph(3, [(0, 1), (1, 2)])
    cyclic = DiGraph(3, [(0, 1), (1, 0)])
    assert condensation(dag).is_trivial()
    assert not condensation(cyclic).is_trivial()


def test_deep_path_no_recursion_error():
    n = 5000
    g = DiGraph(n, [(i, i + 1) for i in range(n - 1)])
    assert len(strongly_connected_components(g)) == n


def test_deep_cycle_no_recursion_error():
    n = 5000
    g = DiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    assert len(strongly_connected_components(g)) == 1


@settings(max_examples=60, deadline=None)
@given(digraphs())
def test_property_matches_networkx(g):
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(g.num_vertices))
    nx_graph.add_edges_from(g.edges())
    expected = {frozenset(c) for c in nx.strongly_connected_components(nx_graph)}
    actual = {frozenset(c) for c in strongly_connected_components(g)}
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_property_condensation_preserves_reachability(g):
    from repro.graph.traversal import reachable_set

    cond = condensation(g)
    for s in range(min(g.num_vertices, 6)):
        reach_g = reachable_set(g, s)
        reach_dag = reachable_set(cond.dag, cond.component_of[s])
        lifted = {
            v for c in reach_dag for v in cond.members[c]
        }
        assert lifted == reach_g


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_property_any_adjacency_gives_the_same_components(g):
    """Tarjan reads only ``num_vertices`` and ``out_neighbors`` (the
    scenario audit feeds it a list of neighbor sets); with neighbors in
    the same order, it emits the same components."""

    class Adjacency(list):
        num_vertices = property(len)
        out_neighbors = list.__getitem__

    sets = Adjacency(list(g.out_neighbors(v)) for v in range(g.num_vertices))
    assert strongly_connected_components(sets) == strongly_connected_components(g)
