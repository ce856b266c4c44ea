"""Pins for the pruned-BFS kernel under the TOL rounds and the delete repair.

The meter literals were read off the per-vertex loop this kernel
replaced; Table VI's TOL column is these counts times ``t_op``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import build_index
from repro.core.tol import pruned_bfs, tol_index, tol_index_reference, tol_label_sets
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    citation_graph,
    lattice_graph,
    paper_example_graph,
    paper_example_order,
    scc_heavy_graph,
    social_graph,
    web_graph,
)
from repro.graph.order import VertexOrder, degree_order, random_order
from repro.pregel.cost_model import CostModel
from repro.pregel.serial import SerialMeter
from tests.conftest import digraphs, family_graphs


# ----------------------------------------------------------------------
# The meter: one unit per edge scan, min(|witnesses|, |row|) + 1 per test
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "graph, order, units",
    [
        (web_graph(400, seed=3), None, 8028),
        (citation_graph(300, seed=5), None, 33947),
        (social_graph(400, seed=7), None, 6317),
        (lattice_graph(12, 12, diagonal_prob=0.3, seed=2), None, 10491),
        (lattice_graph(6, 6, wrap=True), None, 356),
        (scc_heavy_graph(400, seed=0), None, 8635),
        (paper_example_graph(), paper_example_order(), 93),
    ],
    ids=["web", "citation", "social", "lattice", "torus", "scc-heavy", "fig1"],
)
def test_meter_units_are_pinned(graph, order, units):
    meter = SerialMeter(CostModel(time_limit_seconds=None))
    metered = tol_index(graph, order, meter)
    assert meter.units == units
    assert metered == tol_index(graph, order)  # counting changes no label


def test_meter_counts_parallel_edges_and_self_loops():
    """``DiGraph`` keeps parallel edges and self-loops; each is a scan."""
    plain = DiGraph(3, [(0, 1), (1, 2)])
    noisy = DiGraph(3, [(0, 1), (0, 1), (1, 1), (1, 2)])
    units = []
    for graph in (plain, noisy):
        meter = SerialMeter(CostModel(time_limit_seconds=None))
        tol_index(graph, VertexOrder([1, 0, 2]), meter)
        units.append(meter.units)
    # Vertex 1's two half-rounds scan its self-loop once each; its backward
    # half-round and vertex 0's forward one scan the doubled edge once more.
    assert units[1] == units[0] + 4


# ----------------------------------------------------------------------
# cone=None is "every row is in the cone"
# ----------------------------------------------------------------------
def _adjacency(graph):
    n = graph.num_vertices
    return (
        [list(graph.out_neighbors(v)) for v in range(n)],
        [list(graph.in_neighbors(v)) for v in range(n)],
    )


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=2**16))
def test_property_no_cone_equals_whole_graph_cone(g, seed):
    n = g.num_vertices
    order = random_order(g, seed=seed)
    rank = order.ranks
    out_adj, in_adj = _adjacency(g)
    everything = set(range(n))
    tables = []
    journal = set()
    for repair in ((), (everything, journal)):
        in_labels = [set() for _ in range(n)]
        out_labels = [set() for _ in range(n)]
        walks = []
        for hub in order.by_rank():
            walks.append(pruned_bfs(hub, out_adj, rank, in_labels, out_labels[hub], *repair))
            walks.append(pruned_bfs(hub, in_adj, rank, out_labels, in_labels[hub], *repair))
        tables.append((in_labels, out_labels, walks))
    assert tables[0] == tables[1]
    assert journal == {w for w in range(n) if in_labels[w] or out_labels[w]}
    assert (tables[0][0], tables[0][1]) == tol_label_sets(g, order)


def test_outside_the_cone_a_row_keeps_its_status():
    """0 → 1 → 2 → 3, hub 0 highest: with only {3} in the cone the walk
    crosses 1 because its row holds the hub, stops at 2 because its row
    does not, and so never tests 3."""
    adjacency = [[1], [2], [3], []]
    rank = [0, 1, 2, 3]
    labels = [{0}, {0}, set(), set()]
    journal = set()
    queue, visited = pruned_bfs(0, adjacency, rank, labels, set(), {3}, journal)
    assert queue == [0, 1]
    assert visited == {0, 1, 2}
    assert labels == [{0}, {0}, set(), set()] and journal == set()
    labels[2].add(0)
    queue, visited = pruned_bfs(0, adjacency, rank, labels, set(), {3}, journal)
    assert queue == [0, 1, 2, 3]
    assert labels[3] == {0} and journal == {3}


def test_inside_the_cone_a_row_holding_the_hub_is_passed_unwritten():
    """A delete's repair: 0 → 1 → 2, all three rows in the cone.  Rows 0
    and 1 kept hub 0 (1's row is frozen: no mutator may touch it), so
    the walk passes them; only row 2 is tested, and the journal names it."""
    adjacency = [[1], [2], []]
    labels = [{0}, frozenset({0}), set()]
    journal = set()
    queue, visited = pruned_bfs(0, adjacency, [0, 1, 2], labels, set(), {0, 1, 2}, journal)
    assert queue == [0, 1, 2]
    assert labels[2] == {0} and journal == {2}


# ----------------------------------------------------------------------
# A round whose root is itself pruned (cyclic graphs)
# ----------------------------------------------------------------------
def _ring(n, chords=()):
    return DiGraph(n, [(v, (v + 1) % n) for v in range(n)] + list(chords))


@pytest.mark.parametrize(
    "graph",
    [
        _ring(2),
        _ring(5),
        _ring(6, [(0, 3), (4, 1)]),
        # two rings joined by a one-way bridge, plus a tail hanging off the second
        DiGraph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7)]),
        scc_heavy_graph(60, seed=1),
        lattice_graph(4, 5, wrap=True),
    ],
    ids=["ring2", "ring5", "ring6-chords", "two-rings", "scc-heavy", "torus"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_root_matches_reference(graph, seed):
    order = random_order(graph, seed=seed)
    index = tol_index(graph, order)
    # Every vertex of a cycle but its top-ranked one fails its own
    # root test: it keeps no self-label, and its round stops at once.
    rootless = [v for v in range(graph.num_vertices) if v not in index.in_labels(v)]
    assert rootless
    assert index == tol_index_reference(graph, order)


@settings(max_examples=40, deadline=None)
@given(family_graphs(max_vertices=24), st.integers(min_value=0, max_value=2**16))
def test_property_families_match_reference_under_random_order(g, seed):
    order = random_order(g, seed=seed)
    assert tol_index(g, order) == tol_index_reference(g, order)


# ----------------------------------------------------------------------
# An order that does not cover the graph is refused by name
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", [VertexOrder([0, 1]), VertexOrder([0, 1, 2, 3])])
def test_order_of_the_wrong_length_is_a_value_error(order):
    graph = DiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="order does not cover the graph's vertices"):
        tol_index(graph, order)
    for method in ("tol", "drl-b"):
        with pytest.raises(ValueError, match="order does not cover the graph's vertices"):
            build_index(graph, method=method, order=order, num_nodes=2)
    assert build_index(graph, method="tol", order=degree_order(graph)).index == tol_index(graph)
