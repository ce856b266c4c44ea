"""Tests for dynamic TOL-index maintenance.

The exactness contract: after any sequence of insertions and deletions,
``snapshot()`` equals ``tol_index(current_graph, original_order)`` —
the index TOL would build from scratch under the fixed order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.graph.order import VertexOrder, degree_order
from tests.conftest import digraphs


def _assert_exact(dynamic: DynamicReachabilityIndex) -> None:
    expected = tol_index(dynamic.current_graph(), dynamic.order)
    assert dynamic.snapshot() == expected


# ----------------------------------------------------------------------
# Basic operations
# ----------------------------------------------------------------------
def test_initial_index_matches_tol():
    g = random_digraph(30, 90, seed=1)
    dynamic = DynamicReachabilityIndex(g)
    assert dynamic.snapshot() == tol_index(g, degree_order(g))
    assert dynamic.num_edges == 90


def test_insert_simple_edge():
    g = DiGraph(3, [(0, 1)])
    dynamic = DynamicReachabilityIndex(g, VertexOrder([0, 1, 2]))
    assert not dynamic.query(1, 2)
    assert dynamic.insert_edge(1, 2)
    assert dynamic.query(1, 2)
    assert dynamic.query(0, 2)
    _assert_exact(dynamic)


def test_insert_existing_edge_is_noop():
    g = DiGraph(2, [(0, 1)])
    dynamic = DynamicReachabilityIndex(g)
    assert not dynamic.insert_edge(0, 1)
    _assert_exact(dynamic)


def test_insert_rejects_self_loop_and_bad_vertex():
    dynamic = DynamicReachabilityIndex(DiGraph(2, []))
    with pytest.raises(ValueError):
        dynamic.insert_edge(0, 0)
    with pytest.raises(ValueError):
        dynamic.insert_edge(0, 5)


def test_insert_creating_cycle_invalidates_self_labels():
    """Closing a cycle under a higher-order vertex must strip the
    lower vertex's self-labels (the paper's cyclic-graph semantics)."""
    g = DiGraph(2, [(0, 1)])
    order = VertexOrder([0, 1])  # vertex 0 is higher order
    dynamic = DynamicReachabilityIndex(g, order)
    assert 1 in dynamic.in_labels[1]
    dynamic.insert_edge(1, 0)  # cycle 0 <-> 1 dominated by vertex 0
    assert 1 not in dynamic.in_labels[1]
    assert dynamic.query(1, 1)  # still true, covered via vertex 0
    _assert_exact(dynamic)


def test_delete_simple_edge():
    g = DiGraph(3, [(0, 1), (1, 2)])
    dynamic = DynamicReachabilityIndex(g, VertexOrder([0, 1, 2]))
    assert dynamic.query(0, 2)
    assert dynamic.delete_edge(1, 2)
    assert not dynamic.query(0, 2)
    assert not dynamic.query(1, 2)
    assert dynamic.query(0, 1)
    _assert_exact(dynamic)


def test_delete_absent_edge_is_noop():
    dynamic = DynamicReachabilityIndex(DiGraph(2, [(0, 1)]))
    assert not dynamic.delete_edge(1, 0)
    _assert_exact(dynamic)


def test_delete_breaking_domination_restores_labels():
    """Removing the higher-order bypass must re-validate entries that
    it had pruned."""
    # 0 is highest order; path 1 -> 2 plus bypass 1 -> 0 -> 2.
    g = DiGraph(3, [(1, 2), (1, 0), (0, 2)])
    order = VertexOrder([0, 1, 2])
    dynamic = DynamicReachabilityIndex(g, order)
    assert 1 not in dynamic.in_labels[2]  # dominated via vertex 0
    dynamic.delete_edge(0, 2)
    assert 1 in dynamic.in_labels[2]  # direct edge now undominated
    _assert_exact(dynamic)


def test_reinsert_after_delete_round_trips():
    g = random_digraph(20, 60, seed=2)
    dynamic = DynamicReachabilityIndex(g)
    edges = list(g.edges())[:10]
    for u, v in edges:
        dynamic.delete_edge(u, v)
    for u, v in edges:
        dynamic.insert_edge(u, v)
    assert dynamic.current_graph() == g
    _assert_exact(dynamic)


@pytest.mark.parametrize("family", ["dag", "cyclic", "scc-heavy", "power-law"])
def test_delete_then_reinsert_same_edge_matches_rebuild(family):
    """Deleting an edge and re-inserting the *same* edge must track a
    full rebuild at every intermediate state, not just round-trip back
    to the original index.

    Insertion and deletion take different code paths (rank floods vs.
    rank-ordered cone repair); the mid-point equality is what catches a
    deletion that leaves stale entries an insertion silently re-covers.
    """
    from repro.fuzz.cases import family_graph

    g = family_graph(family, 18, seed=9)
    dynamic = DynamicReachabilityIndex(g)
    for u, v in list(g.edges())[:6]:
        assert dynamic.delete_edge(u, v)
        _assert_exact(dynamic)  # rebuild equality with the edge gone
        assert dynamic.insert_edge(u, v)
        _assert_exact(dynamic)  # ... and after it returns
    assert dynamic.current_graph() == g
    assert dynamic.snapshot() == tol_index(g, dynamic.order)


def test_delete_with_graph_wide_cones_is_repaired_in_place():
    """On a dense cyclic graph both cones of an edge cover most vertices
    — the case that used to fall back to a rebuild.  When the delete
    cuts ``u ⇝ v`` (here: ``v``'s only in-edge) the one repair path must
    stay exact there, edge after edge."""
    g = random_digraph(25, 80, seed=3)
    dynamic = DynamicReachabilityIndex(g)
    u, v = next((u, v) for u, v in g.edges() if g.in_degree(v) == 1)
    dynamic.delete_edge(u, v)
    assert not dynamic.query(u, v)
    above, below = dynamic.touched
    assert len(above) + len(below) > g.num_vertices
    dynamic.check()
    for u, v in list(dynamic.edges()):
        dynamic.delete_edge(u, v)
        dynamic.check()


def test_invalid_constructor_arguments():
    g = DiGraph(3, [])
    with pytest.raises(ValueError):
        DynamicReachabilityIndex(g, VertexOrder([0, 1]))
    with pytest.raises(ValueError):
        DynamicReachabilityIndex(g, drift_threshold=0)
    # Deletion has one repair path: the rebuild knob is gone for good.
    with pytest.raises(TypeError):
        DynamicReachabilityIndex(g, rebuild_fraction=0.5)


def test_edges_and_has_edge_views():
    g = DiGraph(3, [(0, 1), (1, 2)])
    dynamic = DynamicReachabilityIndex(g)
    assert dynamic.has_edge(0, 1)
    dynamic.delete_edge(0, 1)
    assert not dynamic.has_edge(0, 1)
    assert list(dynamic.edges()) == [(1, 2)]


# ----------------------------------------------------------------------
# Node additions and deletions
# ----------------------------------------------------------------------
def test_add_node_appends_dense_id_at_tail():
    g = DiGraph(3, [(0, 1)])
    dynamic = DynamicReachabilityIndex(g, VertexOrder([0, 1, 2]))
    v = dynamic.add_node()
    assert v == 3  # dense ids, never recycled
    assert dynamic.num_vertices == 4
    assert list(dynamic.order.by_rank())[-1] == v  # tail of the order
    assert dynamic.in_labels[v] == {v}
    assert dynamic.out_labels[v] == {v}
    _assert_exact(dynamic)
    # The fresh vertex participates in subsequent edge updates.
    dynamic.insert_edge(1, v)
    assert dynamic.query(0, v)
    _assert_exact(dynamic)


def test_delete_node_removes_incident_edges_in_one_pass():
    g = DiGraph(5, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 1)])
    dynamic = DynamicReachabilityIndex(g)
    assert dynamic.delete_node(2)
    assert not dynamic.is_alive(2)
    assert sorted(dynamic.edges()) == [(0, 1)]
    assert not dynamic.query(0, 3)
    _assert_exact(dynamic)


def test_delete_node_tombstone_queries_ok_mutations_raise():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    dynamic = DynamicReachabilityIndex(g)
    assert dynamic.delete_node(1)
    with pytest.raises(ValueError):
        dynamic.delete_node(1)  # the tombstone cannot be deleted again
    # Queries against the tombstone are permitted: it is isolated.
    assert not dynamic.query(0, 1)
    assert not dynamic.query(1, 2)
    assert dynamic.query(1, 1)
    assert dynamic.alive_vertices() == [0, 2, 3]
    # Mutating it is not.
    with pytest.raises(ValueError):
        dynamic.insert_edge(0, 1)
    with pytest.raises(ValueError):
        dynamic.delete_edge(1, 2)
    with pytest.raises(ValueError):
        dynamic.promote(1)
    _assert_exact(dynamic)


def test_delete_node_fires_a_single_notification():
    g = DiGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    dynamic = DynamicReachabilityIndex(g)
    events = []
    dynamic.subscribe(lambda op, u, v: events.append((op, u, v)))
    dynamic.delete_node(1)
    # One settled notification, not one per removed incident edge.
    assert events == [("delete_node", 1, 1)]


# ----------------------------------------------------------------------
# Order upgrades (TOL butterfly rewrite)
# ----------------------------------------------------------------------
def test_promote_snapshot_equals_tol_under_upgraded_order():
    """Acceptance criterion: after ``promote`` the snapshot must be
    byte-equal to ``tol_index(current_graph, upgraded_order)``."""
    g = random_digraph(30, 110, seed=7)
    dynamic = DynamicReachabilityIndex(g)
    for v in (29, 17, 23, 5):
        old_rank = dynamic.order.ranks[v]
        new_rank = dynamic.promote(v, max(0, old_rank - 7))
        if new_rank is None:
            continue
        assert dynamic.order.ranks[v] == new_rank
        assert dynamic.snapshot() == tol_index(
            dynamic.current_graph(), dynamic.order
        )


def test_promote_to_ideal_rank_by_default():
    # Vertex 3 starts with no edges (lowest degree key) and then becomes
    # the best-connected vertex; promote() should move it to rank 0.
    g = DiGraph(6, [(0, 1), (1, 2), (4, 5)])
    dynamic = DynamicReachabilityIndex(g)
    for u in (0, 1, 2, 4, 5):
        if u != 3:
            dynamic.insert_edge(3, u) if not dynamic.has_edge(3, u) else None
            if not dynamic.has_edge(u, 3):
                dynamic.insert_edge(u, 3)
    assert dynamic.drift(3) > 0
    new_rank = dynamic.promote(3)
    assert new_rank == dynamic._ideal_rank(3) == 0
    assert dynamic.drift(3) <= 0
    _assert_exact(dynamic)


def test_drift_measures_against_the_degree_order_on_current_degrees():
    # Ties included: a sparse graph has many equal degree products, and
    # the ideal rank must break them by id exactly as degree_order does.
    dynamic = DynamicReachabilityIndex(random_digraph(40, 60, seed=1))
    dynamic.delete_node(3)
    dynamic.add_node()
    ideal = degree_order(dynamic.current_graph()).ranks
    frozen = dynamic.order.ranks
    for v in dynamic.alive_vertices():
        assert dynamic.drift(v) == frozen[v] - ideal[v]


def test_promote_hubward_only():
    g = random_digraph(12, 30, seed=4)
    dynamic = DynamicReachabilityIndex(g)
    top = list(dynamic.order.by_rank())[0]
    events = []
    dynamic.subscribe(lambda op, u, v: events.append(op))
    assert dynamic.promote(top, 5) is None  # demotion request refused
    assert dynamic.promote(top, 99) is None  # ditto, past the tail
    # A negative target is the "ideal rank" sentinel, not an error; the
    # top vertex is already at or above it, so still a silent no-op.
    assert dynamic.promote(top, -1) is None
    assert events == []
    _assert_exact(dynamic)


def test_drift_threshold_auto_promotes_on_edge_updates():
    g = DiGraph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    dynamic = DynamicReachabilityIndex(g, drift_threshold=2)
    promotions = []

    def listener(op, u, v):
        if op == "promote":
            promotions.append((u, v))

    dynamic.subscribe(listener)
    # Fatten vertex 7 (initially edgeless, hence rank tail) until its
    # degree rank outruns its frozen rank by more than the threshold.
    for u in (0, 1, 2, 3, 4, 5):
        dynamic.insert_edge(u, 7)
        dynamic.insert_edge(7, (u + 1) % 7)
        _assert_exact(dynamic)
    assert any(v == 7 for v, _ in promotions)
    assert dynamic.drift(7) <= 2
    _assert_exact(dynamic)


@settings(max_examples=25, deadline=None)
@given(
    digraphs(max_vertices=10),
    st.lists(st.integers(0, 9), max_size=6),
)
def test_property_promote_sequences_stay_exact(g, vertices):
    dynamic = DynamicReachabilityIndex(g)
    for raw in vertices:
        v = raw % g.num_vertices
        dynamic.promote(v)
        assert dynamic.snapshot() == tol_index(
            dynamic.current_graph(), dynamic.order
        )


# ----------------------------------------------------------------------
# Listener ordering: notifications fire only on a consistent index
# ----------------------------------------------------------------------
class _ConsistencyListener:
    """Asserts, *at notification time*, that the index already equals a
    fresh TOL rebuild — i.e. listeners never observe a half-updated
    index on any code path (regression guard for the serving layer's
    cache-invalidation and replication hooks)."""

    def __init__(self, dynamic: DynamicReachabilityIndex):
        self.dynamic = dynamic
        self.events: list[tuple[str, int, int]] = []

    def __call__(self, op, u, v):
        self.events.append((op, u, v))
        assert op in ("insert", "delete", "add_node", "delete_node", "promote")
        expected = tol_index(self.dynamic.current_graph(), self.dynamic.order)
        assert self.dynamic.snapshot() == expected, (
            f"listener for {op!r} saw an inconsistent index"
        )


def test_listeners_see_consistent_index_on_every_path():
    g = random_digraph(20, 55, seed=6)
    dynamic = DynamicReachabilityIndex(g, drift_threshold=3)
    listener = _ConsistencyListener(dynamic)
    dynamic.subscribe(listener)
    dynamic.insert_edge(2, 17)
    dynamic.delete_edge(2, 17)  # cone repair
    dynamic.add_node()
    dynamic.insert_edge(20, 0)
    dynamic.promote(19)
    dynamic.delete_node(3)
    assert [op for op, _, _ in listener.events][:2] == ["insert", "delete"]
    assert "delete_node" in [op for op, _, _ in listener.events]


def test_listener_consistent_on_delete_with_overlapping_cones():
    g = random_digraph(18, 50, seed=8)
    dynamic = DynamicReachabilityIndex(g)
    listener = _ConsistencyListener(dynamic)
    dynamic.subscribe(listener)
    # An edge on a cycle: v reaches u, so the two cones overlap.
    u, v = next((u, v) for u, v in g.edges() if dynamic.query(v, u))
    assert dynamic.delete_edge(u, v)
    above, below = dynamic.touched
    assert above & below and len(above | below) > g.num_vertices // 2
    assert listener.events == [("delete", u, v)]


def test_unsubscribe_stops_notifications():
    dynamic = DynamicReachabilityIndex(DiGraph(3, []))
    events = []
    listener = lambda op, u, v: events.append(op)  # noqa: E731
    dynamic.subscribe(listener)
    dynamic.insert_edge(0, 1)
    dynamic.unsubscribe(listener)
    dynamic.insert_edge(1, 2)
    assert events == ["insert"]


def test_apply_dispatches_every_update_op():
    from repro.core.dynamic import UPDATE_OPS
    from repro.serve.mutation import MUTATION_OPS

    assert MUTATION_OPS is UPDATE_OPS
    dynamic = DynamicReachabilityIndex(DiGraph(4, [(0, 1), (1, 2), (3, 1)]))
    events = []
    dynamic.subscribe(lambda op, u, v: events.append(op))
    assert dynamic.apply("insert", 2, 3) is True
    assert dynamic.apply("insert", 2, 3) is False  # already present
    assert dynamic.apply("delete", 2, 3) is True
    assert dynamic.apply("delete", 2, 3) is False  # already absent
    assert dynamic.apply("add_node", 0, 0) is True
    assert dynamic.num_vertices == 5
    tail = list(dynamic.order.by_rank())[-1]
    assert dynamic.apply("promote", tail, 0) is True
    assert dynamic.apply("promote", tail, 0) is False  # not hub-ward
    # A negative rank is the degree rank, as for promote(v) itself.
    twin = DynamicReachabilityIndex(dynamic.current_graph(), order=dynamic.order)
    hub = max(dynamic.alive_vertices(), key=dynamic.order.ranks.__getitem__)
    assert dynamic.apply("promote", hub, -1) == (twin.promote(hub) is not None)
    assert list(dynamic.order.by_rank()) == list(twin.order.by_rank())
    assert dynamic.apply("delete_node", 1, 1) is True
    assert set(events) == set(UPDATE_OPS)
    dynamic.check()
    with pytest.raises(ValueError, match="unknown update op"):
        dynamic.apply("truncate", 0, 1)


# ----------------------------------------------------------------------
# Property tests: exactness under random update sequences
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    digraphs(max_vertices=12),
    st.lists(
        st.tuples(
            st.booleans(), st.integers(0, 11), st.integers(0, 11)
        ),
        max_size=12,
    ),
)
def test_property_exact_under_update_sequences(g, operations):
    dynamic = DynamicReachabilityIndex(g)
    for insert, u, v in operations:
        u %= g.num_vertices
        v %= g.num_vertices
        if u == v:
            continue
        if insert:
            dynamic.insert_edge(u, v)
        else:
            dynamic.delete_edge(u, v)
    _assert_exact(dynamic)


@settings(max_examples=25, deadline=None)
@given(
    digraphs(max_vertices=10),
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 9)),
        max_size=8,
    ),
)
def test_property_queries_match_oracle_after_each_update(g, operations):
    dynamic = DynamicReachabilityIndex(g)
    for insert, u, v in operations:
        u %= g.num_vertices
        v %= g.num_vertices
        if u == v:
            continue
        if insert:
            dynamic.insert_edge(u, v)
        else:
            dynamic.delete_edge(u, v)
        oracle = TransitiveClosure(dynamic.current_graph())
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert dynamic.query(s, t) == oracle.query(s, t), (s, t)


@settings(max_examples=20, deadline=None)
@given(digraphs(max_vertices=12))
def test_property_insert_all_edges_incrementally(g):
    """Build the graph edge-by-edge; the result must equal batch TOL."""
    empty = DiGraph(g.num_vertices, [])
    order = degree_order(g)  # fixed order taken from the final graph
    dynamic = DynamicReachabilityIndex(empty, order)
    for u, v in g.edges():
        dynamic.insert_edge(u, v)
    assert dynamic.snapshot() == tol_index(g, order)


@settings(max_examples=20, deadline=None)
@given(digraphs(max_vertices=12))
def test_property_delete_all_edges_incrementally(g):
    order = degree_order(g)
    dynamic = DynamicReachabilityIndex(g, order)
    for u, v in g.edges():
        dynamic.delete_edge(u, v)
    empty = DiGraph(g.num_vertices, [])
    assert dynamic.snapshot() == tol_index(empty, order)
