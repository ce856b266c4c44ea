"""Tests for the deletion path: rank-ordered cone repair.

``delete_edge`` / ``delete_node`` have exactly one repair path.  It
strips the entries between the two cones of the removed edges and lets
the cone hubs re-decide them in rank order; nothing on it rebuilds.
These tests pin the three claims that make that safe: it is *exact*
(``check()`` stays green after every op, on every graph family), it is
*local* (no label outside the cones is written), and it never calls
``tol_index``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tol
from repro.core.dynamic import DynamicReachabilityIndex
from repro.errors import IndexAuditError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import scc_heavy_graph, web_graph
from repro.graph.order import VertexOrder
from tests.conftest import family_graphs


# ----------------------------------------------------------------------
# check(): the self-audit the other tests lean on
# ----------------------------------------------------------------------
def test_check_passes_on_an_exact_index_and_names_the_first_difference():
    dynamic = DynamicReachabilityIndex(
        DiGraph(4, [(0, 1), (1, 2), (2, 3)]), VertexOrder([0, 1, 2, 3])
    )
    dynamic.check()
    dynamic.out_labels[2].add(3)  # an entry TOL would never keep
    with pytest.raises(IndexAuditError) as caught:
        dynamic.check()
    error = caught.value
    assert isinstance(error, ReproError)
    assert (error.vertex, error.direction) == (2, "out")
    assert 3 in error.live and 3 not in error.expected
    assert "L_out(2)" in str(error)
    dynamic.out_labels[2].discard(3)
    dynamic.in_labels[1].clear()  # a lost entry, earlier vertex wins
    with pytest.raises(IndexAuditError, match=r"L_in\(1\)"):
        dynamic.check()


# ----------------------------------------------------------------------
# Exactness: every family, every op kind, at notify time too
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["delete", "delete", "delete", "delete_node", "insert", "promote"]
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=20,
)


@settings(max_examples=120, deadline=None)
@given(family_graphs(max_vertices=16), _OPS)
def test_property_interleaved_streams_keep_check_green(g, operations):
    dynamic = DynamicReachabilityIndex(g)
    notified = []

    def listener(op, u, v):
        dynamic.check()  # exact already when listeners run
        notified.append(op)

    dynamic.subscribe(listener)
    for op, a, b in operations:
        alive = dynamic.alive_vertices()
        if len(alive) < 2:
            break
        u, v = alive[a % len(alive)], alive[b % len(alive)]
        if op == "delete":
            edges = list(dynamic.edges())
            if edges:
                dynamic.delete_edge(*edges[a % len(edges)])
        elif op == "delete_node":
            dynamic.delete_node(u)
        elif op == "insert" and u != v:
            dynamic.insert_edge(u, v)
        elif op == "promote":
            dynamic.promote(u, b % dynamic.num_vertices)
        dynamic.check()
    assert set(notified) <= {"delete", "delete_node", "insert", "promote"}


def test_delete_inside_a_strongly_connected_component():
    """``A ∩ D ≠ ∅``: hubs on the broken cycle sit in both cones and
    run both passes, self-entries included."""
    dynamic = DynamicReachabilityIndex(scc_heavy_graph(40, seed=5))
    on_cycle = [(u, v) for u, v in dynamic.edges() if dynamic.query(v, u)]
    assert on_cycle
    for u, v in on_cycle[:12]:
        if dynamic.delete_edge(u, v):
            above, below = dynamic.touched
            assert u in above and v in below
            dynamic.check()


# ----------------------------------------------------------------------
# No rebuild: tol_index is a construction-time dependency only
# ----------------------------------------------------------------------
def test_no_tol_index_call_on_any_mutation_path(monkeypatch):
    dynamic = DynamicReachabilityIndex(web_graph(300, seed=4), drift_threshold=40)
    calls = []
    real = repro.core.tol.tol_index

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.core.tol, "tol_index", counting)
    rng = random.Random(9)
    applied = {"delete": 0, "delete_node": 0, "insert": 0, "add_node": 0}
    for _ in range(200):
        alive = dynamic.alive_vertices()
        roll = rng.random()
        if roll < 0.6:
            edges = list(dynamic.edges())
            applied["delete"] += dynamic.delete_edge(*rng.choice(edges))
        elif roll < 0.7:
            applied["delete_node"] += dynamic.delete_node(rng.choice(alive))
        elif roll < 0.95:
            u, v = rng.sample(alive, 2)
            applied["insert"] += dynamic.insert_edge(u, v)
        else:
            dynamic.add_node()
            applied["add_node"] += 1
    assert applied["delete"] > 80 and applied["delete_node"] > 5
    assert calls == []
    dynamic.check()  # the audit is the one caller, and only on request
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Locality: nothing outside the cones is written
# ----------------------------------------------------------------------
class _ReadOnly(set):
    """A label row that fails the test when anything mutates it."""

    def _written(self, *args):
        raise AssertionError("a label outside the deletion cones was written")

    add = discard = remove = pop = clear = update = _written
    difference_update = intersection_update = _written
    symmetric_difference_update = _written
    __isub__ = __ior__ = __iand__ = __ixor__ = _written


def test_edge_delete_between_two_leaves_touches_only_their_rows():
    # A hub-dominated core plus one leaf-to-leaf edge: u has no
    # in-edges and v no out-edges, so A = {u} and D = {v}.
    core = web_graph(120, seed=2)
    n = core.num_vertices
    u, v = n, n + 1
    hub = max(range(n), key=lambda w: core.in_degree(w) * core.out_degree(w))
    g = DiGraph(n + 2, list(core.edges()) + [(u, v), (u, hub), (hub, v)])
    dynamic = DynamicReachabilityIndex(g)
    for w in range(n + 2):
        if w != v:
            dynamic.in_labels[w] = _ReadOnly(dynamic.in_labels[w])
        if w != u:
            dynamic.out_labels[w] = _ReadOnly(dynamic.out_labels[w])
    assert dynamic.delete_edge(u, v)
    assert dynamic.touched == ({u}, {v})
    assert dynamic.query(u, v)  # still reachable through the hub
    dynamic.check()
