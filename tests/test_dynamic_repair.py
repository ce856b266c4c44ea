"""Tests for the repair paths: cone repair, rank floods, band subtraction.

``delete_edge`` / ``delete_node`` have exactly one repair path.  It
strips the entries between the two cones of the removed edges and lets
the cone hubs re-decide them in rank order; nothing on it rebuilds.
``insert_edge`` has one too: two rank floods say which entries between
the cones live, hubs grow exact entries and set algebra removes the
dead ones; ``promote`` subtracts the overtaken band.  These tests pin
the three claims that make that safe: each is *exact* (``check()``
stays green after every op, on every graph family), *local* (no label
outside the cones is written — for an insert, none outside ``touched``,
which holds exactly the rows that changed; for an insert or delete that
leaves the transitive closure alone, none at all), and never builds TOL
from scratch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tol
from repro.core.dynamic import DynamicReachabilityIndex
from repro.errors import IndexAuditError, ReproError
from repro.fuzz.cases import FAMILIES, family_graph
from repro.graph.digraph import DiGraph
from repro.graph.generators import scc_heavy_graph, web_graph
from repro.graph.order import VertexOrder, degree_order
from repro.graph.traversal import reachable_set
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
    # Every from-scratch build runs the TOL rounds: tol_index packs
    # their sets, check() compares against them as they are.
    real = repro.core.tol.tol_label_sets

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.core.tol, "tol_label_sets", counting)
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
    # The insert-heavy half: the graph grows back, promotes included.
    promoted = []
    dynamic.subscribe(lambda op, u, v: promoted.append(op) if op == "promote" else None)
    inserts = applied["insert"]
    for _ in range(200):
        alive = dynamic.alive_vertices()
        if rng.random() < 0.9:
            u, v = rng.sample(alive, 2)
            applied["insert"] += dynamic.insert_edge(u, v)
        else:
            dynamic.promote(rng.choice(alive))
    assert applied["insert"] - inserts > 150 and promoted
    assert calls == []
    dynamic.check()  # the audit is the one caller, and only on request
    assert len(calls) == 1
    repro.core.tol.tol_index(dynamic.current_graph(), dynamic.order)
    assert len(calls) == 2  # ... and tol_index cannot slip past the count


# ----------------------------------------------------------------------
# Locality: nothing outside the cones is written
# ----------------------------------------------------------------------
class _ReadOnly(set):
    """A label row that fails the test when anything mutates it."""

    def _written(self, *args):
        raise AssertionError("a label row that must not change was written")

    add = discard = remove = pop = clear = update = _written
    difference_update = intersection_update = _written
    symmetric_difference_update = _written
    __isub__ = __ior__ = __iand__ = __ixor__ = _written


def _freeze_rows(dynamic: DynamicReachabilityIndex, above=(), below=()) -> None:
    """Make every label row read-only except, as in ``touched``,
    ``out_labels[w]`` for ``w ∈ above`` and ``in_labels[w]`` for ``w ∈ below``."""
    for w in range(dynamic.num_vertices):
        if w not in below:
            dynamic.in_labels[w] = _ReadOnly(dynamic.in_labels[w])
        if w not in above:
            dynamic.out_labels[w] = _ReadOnly(dynamic.out_labels[w])


def _core_with_bypassed_leaf_edge() -> tuple[DiGraph, int, int, int]:
    # A hub-dominated core plus two leaves u, v joined through the hub:
    # u has no in-edges and v no out-edges, so A = {u} and D = {v}.
    core = web_graph(120, seed=2)
    n = core.num_vertices
    u, v = n, n + 1
    hub = max(range(n), key=lambda w: core.in_degree(w) * core.out_degree(w))
    return DiGraph(n + 2, list(core.edges()) + [(u, hub), (hub, v)]), u, v, hub


def test_closure_cutting_delete_writes_only_cone_rows():
    # Cutting the only way into v does change the closure: the cone
    # repair runs, and writes nothing outside A = {u, hub, …} / D = {v}.
    g, u, v, hub = _core_with_bypassed_leaf_edge()
    dynamic = DynamicReachabilityIndex(g)
    reaches_hub = {w for w in range(g.num_vertices) if dynamic.query(w, hub)}
    _freeze_rows(dynamic, above=reaches_hub, below={v})
    assert dynamic.delete_edge(hub, v)
    above, below = dynamic.touched
    assert u in above and hub in above and below == {v}
    assert not dynamic.query(u, v)
    dynamic.check()


def test_edge_delete_between_two_leaves_touches_only_their_rows():
    # Not even their rows: the leaf-to-leaf edge runs parallel to
    # u → hub → v, deleting it leaves u ⇝ v standing, and a write that
    # leaves the closure alone owes the index nothing.
    g, u, v, _ = _core_with_bypassed_leaf_edge()
    g = DiGraph(g.num_vertices, list(g.edges()) + [(u, v)])
    dynamic = DynamicReachabilityIndex(g)
    _freeze_rows(dynamic)
    assert dynamic.delete_edge(u, v)
    assert dynamic.touched == (set(), set())
    assert dynamic.query(u, v)  # still reachable through the hub
    assert not dynamic.has_edge(u, v)
    dynamic.check()


def test_closure_preserving_inserts_write_no_row_at_all():
    # The insert twin, twice: an edge parallel to an existing path, and
    # one closing a cycle inside a strongly connected component.
    g, u, v, _ = _core_with_bypassed_leaf_edge()
    dynamic = DynamicReachabilityIndex(g)
    _freeze_rows(dynamic)
    assert dynamic.query(u, v) and not dynamic.has_edge(u, v)
    assert dynamic.insert_edge(u, v)
    assert dynamic.touched == (set(), set())
    assert dynamic.has_edge(u, v)
    dynamic.check()

    dynamic = DynamicReachabilityIndex(scc_heavy_graph(40, seed=5))
    a, b = next(
        (a, b)
        for a in range(40) for b in range(40)
        if a != b and dynamic.query(a, b) and dynamic.query(b, a)
        and not dynamic.has_edge(a, b)
    )
    _freeze_rows(dynamic)
    assert dynamic.insert_edge(a, b)
    assert dynamic.touched == (set(), set())
    dynamic.check()


# ----------------------------------------------------------------------
# Inserts: `touched` is the rows written, no more and no less
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_insert_touched_is_exactly_the_rows_that_changed(family):
    rng = random.Random(11)
    closing = 0
    for seed in range(6):
        g = family_graph(family, 22, seed=seed)
        dynamic = DynamicReachabilityIndex(g)
        for _ in range(25):
            u, v = rng.sample(range(g.num_vertices), 2)
            if rng.random() < 0.3:  # aim for an edge that closes a cycle
                back = [(a, b) for a in range(g.num_vertices)
                        for b in range(g.num_vertices) if a != b and dynamic.query(b, a)]
                u, v = rng.choice(back) if back else (u, v)
            if dynamic.has_edge(u, v):
                continue
            closing += dynamic.query(v, u)
            before_in = [set(row) for row in dynamic.in_labels]
            before_out = [set(row) for row in dynamic.out_labels]
            assert dynamic.insert_edge(u, v)
            above, below = dynamic.touched
            n = dynamic.num_vertices
            assert below == {w for w in range(n) if dynamic.in_labels[w] != before_in[w]}
            assert above == {w for w in range(n) if dynamic.out_labels[w] != before_out[w]}
            graph = dynamic.current_graph()
            assert above <= reachable_set(graph.reverse(), u)
            assert below <= reachable_set(graph, v)
            dynamic.check()
    assert closing or family not in ("cyclic", "scc-heavy")


def test_edge_insert_between_two_leaves_writes_only_touched_rows():
    # Two low-rank leaves of a web graph: v's cone is a good part of the
    # graph, so the shrink pass reads hundreds of rows — and may write
    # only the ones `touched` names.  The first run learns `touched`,
    # the second makes every other row read-only.
    g = web_graph(300, seed=2)
    leaves = list(degree_order(g).by_rank())[::-1]
    u, v = next(
        (u, v) for u in leaves[:20] for v in leaves[:20]
        if u != v and not g.has_edge(u, v) and g.out_degree(v) > 0
    )
    first = DynamicReachabilityIndex(g)
    assert first.insert_edge(u, v)
    above, below = first.touched
    assert above or below
    dynamic = DynamicReachabilityIndex(g)
    _freeze_rows(dynamic, above, below)
    assert dynamic.insert_edge(u, v)
    assert dynamic.touched == (above, below)
    assert len(reachable_set(g, v)) > 10 * (len(above) + len(below))
    dynamic.check()


# ----------------------------------------------------------------------
# promote: the shrink side is a subtraction, no test per entry
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    family_graphs(max_vertices=16),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=12),
)
def test_property_promote_to_random_ranks_keeps_check_green(g, targets):
    dynamic = DynamicReachabilityIndex(g)
    n = g.num_vertices
    for a, b in targets:
        applied = dynamic.promote(a % n, b % n)
        assert applied is None or applied == b % n == dynamic.order.ranks[a % n]
        dynamic.check()
