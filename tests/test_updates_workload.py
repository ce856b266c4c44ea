"""Tests for update streams: edge-only (both node and promote ratios
0) and mixed."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    citation_graph,
    random_dag,
    random_digraph,
    social_graph,
    web_graph,
)
from repro.workloads.updates import (
    IDEAL_RANK,
    apply_stream,
    mixed_update_stream,
)


def test_stream_validity():
    g = random_digraph(20, 60, seed=1)
    stream = mixed_update_stream(g, 50, seed=2)
    assert len(stream) == 50
    present = set(g.edges())
    for op, u, v in stream:
        assert u != v
        if op == "insert":
            assert (u, v) not in present
            present.add((u, v))
        else:
            assert (u, v) in present
            present.discard((u, v))


def test_stream_deterministic():
    g = random_digraph(15, 40, seed=3)
    stream = mixed_update_stream(g, 30, seed=4)
    assert stream == mixed_update_stream(g, 30, seed=4)
    assert stream != mixed_update_stream(g, 30, seed=5)


def test_insert_only_and_delete_only():
    g = random_digraph(15, 40, seed=6)
    inserts = mixed_update_stream(g, 20, insert_ratio=1.0, seed=7)
    assert all(op == "insert" for op, _u, _v in inserts)
    deletes = mixed_update_stream(g, 20, insert_ratio=0.0, seed=8)
    assert all(op == "delete" for op, _u, _v in deletes)


def test_delete_only_falls_back_when_empty():
    g = DiGraph(3, [(0, 1)])
    stream = mixed_update_stream(g, 3, insert_ratio=0.0, seed=9)
    # One real deletion, then forced insertions.
    assert stream[0] == ("delete", 0, 1)
    assert stream[1][0] == "insert"


def test_invalid_parameters():
    g = DiGraph(3, [])
    with pytest.raises(ValueError):
        mixed_update_stream(g, 5, insert_ratio=1.5)
    with pytest.raises(ValueError):
        mixed_update_stream(DiGraph(1, []), 5)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 10), st.integers(0, 30))
def test_property_stream_applies_exactly(n, count):
    g = random_digraph(n, min(2 * n, n * (n - 1)), seed=n)
    stream = mixed_update_stream(g, count, seed=count)
    dynamic = DynamicReachabilityIndex(g)
    apply_stream(dynamic, stream)
    # Edge set evolves exactly as the stream dictates.
    expected = set(g.edges())
    for op, u, v in stream:
        if op == "insert":
            expected.add((u, v))
        else:
            expected.discard((u, v))
    assert set(dynamic.edges()) == expected
    # And the maintained index is still exact.
    assert dynamic.snapshot() == tol_index(
        dynamic.current_graph(), dynamic.order
    )


# ----------------------------------------------------------------------
# Mixed streams: node ops and order upgrades
# ----------------------------------------------------------------------
def test_mixed_stream_validity_at_position():
    g = random_digraph(15, 40, seed=21)
    stream = mixed_update_stream(
        g, 60, node_ratio=0.3, promote_ratio=0.2, seed=22
    )
    assert len(stream) == 60
    present = set(g.edges())
    alive = set(range(g.num_vertices))
    next_id = g.num_vertices
    for op, u, v in stream:
        if op == "insert":
            assert u in alive and v in alive and u != v
            assert (u, v) not in present
            present.add((u, v))
        elif op == "delete":
            assert (u, v) in present
            present.discard((u, v))
        elif op == "add_node":
            assert u == v == next_id  # predicted dense id
            alive.add(next_id)
            next_id += 1
        elif op == "delete_node":
            assert u == v and u in alive
            alive.discard(u)
            present = {(a, b) for a, b in present if u not in (a, b)}
        else:
            assert op == "promote"
            assert u in alive and v == IDEAL_RANK
    assert any(op in ("add_node", "delete_node") for op, _, _ in stream)
    assert any(op == "promote" for op, _, _ in stream)


def test_mixed_stream_edge_only_when_ratios_zero():
    g = random_digraph(15, 40, seed=23)
    stream = mixed_update_stream(g, 30, seed=24)
    assert all(op in ("insert", "delete") for op, _, _ in stream)


def test_mixed_stream_invalid_ratios():
    g = random_digraph(6, 10, seed=1)
    with pytest.raises(ValueError):
        mixed_update_stream(g, 5, node_ratio=-0.1)
    with pytest.raises(ValueError):
        mixed_update_stream(g, 5, promote_ratio=1.5)
    with pytest.raises(ValueError):
        mixed_update_stream(g, 5, node_ratio=0.7, promote_ratio=0.7)


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 10), st.integers(0, 25))
def test_property_mixed_stream_applies_exactly(n, count):
    g = random_digraph(n, min(2 * n, n * (n - 1)), seed=n)
    stream = mixed_update_stream(
        g, count, node_ratio=0.25, promote_ratio=0.15, seed=count
    )
    dynamic = DynamicReachabilityIndex(g)
    apply_stream(dynamic, stream)
    assert dynamic.snapshot() == tol_index(
        dynamic.current_graph(), dynamic.order
    )


def reference_mixed_stream(graph, count, insert_ratio, node_ratio, promote_ratio, seed):
    """``mixed_update_stream`` as it drew before it kept its sorted lists:
    it sorted the alive ids and the edge set again at every draw."""
    import random

    rng = random.Random(seed)
    present = set(graph.edges())
    alive = set(range(graph.num_vertices))
    next_id = graph.num_vertices
    stream = []

    def pick_absent_edge():
        pool = sorted(alive)
        for _ in range(64):
            u, v = rng.choice(pool), rng.choice(pool)
            if u != v and (u, v) not in present:
                return u, v
        return None

    while len(stream) < count:
        roll = rng.random()
        if roll < node_ratio:
            if rng.random() < 0.5 or len(alive) <= 2:
                stream.append(("add_node", next_id, next_id))
                alive.add(next_id)
                next_id += 1
            else:
                v = rng.choice(sorted(alive))
                alive.discard(v)
                present = {(a, b) for a, b in present if a != v and b != v}
                stream.append(("delete_node", v, v))
        elif roll < node_ratio + promote_ratio:
            stream.append(("promote", rng.choice(sorted(alive)), IDEAL_RANK))
        else:
            want_insert = rng.random() < insert_ratio
            if want_insert and len(present) >= len(alive) * (len(alive) - 1):
                want_insert = False
            if not want_insert and not present:
                want_insert = True
            if want_insert:
                edge = pick_absent_edge()
                if edge is None:
                    continue
                present.add(edge)
                stream.append(("insert", *edge))
            else:
                u, v = rng.choice(sorted(present))
                present.discard((u, v))
                stream.append(("delete", u, v))
    return stream


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 30),
    st.integers(0, 120),
    st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    st.sampled_from([0.0, 0.1, 0.4]),
    st.sampled_from([0.0, 0.05, 0.3]),
    st.integers(0, 1000),
)
def test_mixed_stream_draws_what_sorting_at_every_draw_drew(
    n, count, insert_ratio, node_ratio, promote_ratio, seed
):
    # Committed scenarios and the serve-bench baselines replay these
    # streams, so keeping the sorted lists must not move a single draw.
    g = random_digraph(n, min(2 * n, n * (n - 1)), seed=seed)
    args = (insert_ratio, node_ratio, promote_ratio, seed)
    assert mixed_update_stream(g, count, *args) == reference_mixed_stream(
        g, count, *args
    )


# Digests of streams drawn before a node delete removed only the deleted
# vertex's edges (it used to rebuild the whole edge list and set).
_STREAM_DIGESTS = [
    (citation_graph, (400,), 1, 600, 0.6, 0.1, 0.05, 3, "a9358b5b7b027460"),
    (social_graph, (300,), 2, 800, 0.5, 0.3, 0.0, 0, "f6a9e7c1765a90a1"),
    (random_dag, (120, 360), 23, 500, 0.4, 0.5, 0.2, 13, "7d3f59980a7b5025"),
    (social_graph, (60,), 5, 400, 0.2, 0.6, 0.1, 7, "a0bb08217d07e8bb"),
    (random_dag, (40, 80), 4, 300, 0.5, 0.9, 0.0, 1, "a54c6baca9a6fbd9"),
    (web_graph, (200,), 9, 400, 0.7, 0.0, 0.0, 5, "5a2282260168ce43"),
]


@pytest.mark.parametrize(
    "make, size, graph_seed, count, insert_ratio, node_ratio, promote_ratio, seed, digest",
    _STREAM_DIGESTS,
)
def test_mixed_stream_digests_are_pinned(
    make, size, graph_seed, count, insert_ratio, node_ratio, promote_ratio, seed, digest
):
    stream = mixed_update_stream(
        make(*size, seed=graph_seed), count, insert_ratio=insert_ratio,
        node_ratio=node_ratio, promote_ratio=promote_ratio, seed=seed,
    )
    assert hashlib.sha256(repr(stream).encode()).hexdigest()[:16] == digest
