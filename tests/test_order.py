"""Tests for vertex orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.order import (
    ORDER_STRATEGIES,
    VertexOrder,
    degree_order,
    degree_sum_order,
    in_degree_order,
    out_degree_order,
    random_order,
)
from tests.conftest import digraphs


def test_vertex_order_basic():
    order = VertexOrder([2, 0, 1])
    assert order.rank(2) == 0
    assert order.rank(0) == 1
    assert order.rank(1) == 2
    assert order.vertex_at_rank(0) == 2
    assert list(order.by_rank()) == [2, 0, 1]
    assert len(order) == 3


def test_higher_means_smaller_rank():
    order = VertexOrder([2, 0, 1])
    assert order.higher(2, 0)
    assert order.higher(0, 1)
    assert not order.higher(1, 2)
    assert not order.higher(2, 2)


def test_non_permutation_rejected():
    with pytest.raises(ValueError):
        VertexOrder([0, 0, 1])
    with pytest.raises(ValueError):
        VertexOrder([0, 3, 1])


def test_order_equality_and_hash():
    a = VertexOrder([1, 0])
    b = VertexOrder([1, 0])
    c = VertexOrder([0, 1])
    assert a == b
    assert a != c
    assert hash(a) == hash(b)
    assert a.__eq__("x") is NotImplemented


def test_appended_puts_the_next_id_at_the_tail_and_leaves_the_order_alone():
    order = VertexOrder([2, 0, 1])
    grown = order.appended()
    assert grown == VertexOrder([2, 0, 1, 3])
    assert list(grown.ranks) == [1, 2, 0, 3]
    assert order == VertexOrder([2, 0, 1]) and len(order) == 3
    assert VertexOrder([]).appended() == VertexOrder([0])


def test_degree_order_formula():
    """ord(v) = (d_in+1)(d_out+1) + id/(n+1): bigger product first,
    bigger id wins ties."""
    # Vertex 0: product (1+1)(1+1)=4; vertex 1: (1+1)(1+1)=4;
    # vertex 2: (2+1)(2+1)=9 using a 3-cycle plus extra edges on 2.
    g = DiGraph(3, [(0, 1), (1, 2), (2, 0), (2, 1), (0, 2)])
    # degrees: 0: in 1 out 2 -> 6; 1: in 2 out 1 -> 6; 2: in 2 out 2 -> 9
    order = degree_order(g)
    assert order.vertex_at_rank(0) == 2
    # tie between 0 and 1 (product 6): larger id (1) is higher order.
    assert order.vertex_at_rank(1) == 1
    assert order.vertex_at_rank(2) == 0


def test_degree_order_ties_broken_by_id():
    g = DiGraph(4, [])  # all degrees zero: pure id order
    order = degree_order(g)
    assert list(order.by_rank()) == [3, 2, 1, 0]


def test_alternative_orders_are_valid_permutations():
    g = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    for factory in (out_degree_order, in_degree_order, degree_sum_order):
        order = factory(g)
        assert sorted(order.by_rank()) == list(range(5))


def test_random_order_seeded():
    g = DiGraph(20, [])
    assert random_order(g, seed=1) == random_order(g, seed=1)
    assert random_order(g, seed=1) != random_order(g, seed=2)


def test_strategy_registry():
    assert set(ORDER_STRATEGIES) == {
        "degree",
        "out-degree",
        "in-degree",
        "degree-sum",
        "random",
    }
    g = DiGraph(4, [(0, 1)])
    for factory in ORDER_STRATEGIES.values():
        assert sorted(factory(g).by_rank()) == [0, 1, 2, 3]


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_property_degree_order_is_total_and_consistent(g):
    order = degree_order(g)
    ranks = [order.rank(v) for v in g.vertices()]
    assert sorted(ranks) == list(range(g.num_vertices))
    product = lambda v: (g.in_degree(v) + 1) * (g.out_degree(v) + 1)
    for rank in range(g.num_vertices - 1):
        u = order.vertex_at_rank(rank)
        v = order.vertex_at_rank(rank + 1)
        assert (product(u), u) > (product(v), v)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(9))), st.integers(0, 8), st.integers(0, 8))
def test_moved_equals_the_order_built_from_the_moved_list(vertices, v, position):
    order = VertexOrder(vertices)
    by_rank = list(vertices)
    by_rank.remove(v)
    by_rank.insert(position, v)
    moved = order.moved(v, position)
    assert moved == VertexOrder(by_rank)
    assert list(moved.ranks) == list(VertexOrder(by_rank).ranks)
    assert sorted(moved.by_rank()) == list(range(9))
    assert moved.rank(v) == position
    # Rollback keeps the old order: moving must leave it as it was.
    assert list(order.by_rank()) == vertices
    assert [order.rank(w) for w in vertices] == list(range(9))


def test_moved_rejects_a_rank_outside_the_order():
    order = VertexOrder([2, 0, 1])
    with pytest.raises(ValueError):
        order.moved(0, 3)
    with pytest.raises(ValueError):
        order.moved(0, -1)
    assert order.moved(1, 0) == VertexOrder([1, 2, 0])
