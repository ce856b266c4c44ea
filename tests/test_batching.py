"""Tests for batch sequences (Definition 7)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import batch_sequence, validate_batch_sequence
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order


def _order(n: int) -> VertexOrder:
    return VertexOrder(list(range(n)))


def test_default_parameters_geometric():
    batches = batch_sequence(_order(11))
    assert [len(b) for b in batches] == [2, 4, 5]


def test_batch_size_one_k_one_is_tol_schedule():
    batches = batch_sequence(_order(5), initial_size=1, growth_factor=1)
    assert [len(b) for b in batches] == [1, 1, 1, 1, 1]


def test_batch_size_n_is_drl_schedule():
    batches = batch_sequence(_order(5), initial_size=5)
    assert len(batches) == 1
    assert len(batches[0]) == 5


def test_fractional_growth():
    batches = batch_sequence(_order(20), initial_size=2, growth_factor=1.5)
    assert [len(b) for b in batches] == [2, 3, 4, 6, 5]


def test_huge_initial_size_capped():
    batches = batch_sequence(_order(3), initial_size=100)
    assert [len(b) for b in batches] == [3]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        batch_sequence(_order(4), initial_size=0)
    with pytest.raises(ValueError):
        batch_sequence(_order(4), growth_factor=0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="initial batch size must be finite"):
            batch_sequence(_order(4), initial_size=bad)
        with pytest.raises(ValueError, match="growth factor must be finite"):
            batch_sequence(_order(4), growth_factor=bad)


def test_batches_ordered_by_rank():
    order = VertexOrder([3, 1, 2, 0])  # ranks: v3 highest
    batches = batch_sequence(order, initial_size=2)
    assert batches[0] == [3, 1]
    assert batches[1] == [2, 0]


def test_empty_order():
    assert batch_sequence(_order(0)) == []


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_property_valid_batch_sequence(n, b, k):
    order = _order(n)
    batches = batch_sequence(order, initial_size=b, growth_factor=k)
    validate_batch_sequence(batches, order)  # raises on violation
    assert sum(len(batch) for batch in batches) == n
    if k > 1:
        # Sizes are non-decreasing except possibly the final remainder.
        sizes = [len(batch) for batch in batches]
        assert all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 2))


def test_validate_rejects_bad_sequences():
    order = _order(4)
    with pytest.raises(ValueError, match="empty"):
        validate_batch_sequence([[0], []], order)
    with pytest.raises(ValueError, match="two batches"):
        validate_batch_sequence([[0, 1], [2, 2, 3]], order)
    with pytest.raises(ValueError, match="higher order"):
        validate_batch_sequence([[2, 3], [0, 1]], order)
    with pytest.raises(ValueError, match="cover"):
        validate_batch_sequence([[0, 1]], order)


def test_validate_accepts_paper_example():
    order = _order(11)
    validate_batch_sequence(
        [[0, 1], [2, 3, 4, 5], [6, 7, 8, 9, 10]], order
    )
