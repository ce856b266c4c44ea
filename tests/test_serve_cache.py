"""Tests for the query cache, including the staleness property."""

import pytest

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.dynamic import DynamicReachabilityIndex
from repro.graph.generators import random_dag, social_graph
from repro.pregel.cost_model import CostModel
from repro.serve import CachingBackend, QueryCache, ShardedIndexBackend, ShardedLabelStore
from repro.workloads.queries import random_pairs
from repro.workloads.updates import mixed_update_stream

_NO_LIMIT = CostModel(time_limit_seconds=None)


# -- LRU mechanics -----------------------------------------------------


def test_lru_eviction_order():
    cache = QueryCache(capacity=2)
    cache.put(0, 1, True)
    cache.put(0, 2, True)
    assert cache.get(0, 1) is True  # refresh (0, 1)
    cache.put(0, 3, True)           # evicts (0, 2), the LRU entry
    assert cache.evictions == 1
    assert cache.get(0, 2) is None
    assert cache.get(0, 1) is True
    assert cache.get(0, 3) is True


def test_put_existing_key_updates_without_eviction():
    cache = QueryCache(capacity=1)
    cache.put(0, 1, True)
    cache.put(0, 1, False)
    assert cache.evictions == 0
    assert cache.get(0, 1) is False


def test_hit_and_miss_counters():
    cache = QueryCache()
    assert cache.hit_rate == 0.0
    assert cache.get(1, 2) is None
    cache.put(1, 2, False)
    assert cache.get(1, 2) is False
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        QueryCache(capacity=0)


@pytest.mark.parametrize("capacity", [float("nan"), 2.5, 64.0], ids=repr)
def test_capacity_must_be_an_integer(capacity):
    # ``len(entries) >= nan`` is never true: a NaN capacity never evicted.
    with pytest.raises(ValueError, match="capacity must be an integer"):
        QueryCache(capacity=capacity)


def test_negative_caching_disabled_skips_false_answers():
    cache = QueryCache(negative_caching=False)
    cache.put(0, 1, False)
    assert len(cache) == 0
    cache.put(0, 1, True)
    assert cache.get(0, 1) is True


def test_clear_counts_as_invalidation():
    cache = QueryCache()
    cache.put(0, 1, True)
    cache.put(0, 2, False)
    cache.clear()
    assert len(cache) == 0
    assert cache.invalidated == 2


# -- monotonicity-aware invalidation -----------------------------------


def test_insert_invalidates_only_negatives():
    cache = QueryCache()
    cache.put(0, 1, True)
    cache.put(0, 2, False)
    cache.put(3, 4, False)
    dropped = cache.invalidate_for_update("insert", 7, 8)
    assert dropped == 2
    assert cache.invalidated == 2
    assert cache.get(0, 1) is True      # positives survive inserts
    assert cache.get(0, 2) is None
    assert cache.get(3, 4) is None


def test_delete_invalidates_only_positives():
    cache = QueryCache()
    cache.put(0, 1, True)
    cache.put(0, 2, False)
    dropped = cache.invalidate_for_update("delete", 7, 8)
    assert dropped == 1
    assert cache.get(0, 1) is None
    assert cache.get(0, 2) is False     # negatives survive deletes


def test_unknown_op_rejected():
    with pytest.raises(ValueError, match="unknown update op"):
        QueryCache().invalidate_for_update("rename", 0, 1)


def test_attach_and_detach():
    graph = random_dag(30, 60, seed=2)
    dynamic = DynamicReachabilityIndex(graph)
    cache = QueryCache()
    cache.put(0, 1, True)
    cache.put(0, 2, False)
    cache.attach(dynamic)
    stream = mixed_update_stream(graph, 1, insert_ratio=1.0, seed=0)
    op, u, v = stream[0]
    assert dynamic.insert_edge(u, v)
    assert cache.get(0, 2) is None      # negative evicted by the insert
    cache.detach(dynamic)
    cache.put(5, 6, False)
    assert dynamic.delete_edge(u, v)
    assert cache.get(5, 6) is False     # detached: no more invalidation


def test_noop_updates_do_not_invalidate():
    graph = random_dag(20, 40, seed=3)
    dynamic = DynamicReachabilityIndex(graph)
    cache = QueryCache()
    cache.attach(dynamic)
    cache.put(0, 1, True)
    cache.put(0, 2, False)
    u, v = next(iter(graph.edges()))
    assert not dynamic.insert_edge(u, v)   # already present: no-op
    assert cache.invalidated == 0
    assert len(cache) == 2


# -- CachingBackend ----------------------------------------------------


class _CountingBackend:
    def __init__(self, answer=True, seconds=1.0):
        self.calls = 0
        self._answer = answer
        self._seconds = seconds

    def query_with_cost(self, s, t):
        self.calls += 1
        return self._answer, self._seconds


def test_caching_backend_hit_skips_inner():
    inner = _CountingBackend(seconds=1.0)
    backend = CachingBackend(inner)
    answer, miss_cost = backend.query_with_cost(1, 2)
    assert answer is True and inner.calls == 1
    answer, hit_cost = backend.query_with_cost(1, 2)
    assert answer is True and inner.calls == 1  # served from cache
    assert hit_cost == _NO_LIMIT.t_op
    assert miss_cost == 1.0 + _NO_LIMIT.t_op


@pytest.mark.parametrize("capacity", [1, 3, 64])
@pytest.mark.parametrize("negative_caching", [True, False])
def test_caching_backend_keeps_the_lru_as_get_then_put_would(capacity, negative_caching):
    # The backend reads and fills the LRU itself; QueryCache.get, then
    # put on a miss, is the reference it must match entry for entry.
    class Parity:
        def query_with_cost(self, s, t):
            return (s + t) % 3 == 0, 1.0

    reference = QueryCache(capacity, negative_caching=negative_caching)
    backend = CachingBackend(Parity(), QueryCache(capacity, negative_caching))
    for s, t in random_pairs(12, 400, seed=capacity):
        expected = reference.get(s, t)
        if expected is None:
            expected = (s + t) % 3 == 0
            reference.put(s, t, expected)
        assert backend.query_with_cost(s, t)[0] == expected
    cache = backend.cache
    assert list(cache._entries.items()) == list(reference._entries.items())
    counts = ("hits", "misses", "evictions", "invalidated")
    assert [getattr(cache, c) for c in counts] == [getattr(reference, c) for c in counts]


# -- the staleness property --------------------------------------------
# ISSUE.md: "insert/delete an edge, assert no stale cached answer
# survives — reuse the fuzz dynamic-vs-rebuild oracle as a
# serving-layer oracle".  After every applied update, every answer the
# cached serving stack returns must match a transitive closure of the
# *current* graph.


def _assert_no_stale_answers(graph, updates, pairs):
    dynamic = DynamicReachabilityIndex(graph)
    store = ShardedLabelStore(dynamic, num_shards=4, cost_model=_NO_LIMIT)
    backend = CachingBackend(
        ShardedIndexBackend(store), QueryCache()
    )
    backend.cache.attach(dynamic)
    # Warm the cache so there is something to stale-ify.
    for s, t in pairs:
        backend.query_with_cost(s, t)
    for op, u, v in updates:
        applied = (
            dynamic.insert_edge(u, v) if op == "insert" else dynamic.delete_edge(u, v)
        )
        assert applied
        oracle = TransitiveClosure(dynamic.current_graph())
        for s, t in pairs:
            answer, _ = backend.query_with_cost(s, t)
            assert answer == oracle.query(s, t), (
                f"stale answer for ({s}, {t}) after {op}({u}, {v})"
            )
    assert backend.cache.hits > 0          # the test must not be vacuous
    assert backend.cache.invalidated > 0   # invalidation actually fired


def test_no_stale_answer_after_updates_dag():
    graph = random_dag(40, 90, seed=7)
    updates = mixed_update_stream(graph, 12, insert_ratio=0.5, seed=7)
    pairs = random_pairs(graph.num_vertices, 60, seed=7)
    _assert_no_stale_answers(graph, updates, pairs)


def test_no_stale_answer_after_updates_cyclic():
    graph = social_graph(50, seed=4)
    updates = mixed_update_stream(graph, 10, insert_ratio=0.4, seed=4)
    pairs = random_pairs(graph.num_vertices, 60, seed=4)
    _assert_no_stale_answers(graph, updates, pairs)


def test_stale_answer_without_invalidation_is_the_counterfactual():
    # Sanity check that the staleness property is non-trivial: the same
    # stack WITHOUT the invalidation hook does serve a stale answer.
    graph = random_dag(40, 90, seed=7)
    dynamic = DynamicReachabilityIndex(graph)
    store = ShardedLabelStore(dynamic, num_shards=4, cost_model=_NO_LIMIT)
    backend = CachingBackend(
        ShardedIndexBackend(store), QueryCache()
    )  # note: no attach()
    pairs = random_pairs(graph.num_vertices, 200, seed=1)
    for s, t in pairs:
        backend.query_with_cost(s, t)
    for op, u, v in mixed_update_stream(graph, 15, insert_ratio=0.5, seed=9):
        if op == "insert":
            dynamic.insert_edge(u, v)
        else:
            dynamic.delete_edge(u, v)
    oracle = TransitiveClosure(dynamic.current_graph())
    stale = sum(
        backend.query_with_cost(s, t)[0] != oracle.query(s, t) for s, t in pairs
    )
    assert stale > 0


# -- hypothesis: the property over arbitrary update interleavings ------
# The deterministic tests above fix one stream; here hypothesis drives
# the interleaving of inserts, deletes, and reads.  The invariant is
# the monotonicity contract the serving tier leans on everywhere: an
# insert may only flip answers False->True, a delete only True->False,
# and a cache attached to the dynamic index never serves an answer
# that disagrees with the transitive closure of the current graph.

from hypothesis import given, settings
from hypothesis import strategies as st

_N = 24


@st.composite
def _interleavings(draw):
    """A list of ("read", s, t) / ("insert", u, v) / ("delete", u, v)."""
    ops = []
    for _ in range(draw(st.integers(min_value=4, max_value=30))):
        kind = draw(st.sampled_from(["read", "read", "insert", "delete"]))
        u = draw(st.integers(min_value=0, max_value=_N - 1))
        v = draw(st.integers(min_value=0, max_value=_N - 1))
        ops.append((kind, u, v))
    return ops


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9), ops=_interleavings())
def test_cached_answers_track_closure_under_any_interleaving(seed, ops):
    graph = random_dag(_N, 2 * _N, seed=seed)
    dynamic = DynamicReachabilityIndex(graph)
    store = ShardedLabelStore(dynamic, num_shards=2, cost_model=_NO_LIMIT)
    backend = CachingBackend(
        ShardedIndexBackend(store), QueryCache()
    )
    backend.cache.attach(dynamic)
    oracle = TransitiveClosure(dynamic.current_graph())
    dirty = False
    for kind, u, v in ops:
        if kind == "read":
            if dirty:
                oracle = TransitiveClosure(dynamic.current_graph())
                dirty = False
            before = oracle.query(u, v)
            answer, _ = backend.query_with_cost(u, v)
            assert answer == before
            # Read twice: the second answer comes from the cache and
            # must agree with the first.
            again, _ = backend.query_with_cost(u, v)
            assert again == before
        elif kind == "insert":
            if u != v and not dynamic.has_edge(u, v):
                dynamic.insert_edge(u, v)
                dirty = True
        else:
            if dynamic.has_edge(u, v):
                dynamic.delete_edge(u, v)
                dirty = True


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9),
    insert_ratio=st.floats(min_value=0.0, max_value=1.0),
    count=st.integers(min_value=1, max_value=12),
)
def test_update_direction_respects_monotonicity(seed, insert_ratio, count):
    # Inserts may only flip False->True; deletes only True->False.
    graph = random_dag(_N, 2 * _N, seed=seed)
    dynamic = DynamicReachabilityIndex(graph)
    pairs = random_pairs(_N, 40, seed=seed)
    for op, u, v in mixed_update_stream(
        graph, count, insert_ratio=insert_ratio, seed=seed
    ):
        before = {pair: dynamic.query(*pair) for pair in pairs}
        if op == "insert":
            dynamic.insert_edge(u, v)
        else:
            dynamic.delete_edge(u, v)
        oracle = TransitiveClosure(dynamic.current_graph())
        for (s, t), was in before.items():
            now = oracle.query(s, t)
            assert now == dynamic.query(s, t)
            if op == "insert":
                assert now or not was, f"insert flipped ({s},{t}) True->False"
            else:
                assert was or not now, f"delete flipped ({s},{t}) False->True"
