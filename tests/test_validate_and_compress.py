"""Tests for index validation, compressed serialization, inverted-list
statistics, and a 2-hop index served from sharded labels."""

from array import array

import pytest
from hypothesis import given, settings

from repro.core.build import build_index
from repro.core.drl import inverted_list_stats
from repro.core.labels import ReachabilityIndex
from repro.core.validate import check_canonical, check_cover, check_soundness
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph, social_graph
from repro.graph.order import degree_order
from repro.pregel.cost_model import CostModel
from repro.query import IndexBackend
from repro.serve import ShardedIndexBackend, ShardedLabelStore
from tests.conftest import digraphs

_NO_LIMIT = CostModel(time_limit_seconds=None)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_valid_index_passes_all_checks():
    g = random_digraph(40, 120, seed=1)
    order = degree_order(g)
    index = build_index(g, order=order, cost_model=_NO_LIMIT).index
    assert check_cover(index, g).ok
    assert check_soundness(index, g).ok
    assert check_canonical(index, g, order).ok


def test_cover_detects_missing_reachability():
    g = DiGraph(2, [(0, 1)])
    broken = ReachabilityIndex.from_label_lists([[0], [1]], [[0], [1]])
    report = check_cover(broken, g)
    assert not report.ok
    assert any("misses" in v for v in report.violations)


def test_cover_detects_fabricated_reachability():
    g = DiGraph(2, [])
    broken = ReachabilityIndex.from_label_lists([[0], [0]], [[0], [1]])
    report = check_cover(broken, g)
    assert not report.ok
    assert any("fabricates" in v for v in report.violations)


def test_cover_sampled_mode():
    g = random_digraph(50, 150, seed=2)
    index = build_index(g, cost_model=_NO_LIMIT).index
    report = check_cover(index, g, sample=500, seed=3)
    assert report.ok
    assert report.checked == 500


def test_report_counts_suppressed_violations():
    """Regression: violations past the message cap used to vanish —
    only the first 20 were kept and the rest left no trace.  They must
    now be counted, fail the report, and show up in ``str()``."""
    from repro.core.validate import MAX_MESSAGES, ValidationReport

    report = ValidationReport()
    total = MAX_MESSAGES + 15
    for i in range(total):
        report.checked += 1
        report.add(f"violation {i}")
    assert len(report.violations) == MAX_MESSAGES
    assert report.suppressed == 15
    assert report.total_violations == total
    assert not report.ok
    rendered = str(report)
    assert f"{total} violations" in rendered
    assert "15 suppressed" in rendered


def test_report_suppression_from_a_real_check():
    """An index that misses *every* pair overflows the message cap; the
    overflow must be reported, not silently dropped."""
    n = 12
    g = DiGraph(n, [(u, u + 1) for u in range(n - 1)])
    empty = ReachabilityIndex.from_label_lists(
        [[] for _ in range(n)], [[] for _ in range(n)]
    )
    report = check_cover(empty, g)
    assert report.suppressed > 0
    assert report.total_violations == len(report.violations) + report.suppressed
    assert "suppressed" in str(report)


def test_report_str_when_clean():
    from repro.core.validate import ValidationReport

    report = ValidationReport(checked=7)
    assert report.ok
    assert str(report) == "OK (7 checked)"


def test_cover_rejects_size_mismatch():
    g = DiGraph(3, [])
    index = ReachabilityIndex.from_label_lists([[0]], [[0]])
    assert not check_cover(index, g).ok


def test_soundness_detects_bogus_entry():
    g = DiGraph(2, [])
    bogus = ReachabilityIndex.from_label_lists([[0], [0, 1]], [[0], [1]])
    report = check_soundness(bogus, g)
    assert not report.ok


def test_canonical_detects_redundant_entry():
    """A sound but non-minimal index fails the canonical check."""
    g = DiGraph(3, [(0, 1), (1, 2)])
    order = degree_order(g)
    exact = build_index(g, order=order, cost_model=_NO_LIMIT).index
    padded_in = [list(exact.in_labels(v)) for v in range(3)]
    padded_out = [list(exact.out_labels(v)) for v in range(3)]
    # Add a redundant (but sound) entry: 0 reaches 2 via 1's labels.
    hub = padded_in[2][0]
    for extra in range(3):
        if extra not in padded_in[2] and extra != hub:
            from repro.baselines.transitive_closure import TransitiveClosure

            if TransitiveClosure(g).query(extra, 2):
                padded_in[2].append(extra)
                break
    padded = ReachabilityIndex.from_label_lists(padded_in, padded_out)
    if padded != exact:  # only if we actually padded something
        assert check_soundness(padded, g).ok
        assert not check_canonical(padded, g, order).ok


@settings(max_examples=20, deadline=None)
@given(digraphs(max_vertices=14))
def test_property_built_indexes_always_validate(g):
    order = degree_order(g)
    index = build_index(g, order=order, num_nodes=3, cost_model=_NO_LIMIT).index
    assert check_cover(index, g).ok
    assert check_canonical(index, g, order).ok


# ----------------------------------------------------------------------
# Compressed serialization
# ----------------------------------------------------------------------
def test_compressed_round_trip(tmp_path):
    g = social_graph(400, seed=4)
    index = build_index(g, cost_model=_NO_LIMIT).index
    path = tmp_path / "compressed.idx"
    index.save(path, compress=True)
    assert ReachabilityIndex.load(path) == index


def test_compression_shrinks_file(tmp_path):
    g = social_graph(500, seed=5)
    index = build_index(g, cost_model=_NO_LIMIT).index
    raw = tmp_path / "raw.idx"
    packed = tmp_path / "packed.idx"
    index.save(raw)
    index.save(packed, compress=True)
    assert packed.stat().st_size < raw.stat().st_size / 2


def test_compressed_empty_index(tmp_path):
    index = ReachabilityIndex.from_label_lists([], [])
    path = tmp_path / "empty.idx"
    index.save(path, compress=True)
    assert ReachabilityIndex.load(path).num_vertices == 0


def test_compressed_handles_large_vertex_ids(tmp_path):
    """Varint encoding must survive multi-byte deltas."""
    huge = 2**50
    index = ReachabilityIndex.from_label_lists(
        [[3, huge, huge + 1], []], [[], [0, 2**20, huge]]
    )
    path = tmp_path / "huge.idx"
    index.save(path, compress=True)
    reloaded = ReachabilityIndex.load(path)
    assert reloaded == index
    assert list(reloaded.in_labels(0)) == [3, huge, huge + 1]


def test_compressed_truncation_detected(tmp_path):
    g = random_digraph(30, 90, seed=6)
    index = build_index(g, cost_model=_NO_LIMIT).index
    path = tmp_path / "trunc.idx"
    index.save(path, compress=True)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match="truncated"):
        ReachabilityIndex.load(path)


@settings(max_examples=20, deadline=None)
@given(digraphs())
def test_property_compressed_round_trip(tmp_path_factory, g):
    index = build_index(g, cost_model=_NO_LIMIT).index
    path = tmp_path_factory.mktemp("cmp") / "index.idx"
    index.save(path, compress=True)
    assert ReachabilityIndex.load(path) == index


# ----------------------------------------------------------------------
# Inverted-list statistics (the paper's Section III-D remark)
# ----------------------------------------------------------------------
def test_inverted_lists_small_relative_to_vertex_count():
    """The paper reports avg |IBFS_low(v)| < 1 at billion-edge scale;
    at our ~10³× smaller scale the average is larger in absolute terms
    but remains a tiny fraction of |V| — which is the property that
    makes sharing the lists (Lemma 7) and Check probes (Lemma 6) cheap."""
    g = social_graph(800, seed=7)
    stats = inverted_list_stats(g, cost_model=_NO_LIMIT)
    assert stats["avg_ibfs"] < g.num_vertices / 30
    assert stats["max_ibfs"] >= stats["avg_ibfs"]
    assert stats["avg_forward"] >= 0.0


# ----------------------------------------------------------------------
# Labels left sharded: the serving layer's label store as a backend
# ----------------------------------------------------------------------
def _sharded(index, num_shards):
    store = ShardedLabelStore(index, num_shards=num_shards, cost_model=_NO_LIMIT)
    return ShardedIndexBackend(store)


def test_distributed_backend_same_answers_higher_cost():
    g = social_graph(300, seed=8)
    index = build_index(g, cost_model=_NO_LIMIT).index
    local = IndexBackend(index, _NO_LIMIT)
    remote = _sharded(index, num_shards=16)
    from repro.workloads.queries import random_pairs

    pairs = random_pairs(g.num_vertices, 200, seed=9)
    local_seconds = remote_seconds = 0.0
    for s, t in pairs:
        local_answer, seconds = local.query_with_cost(s, t)
        local_seconds += seconds
        remote_answer, seconds = remote.query_with_cost(s, t)
        remote_seconds += seconds
        assert local_answer == remote_answer
    assert remote_seconds > local_seconds


def test_distributed_backend_single_node_costs_like_local():
    g = social_graph(200, seed=10)
    index = build_index(g, cost_model=_NO_LIMIT).index
    backend = _sharded(index, num_shards=1)
    answer, seconds = backend.query_with_cost(0, 100)
    _expected, local_seconds = IndexBackend(index, _NO_LIMIT).query_with_cost(0, 100)
    assert seconds == pytest.approx(local_seconds)
