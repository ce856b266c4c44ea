"""Shrinker tests: delta-debugging minimises real and injected bugs.

The headline test injects a deliberate off-by-one into DRL_b's batch
sequence (the last batch silently loses a vertex), checks the oracle
matrix catches it, and checks the shrinker reduces the failing case to
a repro of at most 12 vertices.
"""

import pytest

import repro.core.drl_batch
from repro.core.batching import batch_sequence
from repro.fuzz import generate_cases, run_case, shrink_case
from repro.fuzz.cases import FuzzCase
from repro.fuzz.oracles import ORACLES
from repro.fuzz.runner import run_fuzz


# ----------------------------------------------------------------------
# The acceptance scenario: off-by-one in DRL_b batching
# ----------------------------------------------------------------------
@pytest.fixture
def broken_batching(monkeypatch):
    """DRL_b builds on a batch sequence whose last batch lost a vertex."""

    def off_by_one(order, initial_size=2, growth_factor=2.0):
        batches = batch_sequence(order, initial_size, growth_factor)
        if len(batches) > 1 and len(batches[-1]) > 1:
            batches[-1] = batches[-1][:-1]
        return batches

    monkeypatch.setattr(repro.core.drl_batch, "batch_sequence", off_by_one)


def test_batching_off_by_one_is_caught_and_shrunk(broken_batching):
    caught = None
    for case in generate_cases(seed=42, count=25):
        result = run_case(case)
        if not result.ok:
            caught = (case, result)
            break
    assert caught is not None, "off-by-one DRL_b batching was not detected"
    case, result = caught
    assert "methods-agree" in result.fingerprints

    reduction = shrink_case(case, fingerprint="methods-agree")
    assert reduction.case.num_vertices <= 12
    assert "drl-b" in reduction.failure.message
    # The reduced case still fails on its own (replayable repro).
    replay = run_case(reduction.case)
    assert "methods-agree" in replay.fingerprints


def test_batching_off_by_one_end_to_end_campaign(broken_batching, tmp_path):
    report = run_fuzz(seed=42, count=25, failures_dir=tmp_path)
    assert not report.ok
    for record in report.failures:
        assert record.reduced_vertices <= 12
        assert record.path is not None and record.path.exists()


# ----------------------------------------------------------------------
# Shrinker mechanics on controlled stubs
# ----------------------------------------------------------------------
def _with_stub(stub):
    oracles = dict(ORACLES)
    oracles["cover"] = stub
    return oracles


def test_shrink_finds_vertex_threshold():
    def stub(ctx):
        n = ctx.graph.num_vertices
        return [f"{n} vertices"] if n >= 5 else []

    case = generate_cases(seed=2, count=1)[0]
    reduction = shrink_case(case, oracles=_with_stub(stub))
    assert reduction.case.num_vertices == 5
    assert reduction.fingerprint == "cover"


def test_shrink_reduces_edges_and_config():
    def stub(ctx):
        return ["has an edge"] if ctx.graph.num_edges >= 1 else []

    case = generate_cases(seed=4, count=3)[1]
    reduction = shrink_case(case, oracles=_with_stub(stub))
    assert len(reduction.case.edges) == 1
    assert reduction.case.num_vertices <= 2
    # Config collapsed to the simplest one that still fails.
    assert reduction.case.updates == ()
    assert reduction.case.num_nodes == 1
    assert reduction.case.partitioner == "hash"


def test_shrink_drops_update_ops():
    def stub(ctx):
        return ["too many updates"] if len(ctx.case.updates) >= 3 else []

    case = FuzzCase(
        case_id=0, family="cyclic", seed=8, num_vertices=6,
        updates=tuple(("insert", 0, i) for i in range(1, 6)),
    )
    reduction = shrink_case(case, oracles=_with_stub(stub))
    assert len(reduction.case.updates) == 3


def test_shrink_rejects_passing_case():
    case = generate_cases(seed=42, count=1)[0]
    with pytest.raises(ValueError, match="does not fail"):
        shrink_case(case)


def test_shrink_rejects_unobserved_fingerprint():
    def stub(ctx):
        return ["always fails"]

    case = generate_cases(seed=1, count=1)[0]
    with pytest.raises(ValueError, match="fingerprint"):
        shrink_case(case, fingerprint="soundness", oracles=_with_stub(stub))


def test_shrink_respects_evaluation_budget():
    calls = {"n": 0}

    def stub(ctx):
        calls["n"] += 1
        return [f"{ctx.graph.num_vertices} vertices"]

    case = generate_cases(seed=3, count=1)[0]
    reduction = shrink_case(case, oracles=_with_stub(stub), max_evaluations=10)
    assert reduction.evaluations <= 10
    # Still returns a (partially) reduced, failing case.
    assert reduction.case.num_vertices <= case.concretize().num_vertices


def test_shrink_preserves_failure_mode_not_just_any_failure():
    """Shrinking a soundness failure must not drift into accepting a
    case that only fails some other oracle."""

    def cover_stub(ctx):
        # Fails on every graph — would dominate if fingerprints mixed.
        return ["cover always fails"]

    def soundness_stub(ctx):
        n = ctx.graph.num_vertices
        return [f"{n} vertices"] if n >= 7 else []

    oracles = dict(ORACLES)
    oracles["cover"] = cover_stub
    oracles["soundness"] = soundness_stub
    case = generate_cases(seed=6, count=1)[0]
    reduction = shrink_case(case, fingerprint="soundness", oracles=oracles)
    assert reduction.case.num_vertices == 7
    assert reduction.fingerprint == "soundness"
