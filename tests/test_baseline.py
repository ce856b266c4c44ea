"""Tests for the benchmark baseline store and regression gate."""

import json

import pytest

from repro.bench.baseline import (
    BaselineError,
    baseline_from_tables,
    compare_to_baseline,
    default_baseline_path,
    load_baseline,
    save_baseline,
)
from repro.bench.results import Cell, ExperimentTable


def _table(cells):
    table = ExperimentTable("T", ["time", "entries"])
    for (row, column), value in cells.items():
        table.set(row, column, value)
    return table


def test_baseline_roundtrip(tmp_path):
    table = _table({("GO", "time"): 0.5, ("GO", "entries"): 120.0})
    table.set("TW", "time", Cell.timeout())
    path = save_baseline("fig5", [table], tmp_path / "fig5.json")
    doc = load_baseline(path)
    assert doc["experiment"] == "fig5"
    assert doc["metrics"]["T/GO/time"] == 0.5
    assert doc["metrics"]["T/TW/time"] == {"marker": "INF"}
    comparison = compare_to_baseline(doc, [table])
    assert comparison.ok
    assert comparison.checked == 3


def test_gate_fails_and_names_metric_on_perturbation(tmp_path):
    table = _table({("GO", "time"): 1.0})
    doc = load_baseline(save_baseline("x", [table], tmp_path / "x.json"))
    worse = _table({("GO", "time"): 1.5})
    comparison = compare_to_baseline(doc, [worse], threshold=0.1)
    assert not comparison.ok
    assert "T/GO/time" in comparison.failures[0]
    assert "regressed" in comparison.failures[0]
    better = _table({("GO", "time"): 0.5})
    comparison = compare_to_baseline(doc, [better], threshold=0.1)
    assert not comparison.ok
    assert "improved" in comparison.failures[0]


def test_gate_tolerates_within_threshold(tmp_path):
    table = _table({("GO", "time"): 1.0})
    doc = load_baseline(save_baseline("x", [table], tmp_path / "x.json"))
    near = _table({("GO", "time"): 1.05})
    assert compare_to_baseline(doc, [near], threshold=0.1).ok
    assert not compare_to_baseline(doc, [near], threshold=0.01).ok


def test_gate_marker_transitions_fail():
    table = _table({("GO", "time"): 1.0})
    table.set("TW", "time", Cell.timeout())
    doc = baseline_from_tables("x", [table])
    # value -> INF: the worst regression of all.
    now = _table({("GO", "time"): Cell.timeout()})
    now.set("TW", "time", Cell.timeout())
    comparison = compare_to_baseline(doc, [now])
    assert any("marker changed" in f for f in comparison.failures)
    # INF -> value without re-saving also fails (prove it on purpose).
    now = _table({("GO", "time"): 1.0, ("TW", "time"): 0.5})
    comparison = compare_to_baseline(doc, [now])
    assert any("marker changed" in f for f in comparison.failures)


def test_gate_missing_and_new_metrics(tmp_path):
    doc = baseline_from_tables("x", [_table({("GO", "time"): 1.0})])
    grown = _table({("GO", "time"): 1.0, ("GO", "entries"): 5.0})
    comparison = compare_to_baseline(doc, [grown])
    assert comparison.ok
    assert comparison.new_metrics == ["T/GO/entries"]
    assert "new metric(s)" in comparison.render()
    shrunk = ExperimentTable("T", ["time"])
    comparison = compare_to_baseline(doc, [shrunk])
    assert not comparison.ok
    assert "missing from the current run" in comparison.failures[0]


def test_gate_zero_baseline_requires_zero():
    doc = baseline_from_tables("x", [_table({("GO", "time"): 0.0})])
    assert compare_to_baseline(doc, [_table({("GO", "time"): 0.0})]).ok
    assert not compare_to_baseline(doc, [_table({("GO", "time"): 1e-9})]).ok


def test_load_baseline_errors(tmp_path):
    with pytest.raises(BaselineError, match="--save-baseline"):
        load_baseline(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(BaselineError, match="not valid JSON"):
        load_baseline(bad)
    bad.write_text('{"some": "json"}')
    with pytest.raises(BaselineError, match="no 'metrics'"):
        load_baseline(bad)
    bad.write_text('{"version": 99, "metrics": {}}')
    with pytest.raises(BaselineError, match="version"):
        load_baseline(bad)


def test_negative_threshold_rejected():
    doc = baseline_from_tables("x", [_table({("GO", "time"): 1.0})])
    with pytest.raises(ValueError):
        compare_to_baseline(doc, [_table({("GO", "time"): 1.0})], threshold=-1)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_non_finite_threshold_rejected(threshold):
    doc = baseline_from_tables("x", [_table({("GO", "time"): 1.0})])
    with pytest.raises(ValueError, match="finite"):
        compare_to_baseline(doc, [_table({("GO", "time"): 2.0})], threshold=threshold)


def test_default_baseline_path():
    path = default_baseline_path("fig5")
    assert path.as_posix() == "benchmarks/baselines/fig5.json"


def test_committed_fig5_baseline_is_loadable():
    """The repo ships a fig5 baseline for CI; it must stay parseable."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines" / "fig5.json"
    doc = load_baseline(path)
    assert doc["experiment"] == "fig5"
    assert len(doc["metrics"]) >= 30


def test_save_baseline_atomic_and_sorted(tmp_path):
    path = save_baseline(
        "x", [_table({("GO", "time"): 1.0})], tmp_path / "sub" / "x.json"
    )
    assert path.exists()
    text = path.read_text()
    assert json.loads(text)  # valid
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
