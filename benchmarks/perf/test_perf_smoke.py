"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest benchmarks/perf -q

Runs every workload at a tenth of its size through the same functions
the real runs use, and holds ``BENCHMARK.json`` to what they emit.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import pytest

import run

assert run.add_source_path(), "src/repro is missing"

import harness  # noqa: E402  (needs the source path)
from repro.serve.store import ShardedLabelStore  # noqa: E402

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_manifest_keeps_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert MANIFEST["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    workloads = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
    assert tuple(workloads) == run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    assert all(len(why) <= 200 and "\n" not in why for why in workloads.values())
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += list(workloads)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_declared_metric_is_emitted(workload, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = harness.run_workload(
        workload, seed=3, seconds=0.2, trace=trace, root=run.ROOT, scale=0.1
    )
    assert result.check.correct, result.check.failures
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result.metrics) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result.metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
    line = json.loads(result.line)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    if trace:
        spans = json.loads((tmp_path / ".bench_out" / f"trace-{workload}.json").read_text())
        assert len(spans["name"]) == len(spans["start_ns"]) == len(spans["parent"])
        assert "serve.cache.hot" in spans["names"]


def test_a_wrong_answer_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(
        harness.WORKLOADS, "build_web", harness.WORKLOADS["build_web"].scaled(0.1)
    )
    fetch = ShardedLabelStore.fetch
    calls = itertools.count()

    def lying(self, s, t):
        answer, seconds = fetch(self, s, t)
        return (not answer if next(calls) == 0 else answer), seconds

    monkeypatch.setattr(ShardedLabelStore, "fetch", lying)
    code = run.main(["--workload", "build_web", "--seed", "3", "--seconds", "0.2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED serve_hot_rps" in out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
