"""Golden-file tests for ``repro top``'s console view and JSON snapshot.

Both are deterministic for a given trace, so the whole output of
``repro top --once`` (``render()``) and ``repro top --once --json``
(``to_json()``) is pinned byte for byte.  The trace's arrivals spread
over the run, so several windows hold traffic.  To regenerate after an
intentional format change::

    PYTHONPATH=src python tests/test_observe_top.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.observe.dashboard import DashboardModel
from repro.telemetry.reader import Trace

TEXT_GOLDEN = Path(__file__).parent / "data" / "top.txt"
JSON_GOLDEN = Path(__file__).parent / "data" / "top.json"


def _synthetic_records() -> list[dict]:
    """A tiny hand-built trace: reads of every outcome and cache / store
    path, writes of every mutation status, a failover and a lag sample,
    arriving one microsecond apart."""

    def request(trace_id, arrival, outcome, latency, stages, **attrs):
        return {
            "kind": "event",
            "name": "serve.request",
            "attrs": {
                "trace_id": trace_id,
                "source": len(stages),
                "target": int(arrival * 1e6),
                "outcome": outcome,
                "arrival": arrival,
                "latency_seconds": latency,
                "stages": stages,
                **attrs,
            },
        }

    def stage(name, seconds=2.5e-8, **attrs):
        return {"stage": name, "seconds": seconds, **attrs}

    admitted = stage("admission", 1e-7)
    return [
        request("t-01", 0.0, "served", 2e-6, [
            admitted,
            stage("cache", hit=False),
            stage("store", 2e-6, home=0, entries=2),
            stage("backend", answer=True),
        ]),
        request("t-02", 1e-6, "served", 5e-7, [
            admitted,
            stage("cache", hit=True),
            stage("backend", answer=False),
        ]),
        request("t-03", 2e-6, "served", 8e-6, [
            admitted,
            stage("cache", hit=False),
            stage("store", 7e-6, home=1, remote=0, lag=2),
            stage("backend", answer=True),
        ]),
        request("w-01", 2.5e-6, "served", 1.5e-6, [
            admitted,
            stage("mutation", 1.4e-6, status="applied"),
        ], op="insert"),
        request("t-04", 3e-6, "served", 1e-6, [
            admitted,
            stage("cache", hit=False),
            stage("store", 8e-7, home=1, hedge_won=True),
            stage("backend", answer=False),
        ]),
        request("t-05", 4e-6, "served", 3e-6, [
            admitted,
            stage("cache", hit=False),
            stage("store", 1e-6, home=0, lag=5),
            stage("catchup", 1.5e-6, ops=5),
            stage("backend", answer=True),
        ]),
        request("t-06", 5e-6, "shed", 0.0, [], reason="queue_full"),
        request("t-07", 6e-6, "deadline", 0.0, []),
        request("w-02", 6.5e-6, "served", 2e-6, [
            admitted,
            stage("mutation", 1.9e-6, status="noop"),
        ], op="delete"),
        request("t-08", 7e-6, "error", 0.0, [], reason="shard_down"),
        request("t-09", 8e-6, "served", 4e-6, [
            admitted,
            stage("cache", hit=False),
            stage("store", 1e-6, home=0, lag=3),
            stage("confirm", 2.5e-6, ops=3),
            stage("backend", answer=True),
        ]),
        request("t-10", 9e-6, "served", 6e-7, [
            admitted,
            stage("cache", hit=True),
            stage("backend", answer=True),
        ]),
        request("w-03", 9.5e-6, "shed", 0.0, [], op="insert"),
        request("t-11", 1e-5, "served", 2e-6, [
            admitted,
            stage("cache", hit=False),
            stage("store", 1.5e-6, home=1),
            stage("backend", answer=False),
        ]),
        request("w-04", 1.05e-5, "served", 1e-6, [
            admitted,
            stage("mutation", 9e-7, status="rejected"),
        ], op="insert"),
        {"kind": "event", "name": "serve.failover",
         "attrs": {"shard": 0, "from_replica": 0, "to_replica": 1}},
        {"kind": "event", "name": "replica.lag",
         "attrs": {"lag": 5, "groups": {"0": 5, "1": 2}, "version": 5}},
    ]


def _model() -> DashboardModel:
    return DashboardModel.from_trace(Trace(_synthetic_records()))


def _text() -> str:
    return _model().render() + "\n"


def _json() -> str:
    return json.dumps(_model().to_json(), indent=2) + "\n"


def test_render_matches_golden_file():
    assert _text() == TEXT_GOLDEN.read_text(encoding="utf-8")


def test_to_json_matches_golden_file():
    assert _json() == JSON_GOLDEN.read_text(encoding="utf-8")


def test_the_trace_fills_several_windows():
    windows = _model().windows
    assert sum(row.offered > 0 for row in windows) > 1


def test_top_once_prints_the_goldens(tmp_path, capsys):
    path = tmp_path / "serve.jsonl"
    path.write_text(
        "\n".join(json.dumps(record) for record in _synthetic_records()) + "\n"
    )
    assert main(["top", str(path), "--once"]) == 0
    assert capsys.readouterr().out == TEXT_GOLDEN.read_text(encoding="utf-8")
    assert main(["top", str(path), "--once", "--json"]) == 0
    assert capsys.readouterr().out == JSON_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    TEXT_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    TEXT_GOLDEN.write_text(_text(), encoding="utf-8")
    JSON_GOLDEN.write_text(_json(), encoding="utf-8")
    print(f"wrote {TEXT_GOLDEN} and {JSON_GOLDEN}")
