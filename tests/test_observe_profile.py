"""Golden-file tests for the profile views of ``repro trace``.

The text report (with its skew report and critical path), the Chrome
trace-event JSON and the folded stacks are deterministic for a given
trace, so each is pinned byte for byte over one hand-built record list
whose wall stamps are set by hand.  To regenerate after an intentional format change::

    PYTHONPATH=src python tests/test_observe_profile.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observe.export import chrome_trace, folded_stacks
from repro.observe.report import summarize_trace
from repro.telemetry.reader import Trace

DATA = Path(__file__).parent / "data"
GOLDEN_REPORT = DATA / "profile.txt"
GOLDEN_CHROME = DATA / "profile.chrome.json"
GOLDEN_FOLDED = DATA / "profile.folded"


def _node(wall, superstep, node, units, compute, comm, wait):
    return {
        "kind": "event", "name": "pregel.node", "span": 3, "wall": wall,
        "attrs": {
            "superstep": superstep, "node": node, "units": units,
            "compute_seconds": compute, "comm_seconds": comm,
            "barrier_wait_seconds": wait, "barrier_seconds": 0.001,
            "recv_bytes": 8 * units,
        },
    }


def _event(name, wall, **attrs):
    return {"kind": "event", "name": name, "span": 3, "wall": wall,
            "attrs": attrs}


def _span(span_id, parent, name, start, wall, simulated, status="ok", **attrs):
    return {
        "kind": "span", "name": name, "id": span_id, "parent": parent,
        "start": start, "wall_seconds": wall, "simulated_seconds": simulated,
        "status": status, "attrs": attrs,
    }


def _records() -> list[dict]:
    """Two chained runs on three nodes (node 2 a 3x straggler: three
    times the seconds per unit); spans arrive as they close, children
    first."""
    return [
        _node(100.11, 1, 0, 10, 0.010, 0.002, 0.018),
        _node(100.11, 1, 1, 12, 0.012, 0.003, 0.015),
        _node(100.11, 1, 2, 10, 0.030, 0.0, 0.0),
        _event("pregel.superstep", 100.11, superstep=1, active_vertices=30,
               compute_units=32, max_node_units=12),
        _node(100.15, 2, 0, 5, 0.005, 0.001, 0.009),
        _node(100.15, 2, 1, 4, 0.004, 0.001, 0.010),
        _node(100.15, 2, 2, 5, 0.015, 0.0, 0.0),
        _span(3, 2, "pregel.run", 100.1, 0.15, 0.45, supersteps=2),
        _span(2, 1, "drl_b.batch", 100.1, 0.2, 0.5, batch=0),
        _node(100.32, 1, 0, 8, 0.008, 0.004, 0.012),
        _node(100.32, 1, 1, 20, 0.020, 0.004, 0.0),
        _node(100.32, 1, 2, 2, 0.006, 0.002, 0.016),
        _span(5, 4, "pregel.run", 100.31, 0.17, 0.25, supersteps=1),
        _span(4, 1, "drl_b.batch", 100.3, 0.2, 0.3, batch=1),
        _span(6, 1, "index.assemble", 100.5, 0.05, 0.05),
        _span(1, None, "drl_b.build", 100.05, 0.5, 0.9, vertices=30),
        _span(7, None, "io.write", 100.56, 0.01, 0.0, status="error"),
    ]


def _renders() -> tuple[str, str, str]:
    trace = Trace(_records())
    folded = folded_stacks(trace)
    return (
        summarize_trace(trace) + "\n",
        json.dumps(chrome_trace(trace), indent=1) + "\n",
        "\n".join(folded) + "\n",
    )


def test_profile_report_matches_golden_file():
    assert _renders()[0] == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_chrome_trace_matches_golden_file():
    assert _renders()[1] == GOLDEN_CHROME.read_text(encoding="utf-8")


def test_folded_stacks_match_golden_file():
    assert _renders()[2] == GOLDEN_FOLDED.read_text(encoding="utf-8")


def test_a_root_without_seconds_shares_its_childrens_run():
    # A CLI command's span carries no simulated seconds; "of run" is then
    # a share of what its children ran, not of the heaviest child.
    trace = Trace([
        _span(2, 1, "bench.cell", 100.1, 0.2, 0.3),
        _span(3, 1, "bench.cell", 100.3, 0.1, 0.1),
        _span(1, None, "cli.bench", 100.0, 0.5, 0.0),
    ])
    report = summarize_trace(trace)
    assert "cli.bench: 0.000000s (0% of run)" in report
    assert "  bench.cell: 0.300000s (75% of run)" in report


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    DATA.mkdir(parents=True, exist_ok=True)
    for path, text in zip((GOLDEN_REPORT, GOLDEN_CHROME, GOLDEN_FOLDED),
                          _renders()):
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
