"""Golden-file test for ``repro top --openmetrics``.

The exposition is deterministic for a given trace — fixed family
order, ``repr`` floats — so the whole output is pinned byte for byte.
To regenerate after an intentional format change::

    PYTHONPATH=src python tests/test_observe_openmetrics.py
"""

from __future__ import annotations

from pathlib import Path

from repro.observe.dashboard import DashboardModel
from repro.observe.openmetrics import render_openmetrics
from repro.telemetry.reader import Trace

GOLDEN = Path(__file__).parent / "data" / "top.openmetrics"


def _synthetic_records() -> list[dict]:
    """A tiny hand-built trace exercising every exported family."""

    def request(trace_id, outcome, latency, stages):
        return {
            "kind": "event",
            "name": "serve.request",
            "attrs": {
                "trace_id": trace_id,
                "outcome": outcome,
                "arrival": 0.0,
                "latency_seconds": latency,
                "stages": stages,
            },
        }

    return [
        request("t-1", "served", 2e-6, [
            {"stage": "admission"},
            {"stage": "cache", "hit": False},
            {"stage": "store", "home": 0, "lag": 3},
            {"stage": "confirm", "ops": 3},
            {"stage": "backend", "answer": True},
        ]),
        request("t-2", "served", 5e-7, [
            {"stage": "admission"},
            {"stage": "cache", "hit": True},
            {"stage": "backend", "answer": False},
        ]),
        request("t-3", "served", 8e-6, [
            {"stage": "admission"},
            {"stage": "cache", "hit": False},
            {"stage": "store", "home": 1, "remote": 0, "lag": 2},
            {"stage": "backend", "answer": True},
        ]),
        request("t-4", "served", 1e-6, [
            {"stage": "admission"},
            {"stage": "cache", "hit": False},
            {"stage": "store", "home": 1, "hedge_won": True},
            {"stage": "backend", "answer": False},
        ]),
        request("t-5", "served", 3e-6, [
            {"stage": "admission"},
            {"stage": "cache", "hit": False},
            {"stage": "store", "home": 0, "lag": 5},
            {"stage": "catchup", "ops": 5},
            {"stage": "backend", "answer": True},
        ]),
        request("t-6", "shed", 0.0, []),
        request("t-7", "deadline", 0.0, []),
        request("t-8", "error", 0.0, []),
        {"kind": "event", "name": "serve.failover",
         "attrs": {"shard": 0, "from_replica": 0, "to_replica": 1}},
        {"kind": "event", "name": "replica.lag",
         "attrs": {"lag": 5, "groups": {"1": 5}, "version": 5}},
    ]


def _model() -> DashboardModel:
    return DashboardModel.from_trace(Trace(_synthetic_records()))


def test_openmetrics_matches_golden_file():
    assert render_openmetrics(_model()) == GOLDEN.read_text(encoding="utf-8")


def test_openmetrics_is_well_formed():
    text = render_openmetrics(_model())
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    assert text.endswith("# EOF\n")
    # Every sample line belongs to a declared family.
    declared = {line.split()[2] for line in lines if line.startswith("# TYPE")}
    for line in lines:
        if line.startswith("#"):
            continue
        name = line.split("{")[0].split()[0]
        base = name
        for suffix in ("_total", "_bucket", "_count", "_sum"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        assert base in declared, line

    # The histogram is cumulative and consistent with its count.
    buckets = [
        int(line.split()[-1])
        for line in lines
        if line.startswith("repro_serve_latency_seconds_bucket")
    ]
    assert buckets == sorted(buckets)
    count = next(
        int(line.split()[-1])
        for line in lines
        if line.startswith("repro_serve_latency_seconds_count")
    )
    assert buckets[-1] == count == 5


def test_openmetrics_counts_reflect_the_trace():
    text = render_openmetrics(_model())
    expected = {
        "repro_serve_requests_total 8",
        "repro_serve_served_total 5",
        "repro_serve_shed_total 1",
        "repro_serve_deadline_dropped_total 1",
        "repro_serve_failed_total 1",
        "repro_serve_failovers_total 1",
        "repro_serve_positives_total 3",
        "repro_serve_cache_hits_total 1",
        "repro_serve_cache_misses_total 4",
        "repro_serve_store_fetches_total 4",
        "repro_serve_remote_fetches_total 1",
        "repro_serve_confirmed_reads_total 1",
        "repro_serve_stale_reads_total 1",
        "repro_serve_forced_catchups_total 1",
        "repro_serve_hedges_won_total 1",
        "repro_serve_replication_lag_peak 5",
    }
    lines = set(text.splitlines())
    missing = expected - lines
    assert not missing, f"missing samples: {sorted(missing)}"


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render_openmetrics(_model()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
