"""Tests for the declarative SLO engine and burn-rate alerts."""

import json

import pytest

from repro.observe.slo import (
    BurnTracker,
    BurnWindow,
    SLOSpec,
    default_windows,
    evaluate_slo,
    evaluate_slos,
    load_slo_specs,
)


class _Request:
    def __init__(self, arrival, outcome="served", latency_seconds=0.0):
        self.arrival = arrival
        self.outcome = outcome
        self.latency_seconds = latency_seconds


def _availability(target=0.9, windows=()):
    return SLOSpec("avail", "availability", target, windows=tuple(windows))


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SLOSpec("x", "throughput", 0.9)
        with pytest.raises(ValueError, match="target"):
            SLOSpec("x", "availability", 1.0)
        with pytest.raises(ValueError, match="threshold"):
            SLOSpec("x", "latency", 0.9)
        with pytest.raises(ValueError):
            BurnWindow(1.0, 2.0, 14.4)  # short > long
        with pytest.raises(ValueError):
            BurnWindow(1.0, 0.5, 0.0)

    def test_good_request_predicates(self):
        avail = _availability()
        assert avail.is_good("served", 100.0)
        assert not avail.is_good("shed", 0.0)
        assert not avail.is_good("deadline", 0.0)
        lat = SLOSpec("p99", "latency", 0.99, threshold_seconds=1e-3)
        assert lat.is_good("served", 1e-4)
        assert not lat.is_good("served", 1e-2)
        assert not lat.is_good("shed", 0.0)

    def test_budget(self):
        assert _availability(0.999).budget == pytest.approx(0.001)

    def test_round_trip(self):
        spec = SLOSpec(
            "p99", "latency", 0.99, threshold_seconds=1e-3,
            windows=(BurnWindow(10.0, 1.0, 14.4, "page"),),
        )
        again = SLOSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            SLOSpec.from_dict({"name": "x", "kind": "availability"})

    def test_load_specs_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": [
            {"name": "a", "kind": "availability", "target": 0.9},
        ]}))
        specs = load_slo_specs(path)
        assert [s.name for s in specs] == ["a"]
        path.write_text(json.dumps([]))
        with pytest.raises(ValueError, match="non-empty"):
            load_slo_specs(path)

    def test_default_windows_scale_with_span(self):
        page, ticket = default_windows(720.0)
        assert page.long_seconds == pytest.approx(24.0)
        assert page.short_seconds == pytest.approx(1.0)
        assert page.burn_threshold == 14.4
        assert ticket.severity == "ticket"


class TestEvaluation:
    def test_compliance_and_budget(self):
        spec = _availability(target=0.9)
        requests = [_Request(i / 10) for i in range(90)]
        requests += [_Request(9 + i / 10, outcome="shed") for i in range(10)]
        status = evaluate_slo(spec, requests)
        assert status.total == 100
        assert status.good == 90
        assert status.compliance == pytest.approx(0.9)
        assert status.budget_consumed == pytest.approx(1.0)  # exactly spent

    def test_no_traffic_is_compliant(self):
        status = evaluate_slo(_availability(), [])
        assert status.compliance == 1.0
        assert status.budget_consumed == 0.0
        assert status.ok

    def test_alert_fires_when_both_windows_burn(self):
        window = BurnWindow(10.0, 1.0, burn_threshold=2.0)
        spec = _availability(target=0.9, windows=[window])
        # Bad traffic throughout: both windows see 100% bad => burn 10.
        requests = [
            _Request(i * 0.1, outcome="shed") for i in range(100)
        ]
        status = evaluate_slo(spec, requests)
        (burn,) = status.burn_rates
        assert burn.long_burn == pytest.approx(10.0)
        assert burn.short_burn == pytest.approx(10.0)
        assert burn.firing
        assert not status.ok

    def test_alert_needs_the_short_window_too(self):
        window = BurnWindow(10.0, 1.0, burn_threshold=2.0)
        spec = _availability(target=0.9, windows=[window])
        # An old incident: bad requests early, clean recent traffic.
        requests = [_Request(i * 0.1, outcome="shed") for i in range(50)]
        requests += [_Request(5 + i * 0.1) for i in range(50)]
        status = evaluate_slo(spec, requests, end_time=9.9)
        (burn,) = status.burn_rates
        assert burn.long_burn > 2.0     # the long window still remembers
        assert burn.short_burn == 0.0   # the short window has drained
        assert not burn.firing          # so the alert has cleared
        assert status.ok

    def test_firing_then_clearing_over_time(self):
        window = BurnWindow(4.0, 0.5, burn_threshold=2.0)
        spec = _availability(target=0.9, windows=[window])
        requests = [_Request(i * 0.1, outcome="shed") for i in range(20)]
        requests += [_Request(2 + i * 0.1) for i in range(60)]
        during = evaluate_slo(spec, requests, end_time=1.9)
        after = evaluate_slo(spec, requests, end_time=6.0)
        assert during.burn_rates[0].firing
        assert not after.burn_rates[0].firing

    def test_empty_window_burn_is_zero(self):
        window = BurnWindow(10.0, 1.0, burn_threshold=2.0)
        spec = _availability(windows=[window])
        requests = [_Request(0.0, outcome="shed")]
        status = evaluate_slo(spec, requests, end_time=100.0)
        assert status.burn_rates[0].short_burn == 0.0
        assert status.burn_rates[0].long_burn == 0.0

    def test_latency_slo_counts_slow_as_bad(self):
        spec = SLOSpec("p99", "latency", 0.5, threshold_seconds=1.0)
        requests = [
            _Request(0.0, latency_seconds=0.5),
            _Request(1.0, latency_seconds=2.0),
        ]
        status = evaluate_slo(spec, requests)
        assert status.good == 1
        assert status.bad == 1

    def test_evaluate_slos_and_serialization(self):
        specs = [
            _availability(windows=[BurnWindow(10.0, 1.0, 2.0)]),
            SLOSpec("p99", "latency", 0.99, threshold_seconds=1e-3),
        ]
        requests = [_Request(i * 0.1) for i in range(50)]
        statuses = evaluate_slos(specs, requests)
        assert len(statuses) == 2
        payload = statuses[0].to_dict()
        assert payload["slo"] == "avail"
        assert payload["ok"] is True
        assert payload["alerts"][0]["firing"] is False
        assert "OK" in statuses[0].summary()


def _observe(tracker, spec, at, outcome, latency_seconds):
    tracker.add(at, spec.is_good(outcome, latency_seconds))
    return tracker.read(at)


def test_burn_trigger_needs_both_windows_over_threshold():
    # The online read: one BurnTracker, read after every request.
    spec = SLOSpec(name="avail", kind="availability", target=0.999)
    tracker = BurnTracker(BurnWindow(1.0, 0.1, 14.4), spec.budget)
    # Healthy traffic: never fires.
    for i in range(50):
        assert not _observe(tracker, spec, i * 0.01, "served", 1e-6).firing
    # A shed burst pushes both windows over burn 14.4 at budget 0.001.
    burn = None
    for i in range(50, 60):
        reading = _observe(tracker, spec, i * 0.01, "shed", 0.0)
        burn = reading if reading.firing else burn
    assert burn is not None
    assert burn.long_burn > 14.4
    assert burn.short_burn > 14.4
    # One shed request after a long healthy stretch burns the short
    # window only: the long window keeps the alert quiet.
    tracker = BurnTracker(BurnWindow(1.0, 0.1, 14.4), spec.budget)
    for i in range(150):
        _observe(tracker, spec, i * 0.01, "served", 1e-6)
    reading = _observe(tracker, spec, 1.5, "shed", 0.0)
    assert reading.short_burn > 14.4
    assert reading.long_burn < 14.4
    assert not reading.firing
