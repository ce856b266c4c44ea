"""Tests for the window detectors (the windows' own rate and EWMA are
``tests/test_observe_dashboard.py``'s)."""

import pytest

from repro.observe.windows import (
    HotKeyDetector,
    LatencyRegressionDetector,
)


class TestHotKeyDetector:
    def test_flags_only_dominant_keys(self):
        detector = HotKeyDetector(share_threshold=0.25, min_count=10)
        counts = {"hot": 60, "warm": 25, "cold": 15}
        hot = detector.observe(counts)
        assert [h.key for h in hot] == ["hot", "warm"]
        assert hot[0].share == 0.6

    def test_min_count_suppresses_tiny_windows(self):
        detector = HotKeyDetector(share_threshold=0.25, min_count=10)
        assert detector.observe({"a": 2, "b": 1}) == []

    def test_empty_window(self):
        assert HotKeyDetector().observe({}) == []

    def test_empty_window_with_zero_counts(self):
        # All-zero counts are an empty window too: total 0 must not
        # divide, and no key can be "100% of nothing".
        assert HotKeyDetector().observe({"a": 0, "b": 0}) == []

    def test_deterministic_tie_break(self):
        detector = HotKeyDetector(share_threshold=0.1, min_count=10)
        hot = detector.observe({"b": 50, "a": 50})
        assert [h.key for h in hot] == ["a", "b"]


class TestLatencyRegressionDetector:
    def test_flags_after_warmup_only(self):
        detector = LatencyRegressionDetector(factor=2.0, warmup=3)
        assert detector.observe(1.0) is False
        assert detector.observe(1.0) is False
        assert detector.observe(1.0) is False
        assert detector.observe(5.0) is True  # past warmup, 5x the baseline

    def test_regression_not_folded_into_baseline(self):
        detector = LatencyRegressionDetector(factor=2.0, warmup=1)
        detector.observe(1.0)
        detector.observe(1.0)
        baseline = detector.baseline
        assert detector.observe(100.0) is True
        assert detector.baseline == baseline  # spike kept out of the EWMA
        assert detector.observe(100.0) is True  # sustained: keeps firing

    def test_normal_values_track_baseline(self):
        detector = LatencyRegressionDetector(alpha=0.5, warmup=1)
        detector.observe(1.0)
        detector.observe(2.0)
        assert detector.baseline == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyRegressionDetector(factor=1.0)
        with pytest.raises(ValueError):
            LatencyRegressionDetector(warmup=0)
