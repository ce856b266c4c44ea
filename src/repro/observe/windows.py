"""Per-window detectors for the dashboard's windows.

A cumulative metric answers "how many requests *so far*", never "what
happened in the last window" — which is the question a dashboard asks.
:class:`~repro.observe.dashboard.DashboardModel` cuts a run into
windows (rate and EWMA rate are two lines of arithmetic there); the two
detectors here read one window at a time:

- :class:`HotKeyDetector` flags keys taking an outsized share of a
  window's traffic (a Zipf hot pair, a hammered shard);
- :class:`LatencyRegressionDetector` keeps an EWMA baseline of a
  windowed percentile and flags windows that blow past it, without
  polluting the baseline with the regression itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class HotKey:
    """One key flagged by :class:`HotKeyDetector`."""

    key: object
    count: int
    share: float


class HotKeyDetector:
    """Flags keys taking an outsized share of one window's traffic.

    A key is *hot* when it holds at least ``share_threshold`` of the
    window's total count and at least ``min_count`` absolute hits (so
    a two-request window cannot declare a 50% "hot key").
    """

    def __init__(self, share_threshold: float = 0.05, min_count: int = 10):
        if not 0 < share_threshold <= 1:
            raise ValueError("share_threshold must be in (0, 1]")
        if min_count < 1:
            raise ValueError("min_count must be positive")
        self.share_threshold = share_threshold
        self.min_count = min_count

    def observe(self, counts: Mapping[object, int]) -> list[HotKey]:
        """The hot keys of one window, hottest first (deterministic)."""
        total = sum(counts.values())
        if not total:
            return []
        hot = [
            HotKey(key, count, count / total)
            for key, count in counts.items()
            if count >= self.min_count and count / total >= self.share_threshold
        ]
        hot.sort(key=lambda h: (-h.count, str(h.key)))
        return hot


class LatencyRegressionDetector:
    """EWMA baseline over a windowed percentile; flags blow-ups.

    Feed it one value per window (e.g. the window's p99).  After
    ``warmup`` windows, a window whose value exceeds ``factor`` times
    the baseline is flagged — and deliberately *not* folded into the
    baseline, so a sustained regression keeps firing instead of
    becoming the new normal.
    """

    def __init__(self, factor: float = 2.0, alpha: float = 0.3, warmup: int = 3):
        if factor <= 1:
            raise ValueError("factor must exceed 1")
        if warmup < 1:
            raise ValueError("warmup must be positive")
        self.factor = factor
        self.alpha = alpha
        self.warmup = warmup
        self._baseline: float | None = None
        self._windows = 0

    @property
    def baseline(self) -> float | None:
        """The current EWMA baseline (None before the first window)."""
        return self._baseline

    def observe(self, value: float) -> bool:
        """Record one window's value; True when it is a regression."""
        self._windows += 1
        baseline = self._baseline
        flagged = (
            baseline is not None
            and self._windows > self.warmup
            and baseline > 0
            and value > self.factor * baseline
        )
        if baseline is None:
            self._baseline = value
        elif not flagged:
            self._baseline = self.alpha * value + (1 - self.alpha) * baseline
        return flagged
