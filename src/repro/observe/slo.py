"""Declarative SLOs: specs, error budgets, burn-rate alerts.

An SLO turns "the p99 looks fine" into a contract: *a target fraction
of requests must be good*, where *good* is defined by the spec's kind:

- ``availability`` — a request is good when it was **served** (shed
  and deadline-dropped requests are the bad events);
- ``latency`` — a request is good when it was served **within**
  ``threshold_seconds`` (a slow answer and no answer are equally bad).

The complement of the target is the **error budget**: a 99.9%
availability SLO tolerates 0.1% bad requests.  The interesting
operational quantity is the **burn rate** — how fast a window of
traffic consumes that budget:

    burn = (bad fraction in window) / (1 - target)

Burn 1.0 spends exactly the whole budget over the SLO period; burn
14.4 exhausts a 30-day budget in 50 hours — the classic "page now"
threshold.  Alerts here follow the SRE multi-window pattern: an alert
**fires** only when *both* a long and a short window exceed the burn
threshold (the long window gives significance, the short window makes
the alert reset quickly once the bad traffic ends), and **clears** as
soon as the short window drains.

One :class:`BurnTracker` prices every burn; :func:`evaluate_slo` feeds
it a finished trace.

Everything evaluates over ``serve.request`` traces on the simulated
clock, so alert behaviour is deterministic and replayable from a JSONL
export — `repro top --slo spec.json` is the consumer.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import check_seconds

#: Spec kinds and their good-request predicates (documented above).
KINDS = ("availability", "latency")


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate alert policy."""

    long_seconds: float
    short_seconds: float
    burn_threshold: float
    severity: str = "page"

    def __post_init__(self):
        check_seconds("long_seconds", self.long_seconds, positive=True)
        check_seconds("short_seconds", self.short_seconds, positive=True)
        check_seconds("burn_threshold", self.burn_threshold, positive=True)
        if self.short_seconds > self.long_seconds:
            raise ValueError("short window must not exceed the long window")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BurnWindow":
        return cls(
            long_seconds=float(data["long_seconds"]),
            short_seconds=float(data["short_seconds"]),
            burn_threshold=float(data["burn_threshold"]),
            severity=str(data.get("severity", "page")),
        )


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective.

    ``target`` is the good-request fraction in (0, 1); ``windows``
    lists the burn-rate alert policies (empty: sensible defaults are
    derived from the trace's span at evaluation time).
    """

    name: str
    kind: str
    target: float
    threshold_seconds: float | None = None
    windows: tuple[BurnWindow, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r} (use {KINDS})")
        if not 0 < self.target < 1:
            raise ValueError("target must be strictly between 0 and 1")
        if self.kind == "latency":  # None is refused like NaN
            check_seconds("threshold_seconds", self.threshold_seconds, positive=True)

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-request fraction."""
        return 1.0 - self.target

    def is_good(self, outcome: str, latency_seconds: float) -> bool:
        """Whether one finished request counts toward the objective."""
        if outcome != "served":
            return False
        if self.kind == "latency":
            return latency_seconds <= self.threshold_seconds
        return True

    def to_dict(self) -> dict:
        record = {"name": self.name, "kind": self.kind, "target": self.target}
        if self.threshold_seconds is not None:
            record["threshold_seconds"] = self.threshold_seconds
        if self.windows:
            record["windows"] = [w.to_dict() for w in self.windows]
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "SLOSpec":
        if not isinstance(data, dict):
            raise ValueError(f"an SLO spec must be a JSON object, got {data!r}")
        try:
            return cls(
                name=str(data["name"]),
                kind=str(data["kind"]),
                target=float(data["target"]),
                threshold_seconds=(
                    float(data["threshold_seconds"])
                    if data.get("threshold_seconds") is not None
                    else None
                ),
                windows=tuple(
                    BurnWindow.from_dict(w) for w in data.get("windows", ())
                ),
            )
        except KeyError as exc:
            raise ValueError(f"SLO spec missing field {exc.args[0]!r}") from exc
        except TypeError as exc:  # a null number, a window that is no object
            raise ValueError(f"SLO spec {data.get('name')!r}: {exc}") from exc


def load_slo_specs(path: str | Path) -> list[SLOSpec]:
    """Parse a spec file: ``{"slos": [...]}`` or a bare JSON list."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = data.get("slos", [])
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty list of SLO specs")
    return [SLOSpec.from_dict(item) for item in data]


def default_windows(span_seconds: float) -> tuple[BurnWindow, ...]:
    """Burn policies scaled to the trace's span, for window-less specs.

    Real deployments alert on (1h, 5m, 14.4×) and (6h, 30m, 6×)
    against a 30-day budget; a simulated run's "month" is its whole
    span, so the same 1/720 and 1/120 ratios are applied to it.
    """
    span = max(span_seconds, 1e-12)
    return (
        BurnWindow(span / 30, span / 720, 14.4, severity="page"),
        BurnWindow(span / 5, span / 120, 6.0, severity="ticket"),
    )


@dataclass(frozen=True)
class BurnRate:
    """One alert policy's evaluated burn rates."""

    window: BurnWindow
    long_burn: float
    short_burn: float

    @property
    def firing(self) -> bool:
        threshold = self.window.burn_threshold
        return self.long_burn > threshold and self.short_burn > threshold


class BurnTracker:
    """One policy's burn rates over a stream of ``(arrival, good)`` samples.

    :meth:`read` first drops, from each window's oldest end, the samples
    at or before ``end`` minus its length, then prices the rest as
    ``(bad / n) / budget`` — 0.0 for an empty window.  Fed in
    arrival order, a window read at ``end`` holds exactly the samples
    with ``end - length < t <= end``.
    """

    def __init__(self, window: BurnWindow, budget: float):
        self.window = window
        self.budget = budget
        # The long window, then the short one: length, samples, bad count.
        self._lengths = (window.long_seconds, window.short_seconds)
        self._samples: tuple[deque, deque] = (deque(), deque())
        self._bad = [0, 0]

    def add(self, at: float, good: bool) -> None:
        """Account one finished request at its arrival time."""
        for samples in self._samples:
            samples.append((at, good))
        if not good:
            self._bad = [bad + 1 for bad in self._bad]

    def read(self, end: float) -> BurnRate:
        """Both windows' burn rates, the windows ending at ``end``."""
        burns = []
        for i, (length, samples) in enumerate(zip(self._lengths, self._samples)):
            cutoff = end - length
            while samples and samples[0][0] <= cutoff:
                if not samples.popleft()[1]:
                    self._bad[i] -= 1
            n = len(samples)
            burns.append((self._bad[i] / n) / self.budget if n else 0.0)
        return BurnRate(self.window, *burns)


@dataclass(frozen=True)
class SLOStatus:
    """One spec's verdict over a set of request traces."""

    spec: SLOSpec
    total: int
    good: int
    bad: int
    compliance: float        # good / total (1.0 when no traffic)
    budget_consumed: float   # (bad fraction) / budget; >1 = blown
    burn_rates: tuple[BurnRate, ...]

    @property
    def firing(self) -> tuple[BurnRate, ...]:
        return tuple(b for b in self.burn_rates if b.firing)

    @property
    def ok(self) -> bool:
        """True when no burn-rate alert is firing."""
        return not self.firing

    def to_dict(self) -> dict:
        return {
            "slo": self.spec.name,
            "kind": self.spec.kind,
            "target": self.spec.target,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "compliance": self.compliance,
            "budget_consumed": self.budget_consumed,
            "ok": self.ok,
            "alerts": [
                {
                    "severity": b.window.severity,
                    "long_burn": b.long_burn,
                    "short_burn": b.short_burn,
                    "burn_threshold": b.window.burn_threshold,
                    "firing": b.firing,
                }
                for b in self.burn_rates
            ],
        }

    def summary(self) -> str:
        """One human-readable line per spec."""
        state = "OK"
        for burn in self.burn_rates:
            if burn.firing:
                state = burn.window.severity.upper()
                break
        worst = max(
            (b.long_burn for b in self.burn_rates), default=0.0
        )
        return (
            f"{self.spec.name}: {state}  compliance {self.compliance:.4%} "
            f"(target {self.spec.target:.4%})  budget used "
            f"{self.budget_consumed:.1%}  worst burn {worst:.1f}x"
        )


def evaluate_slo(
    spec: SLOSpec,
    requests: Sequence,
    end_time: float | None = None,
) -> SLOStatus:
    """Evaluate one spec over finished request traces.

    ``requests`` need ``outcome``, ``arrival``, and ``latency_seconds``
    attributes (e.g. :class:`repro.telemetry.spans.RequestTrace`).
    Requests are placed on the timeline at their arrival, and the burn
    windows end at ``end_time`` (default: the latest arrival), so
    evaluating at successive end times replays how an alert fires and
    later clears.
    """
    samples = sorted(
        (
            (r.arrival, spec.is_good(r.outcome, r.latency_seconds))
            for r in requests
        ),
        key=lambda s: s[0],
    )
    total = len(samples)
    good = sum(1 for _, ok in samples if ok)
    bad = total - good
    compliance = good / total if total else 1.0
    budget_consumed = (bad / total) / spec.budget if total else 0.0
    if end_time is None:
        end_time = samples[-1][0] if samples else 0.0
    span = end_time - (samples[0][0] if samples else 0.0)
    trackers = [
        BurnTracker(window, spec.budget)
        for window in spec.windows or default_windows(span)
    ]
    for at, ok in samples:
        if at > end_time:
            break
        for tracker in trackers:
            tracker.add(at, ok)
    burn_rates = tuple(tracker.read(end_time) for tracker in trackers)
    return SLOStatus(
        spec=spec,
        total=total,
        good=good,
        bad=bad,
        compliance=compliance,
        budget_consumed=budget_consumed,
        burn_rates=burn_rates,
    )


def evaluate_slos(
    specs: Iterable[SLOSpec],
    requests: Sequence,
    end_time: float | None = None,
) -> list[SLOStatus]:
    """Evaluate every spec over the same request traces."""
    return [evaluate_slo(spec, requests, end_time) for spec in specs]
