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
the alert reset quickly once the incident ends), and **clears** as
soon as the short window drains.

Everything evaluates over ``serve.request`` traces on the simulated
clock, so alert behaviour is deterministic and replayable from a JSONL
export — `repro top --slo spec.json` is the consumer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
        if self.long_seconds <= 0 or self.short_seconds <= 0:
            raise ValueError("window lengths must be positive")
        if self.short_seconds > self.long_seconds:
            raise ValueError("short window must not exceed the long window")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")

    def to_dict(self) -> dict:
        return {
            "long_seconds": self.long_seconds,
            "short_seconds": self.short_seconds,
            "burn_threshold": self.burn_threshold,
            "severity": self.severity,
        }

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
        if self.kind == "latency" and (
            self.threshold_seconds is None or self.threshold_seconds <= 0
        ):
            raise ValueError("latency SLOs need a positive threshold_seconds")

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
    windows = spec.windows or default_windows(span)

    def burn(window_seconds: float) -> float:
        cutoff = end_time - window_seconds
        in_window = [ok for time, ok in samples if cutoff < time <= end_time]
        if not in_window:
            return 0.0
        bad_fraction = in_window.count(False) / len(in_window)
        return bad_fraction / spec.budget

    burn_rates = tuple(
        BurnRate(w, burn(w.long_seconds), burn(w.short_seconds))
        for w in windows
    )
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
