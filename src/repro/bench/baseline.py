"""Benchmark baseline store and regression gate.

``repro bench EXPERIMENT --save-baseline`` serializes the experiment's
tables into ``benchmarks/baselines/EXPERIMENT.json``; a later
``--check-baseline`` run compares every cell against the stored value
and fails (exit non-zero, named metric in the message) on deviation
beyond a relative threshold.

The simulator's clock is deterministic, so on an unchanged tree every
metric reproduces bit-for-bit and the default 10 % threshold only has
to absorb intentional model tweaks.  *Improvements* beyond the
threshold fail too — a faster simulated time means the cost model or
the algorithm changed, and the baseline must be re-saved to prove it
was on purpose.

Baseline file format (see ``docs/observability.md``)::

    {
      "version": 1,
      "experiment": "fig5",
      "metrics": {
        "<table title>/<row>/<column>": 0.0123,     # plain value
        "<table title>/<row>/<column>": {"marker": "INF"}
      }
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.results import ExperimentTable, atomic_write_text
from repro.errors import ReproError

BASELINE_VERSION = 1

#: Default relative deviation tolerated before a metric fails the gate.
DEFAULT_THRESHOLD = 0.1

#: Default location of the committed baseline files.
BASELINE_DIR = Path("benchmarks") / "baselines"


class BaselineError(ReproError):
    """The baseline file is missing, unreadable, or incompatible."""


def default_baseline_path(experiment: str) -> Path:
    """The conventional baseline path for ``experiment``."""
    return BASELINE_DIR / f"{experiment}.json"


def baseline_from_tables(
    experiment: str, tables: list[ExperimentTable]
) -> dict:
    """Flatten tables into the baseline JSON structure.

    Metric keys are ``"<table title>/<row>/<column>"``; marker cells
    (``INF`` timeouts, ``-`` unavailability) are stored as
    ``{"marker": ...}`` so the gate can detect a metric *becoming* a
    timeout — usually the worst regression of all.
    """
    metrics: dict[str, object] = {}
    for table in tables:
        for row in table.rows:
            for column in table.columns:
                cell = table.get(row, column)
                if cell.marker is not None:
                    value: object = {"marker": cell.marker}
                elif cell.value is not None:
                    value = cell.value
                else:
                    continue
                metrics[f"{table.title}/{row}/{column}"] = value
    return {
        "version": BASELINE_VERSION,
        "experiment": experiment,
        "metrics": metrics,
    }


def save_baseline(
    experiment: str,
    tables: list[ExperimentTable],
    path: str | Path,
) -> Path:
    """Write the baseline for ``tables`` to ``path`` (atomically)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = baseline_from_tables(experiment, tables)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str | Path) -> dict:
    """Read and validate a baseline file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BaselineError(
            f"no baseline at {path} — run with --save-baseline first"
        ) from None
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise BaselineError(f"{path}: not a baseline file (no 'metrics')")
    if payload.get("version") != BASELINE_VERSION:
        raise BaselineError(
            f"{path}: baseline version {payload.get('version')!r} "
            f"not supported (expected {BASELINE_VERSION})"
        )
    return payload


@dataclass
class BaselineComparison:
    """Outcome of one gate run."""

    checked: int = 0
    #: Human-readable failure lines, each naming the metric.
    failures: list[str] = field(default_factory=list)
    #: Metrics present now but absent from the baseline (informational).
    new_metrics: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"baseline gate: {self.checked} metric(s) checked, "
            f"{len(self.failures)} failure(s)"
        ]
        lines += self.failures
        if self.new_metrics:
            lines.append(
                f"note: {len(self.new_metrics)} new metric(s) not in the "
                f"baseline (re-save to track them): "
                + ", ".join(self.new_metrics[:5])
                + (", ..." if len(self.new_metrics) > 5 else "")
            )
        return "\n".join(lines)


def compare_to_baseline(
    baseline: dict,
    tables: list[ExperimentTable],
    threshold: float = DEFAULT_THRESHOLD,
) -> BaselineComparison:
    """Gate the current ``tables`` against a loaded ``baseline``.

    A metric fails when it deviates from the stored value by more than
    ``threshold`` relative (against the stored magnitude; stored zeros
    require exact zeros), when its marker status changed in either
    direction, or when it disappeared from the current run.  The
    failure message names the metric and both values, labelling the
    direction (``regressed`` vs ``improved``).
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        # ``abs(deviation) > nan`` is never true: a NaN would pass everything.
        raise ValueError(f"threshold must be finite and non-negative, got {threshold}")
    expected = dict(baseline["metrics"])
    result = BaselineComparison()
    current = baseline_from_tables(baseline.get("experiment", "?"), tables)
    for key, now in current["metrics"].items():
        want = expected.pop(key, None)
        if want is None:
            result.new_metrics.append(key)
            continue
        result.checked += 1
        want_marker = want.get("marker") if isinstance(want, dict) else None
        now_marker = now.get("marker") if isinstance(now, dict) else None
        if want_marker or now_marker:
            if want_marker != now_marker:
                result.failures.append(
                    f"FAIL {key}: marker changed "
                    f"{want_marker or want} -> {now_marker or now}"
                )
            continue
        if want == 0:
            deviation = 0.0 if now == 0 else float("inf")
        else:
            deviation = (now - want) / abs(want)
        if abs(deviation) > threshold:
            direction = "regressed" if deviation > 0 else "improved"
            result.failures.append(
                f"FAIL {key}: {direction} {deviation:+.1%} "
                f"(baseline {want:.6g}, now {now:.6g}, "
                f"threshold ±{threshold:.0%})"
            )
    for key in expected:
        result.checked += 1
        result.failures.append(f"FAIL {key}: missing from the current run")
    return result
