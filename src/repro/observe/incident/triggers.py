"""Turns recorder events into self-contained incident bundles.

A flight recorder is only useful if something *lands* its contents
when they matter.  :class:`TriggerEngine` listens to a
:class:`~repro.observe.incident.recorder.FlightRecorder` and snapshots
the buffer into an **incident bundle** — one JSON file, written
atomically, holding the trigger, its details, and every buffered event
— whenever one of the ISSUE's four tripwires fires:

``failover``
    A ``serve.failover`` event landed: a shard just lost its primary.
``shard_unavailable``
    A request died with no serving replica (a ``serve.request``
    terminal with outcome ``error``).
``slo_burn``
    An online multi-window burn-rate alert fired: the page policy of
    :func:`repro.observe.slo.default_windows` over the run's expected
    span, read by the same :class:`~repro.observe.slo.BurnTracker` that
    ``repro top --slo`` evaluates with, after every finished read
    instead of once over a finished trace — so the bundle is cut while
    the regression window is still in the buffer.
``scenario_assertion``
    The scenario runner reports a failed expectation via
    :meth:`TriggerEngine.fire` after grading.

Each trigger kind has an independent **cooldown** so one incident does
not shatter into dozens of near-identical bundles: re-fires inside the
cooldown are counted in :attr:`TriggerEngine.suppressed` instead of
written.  Bundle ids are deterministic (``incident-001-failover``,
skipping numbers a different ``context`` holds in the directory), so
scenario runs are replayable byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.bench.results import atomic_write_text
from repro.observe.incident.recorder import FlightRecorder
from repro.observe.incident.report import load_bundle
from repro.observe.slo import BurnTracker, SLOSpec, default_windows

#: Bundle kinds the engine can produce, in the order they tend to
#: appear during one incident.
TRIGGER_KINDS = ("slo_burn", "failover", "shard_unavailable", "scenario_assertion")

#: Don't evaluate a burn window until it holds this many requests —
#: one bad request out of one is burn 1/budget, which is noise.
MIN_WINDOW_SAMPLES = 20


class TriggerEngine:
    """Watches a recorder and lands incident bundles when tripped.

    Parameters
    ----------
    recorder:
        The :class:`FlightRecorder` to snapshot.  Attach the engine
        with ``recorder.add_listener(engine.observe)``.
    directory:
        Where bundles land (created on first write).
    slos:
        Specs to track online, each under the page policy of
        :func:`repro.observe.slo.default_windows` over ``span_hint``
        (the run's expected simulated span).
    span_hint:
        Expected simulated span of the run; also sets the default
        per-kind cooldown (one long window).
    cooldown_seconds:
        Minimum simulated time between two bundles of the same kind.
    context:
        Free-form dict stamped into every bundle (scenario name, ...).
    """

    def __init__(
        self,
        recorder: FlightRecorder,
        directory: str | Path,
        slos: Sequence[SLOSpec] = (),
        span_hint: float | None = None,
        cooldown_seconds: float | None = None,
        context: dict | None = None,
    ):
        self.recorder = recorder
        self.directory = Path(directory)
        self.context = dict(context or {})
        span = span_hint if span_hint and span_hint > 0 else 1.0
        if cooldown_seconds is None:
            cooldown_seconds = span / 30
        self.cooldown_seconds = cooldown_seconds
        page = default_windows(span)[0]
        self._burn_trackers = [
            (spec, BurnTracker(page, spec.budget, MIN_WINDOW_SAMPLES))
            for spec in slos
        ]
        #: One summary dict per written bundle, in firing order.
        self.incidents: list[dict] = []
        #: Re-fires swallowed by the cooldown, per trigger kind.
        self.suppressed: dict[str, int] = {}
        self._last_fired: dict[str, float] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    def observe(self, record: dict) -> None:
        """Recorder listener: inspect one record, maybe cut a bundle."""
        name = record.get("event")
        at = record.get("at", 0.0)
        if name == "serve.failover":
            self.fire(
                "failover",
                at,
                details={
                    k: record[k]
                    for k in ("shard", "from_replica", "to_replica", "version")
                    if k in record
                },
                evidence=[record["id"]],
            )
        elif name == "serve.request":
            outcome = record.get("outcome")
            if outcome == "error":
                self.fire(
                    "shard_unavailable",
                    at,
                    details={
                        k: record[k]
                        for k in ("trace_id", "shard", "reason")
                        if k in record
                    },
                    evidence=[record["id"]],
                )
            # A write (a record with an ``op``) is no request against a
            # read objective.
            trackers = () if "op" in record else self._burn_trackers
            arrival = record.get("arrival", at)
            latency = record.get("latency_seconds", 0.0)
            for spec, tracker in trackers:
                tracker.add(arrival, spec.is_good(outcome, latency))
                burn = tracker.read(arrival)
                if not burn.firing:
                    continue
                details = {
                    "slo": spec.name,
                    "kind": spec.kind,
                    "target": spec.target,
                    "long_burn": burn.long_burn,
                    "short_burn": burn.short_burn,
                    "long_seconds": burn.window.long_seconds,
                    "short_seconds": burn.window.short_seconds,
                    "burn_threshold": burn.window.burn_threshold,
                }
                self.fire("slo_burn", at, details=details, evidence=[record["id"]])

    # ------------------------------------------------------------------
    def _may_write(self, path: Path) -> bool:
        """Is ``path`` free, or this context's own earlier bundle?"""
        try:
            return load_bundle(path).get("context") == self.context
        except FileNotFoundError:
            return True
        except ValueError:  # not a bundle: not ours to replace
            return False

    def fire(
        self,
        kind: str,
        at: float,
        details: dict | None = None,
        evidence: Sequence[int] = (),
    ) -> Path | None:
        """Cut a bundle now (subject to the per-kind cooldown)."""
        last = self._last_fired.get(kind)
        if last is not None and at - last < self.cooldown_seconds:
            self.suppressed[kind] = self.suppressed.get(kind, 0) + 1
            return None
        self._last_fired[kind] = at
        # Engines sharing a directory (one per scenario of a run) each
        # number from 001: step past the names another context holds.
        while True:
            self._seq += 1
            bundle_id = f"incident-{self._seq:03d}-{kind}"
            path = self.directory / f"{bundle_id}.json"
            if self._may_write(path):
                break
        bundle = {
            "id": bundle_id,
            "kind": kind,
            "at": at,
            "details": dict(details or {}),
            "evidence": list(evidence),
            "context": dict(self.context),
            "recorder": {
                "recorded": self.recorder.recorded,
                "dropped": self.recorder.dropped,
                "bytes_used": self.recorder.bytes_used,
                "max_bytes": self.recorder.max_bytes,
                "window_seconds": self.recorder.window_seconds,
            },
            "events": self.recorder.events(),
        }
        # Via rename, so a crash never leaves a torn bundle.
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(bundle, indent=2, default=str) + "\n")
        self.incidents.append(
            {"id": bundle_id, "kind": kind, "at": at, "path": str(path)}
        )
        return path
