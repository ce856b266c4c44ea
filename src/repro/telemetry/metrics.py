"""Metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Unlike spans (which describe *one* interval), metrics aggregate across
a whole process: per-query latency lands in a histogram, per-super-step
active-vertex counts in another, label-entry growth in a gauge.

Histograms use **fixed buckets** (upper bounds, Prometheus-style), so
recording is O(log buckets) and export is bounded regardless of how
many observations arrive.  Percentiles are estimated from the bucket
boundaries — exact enough for the order-of-magnitude latency questions
the paper's Exps ask, and documented as estimates in
``docs/observability.md``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterator, Sequence


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    bound = start
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: Default buckets for simulated per-query latencies: the sorted-merge
#: of a 2-hop index costs ~1e-7 s, a pruned BFS fallback ~1e-3 s.
LATENCY_BUCKETS = exponential_buckets(1e-8, 10 ** 0.5, 16)

#: Default buckets for per-super-step active-vertex counts.
ACTIVE_VERTEX_BUCKETS = exponential_buckets(1, 4, 16)


def bucket_percentile(
    buckets: Sequence[float],
    counts: Sequence[int],
    count: int,
    maximum: float | None,
    fraction: float,
) -> float:
    """Estimate a percentile from fixed-bucket data.

    The single implementation behind :meth:`Histogram.percentile` (live
    instruments) and :func:`percentile_from_record` (exported JSONL
    records): returns the upper bound of the bucket holding the target
    rank, clamped to the observed maximum (the overflow bucket, which
    has no upper bound, reports the maximum itself).
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    if not count:
        return 0.0
    rank = max(1, round(fraction * count))
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank:
            if i < len(buckets):
                bound = buckets[i]
                return min(bound, maximum) if maximum is not None else bound
            break
    return maximum if maximum is not None else 0.0


def sorted_percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted raw samples (0.0 when
    empty): :func:`bucket_percentile`'s exact counterpart."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_record(self) -> dict:
        return {"kind": "metric", "metric": "counter", "name": self.name,
                "value": self.value}


class Gauge:
    """A value that can move both ways (e.g. label entries so far).

    Values keep the type they were set with: an int-valued gauge
    exports as an int, so ``to_record`` round-trips through JSONL
    without float-coercion diffs (``120`` vs ``120.0``).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def to_record(self) -> dict:
        return {"kind": "metric", "metric": "gauge", "name": self.name,
                "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max sidecars.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.

    Observations may carry an **exemplar** — an opaque label, typically
    a trace ID — and each bucket keeps a bounded reservoir sample of
    the exemplars that landed in it (Prometheus's exemplar pattern), so
    a latency bucket links back to concrete requests.  The reservoir is
    seeded, so the same observation sequence always keeps the same
    exemplars.
    """

    __slots__ = (
        "name", "buckets", "counts", "count", "total", "min", "max",
        "exemplar_slots", "_exemplar_rng", "_exemplars", "_exemplar_seen",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        exemplar_slots: int = 2,
        exemplar_seed: int = 0,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        if exemplar_slots < 0:
            raise ValueError("exemplar_slots must be non-negative")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.exemplar_slots = exemplar_slots
        self._exemplar_rng = random.Random(exemplar_seed)
        # bucket index -> [(exemplar, value)], lazily populated.
        self._exemplars: dict[int, list[tuple[object, float]]] = {}
        self._exemplar_seen: dict[int, int] = {}

    def observe(self, value: float, exemplar: object = None) -> None:
        index = bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if exemplar is not None and self.exemplar_slots:
            self._sample_exemplar(index, exemplar, value)

    def _sample_exemplar(self, index: int, exemplar: object, value: float) -> None:
        """Reservoir-sample one exemplar into its bucket's slots."""
        seen = self._exemplar_seen.get(index, 0) + 1
        self._exemplar_seen[index] = seen
        reservoir = self._exemplars.get(index)
        if reservoir is None:
            reservoir = self._exemplars[index] = []
        if len(reservoir) < self.exemplar_slots:
            reservoir.append((exemplar, value))
        else:
            slot = self._exemplar_rng.randrange(seen)
            if slot < self.exemplar_slots:
                reservoir[slot] = (exemplar, value)

    def exemplars(self, index: int) -> list[tuple[object, float]]:
        """The sampled ``(exemplar, value)`` pairs of one bucket index."""
        return list(self._exemplars.get(index, ()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated percentile: the upper bound of the bucket holding
        the target rank (the exact max for the overflow bucket)."""
        return bucket_percentile(
            self.buckets, self.counts, self.count, self.max, fraction
        )

    def to_record(self) -> dict:
        record = {
            "kind": "metric",
            "metric": "histogram",
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }
        if self._exemplars:
            record["exemplars"] = {
                str(index): [
                    {"exemplar": exemplar, "value": value}
                    for exemplar, value in reservoir
                ]
                for index, reservoir in sorted(self._exemplars.items())
            }
        return record


class MetricsRegistry:
    """Get-or-create namespace of instruments, exportable as a whole."""

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> dict[str, float]:
        """Flat ``{name: value}`` view; histograms expand to
        ``name.count`` / ``name.sum`` / ``name.mean`` /
        ``name.p50|p95|p99`` / ``name.min`` / ``name.max``."""
        flat: dict[str, float] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                flat[f"{name}.count"] = instrument.count
                flat[f"{name}.sum"] = instrument.total
                flat[f"{name}.mean"] = instrument.mean
                flat[f"{name}.p50"] = instrument.percentile(0.50)
                flat[f"{name}.p95"] = instrument.percentile(0.95)
                flat[f"{name}.p99"] = instrument.percentile(0.99)
                flat[f"{name}.min"] = instrument.min or 0.0
                flat[f"{name}.max"] = instrument.max or 0.0
            else:
                flat[name] = instrument.value
        return flat

    def iter_records(self) -> Iterator[dict]:
        """One JSONL-ready record per instrument, in name order."""
        for name in sorted(self._instruments):
            yield self._instruments[name].to_record()

    def reset(self) -> None:
        self._instruments.clear()


def percentile_from_record(record: dict, fraction: float) -> float:
    """Re-estimate a percentile from an exported histogram record.

    Used by ``repro trace`` to summarize a JSONL file without the live
    :class:`Histogram` object.
    """
    count = record.get("count", 0)
    if not count:
        return 0.0
    return bucket_percentile(
        record["buckets"], record["counts"], count, record.get("max"), fraction
    )
