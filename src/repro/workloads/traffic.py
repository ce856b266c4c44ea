"""Serving-traffic generators: skewed query popularity and arrivals.

The paper evaluates query cost over uniform random pairs; a *serving*
layer faces a different regime — real query streams are heavily
skewed (a few sources/targets dominate) and arrive continuously, not
as a batch.  This module provides both halves, all seeded:

- :func:`zipf_pairs` — ``(s, t)`` pairs whose source and target
  popularity follows a Zipf distribution (the standard web/social
  traffic model), so a cache has something to hit;
- :func:`poisson_arrivals` — open-loop arrival times with exponential
  inter-arrival gaps (requests keep coming whether or not the server
  keeps up — the regime that exposes overload behavior);
- :func:`uniform_arrivals` — evenly spaced arrivals, the deterministic
  control for the same offered rate;
- :func:`phased_arrivals` — piecewise-Poisson phases on one clock
  (flash crowds: steady → spike → steady);
- :func:`sine_arrivals` — a sinusoidally modulated Poisson process
  (diurnal load waves).

Closed-loop (request-on-completion) arrivals depend on service times
and therefore live in the pipeline itself:
:meth:`repro.serve.QueryServer.run_closed`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left

from repro.errors import check_seconds


class ZipfSampler:
    """Seeded Zipf(``skew``) sampler over ``n`` items.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``1 / (r + 1) ** skew``, via inverse-CDF lookup on the precomputed
    cumulative weights (O(n) setup, O(log n) per sample).  Ranks are
    mapped to item ids through a seeded permutation so that popular
    items are scattered across the id space — and therefore across
    shards under any id-based partitioner — instead of clustering at
    id 0.
    """

    def __init__(self, n: int, skew: float = 1.1, seed: int = 0):
        if n < 1:
            raise ValueError("need at least one item")
        # A NaN skew makes every weight NaN: one rank would win every draw.
        check_seconds("skew", skew)
        self.n = n
        self.skew = skew
        rng = random.Random(seed)
        self._rank_to_item = list(range(n))
        rng.shuffle(self._rank_to_item)
        cumulative = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** skew
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total
        self._rng = rng

    def sample(self) -> int:
        """One item id."""
        point = self._rng.random() * self._total
        rank = bisect_left(self._cumulative, point)
        if rank >= self.n:  # guard against float round-up at the edge
            rank = self.n - 1
        return self._rank_to_item[rank]


def zipf_pairs(
    num_vertices: int, count: int, seed: int = 0, skew: float = 1.1
) -> list[tuple[int, int]]:
    """``count`` Zipf-skewed ``(s, t)`` pairs over ``num_vertices``.

    Sources and targets are drawn from two independently permuted
    Zipf distributions, so the hot set of sources is unrelated to the
    hot set of targets.  ``skew=0`` degenerates to uniform sampling;
    ``skew≈1`` is classic web traffic; larger values concentrate
    traffic harder (and push cache hit rates up).
    """
    sources = ZipfSampler(num_vertices, skew=skew, seed=seed)
    targets = ZipfSampler(num_vertices, skew=skew, seed=seed + 1)
    return [(sources.sample(), targets.sample()) for _ in range(count)]


def poisson_arrivals(
    count: int, rate: float, seed: int = 0
) -> list[float]:
    """``count`` open-loop arrival times at ``rate`` requests/second.

    Inter-arrival gaps are exponential (a Poisson process), so bursts
    happen naturally — which is exactly what fills admission queues.
    Times are simulated seconds starting at the first arrival.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    arrivals = []
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    return arrivals


def uniform_arrivals(count: int, rate: float) -> list[float]:
    """``count`` evenly spaced arrivals at ``rate`` requests/second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    gap = 1.0 / rate
    return [(i + 1) * gap for i in range(count)]


def phased_arrivals(
    phases: list[tuple[int, float]], seed: int = 0
) -> list[float]:
    """Piecewise-Poisson arrivals: ``phases`` of ``(count, rate)``.

    Each phase continues the previous one's clock, so
    ``[(1000, 1e5), (3000, 1e6), (1000, 1e5)]`` is a **flash crowd**:
    steady traffic, a 10× spike, then back to normal.  One seeded RNG
    spans all phases, so the whole shape is a single deterministic
    stream.
    """
    if not phases:
        raise ValueError("need at least one phase")
    rng = random.Random(seed)
    arrivals: list[float] = []
    clock = 0.0
    for count, rate in phases:
        if count < 0:
            raise ValueError("phase count must be non-negative")
        if rate <= 0:
            raise ValueError("phase rate must be positive")
        for _ in range(count):
            clock += rng.expovariate(rate)
            arrivals.append(clock)
    return arrivals


def sine_arrivals(
    count: int,
    base_rate: float,
    amplitude: float = 0.5,
    period_seconds: float = 1.0,
    seed: int = 0,
) -> list[float]:
    """A **diurnal wave**: Poisson arrivals whose rate oscillates.

    The instantaneous rate is
    ``base_rate * (1 + amplitude * sin(2π · t / period_seconds))``,
    sampled at each arrival (a first-order thinning of the
    inhomogeneous process — exact enough for a rate that moves slowly
    against the inter-arrival gap).  ``amplitude`` must stay below 1 so
    the rate never hits zero.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period_seconds <= 0:
        raise ValueError("period must be positive")
    rng = random.Random(seed)
    arrivals = []
    clock = 0.0
    two_pi = 2.0 * math.pi
    for _ in range(count):
        rate = base_rate * (1.0 + amplitude * math.sin(two_pi * clock / period_seconds))
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    return arrivals
