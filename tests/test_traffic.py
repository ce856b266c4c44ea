"""Tests for the serving-traffic generators."""

from collections import Counter

import pytest

from repro.workloads.traffic import (
    ZipfSampler,
    phased_arrivals,
    poisson_arrivals,
    sine_arrivals,
    uniform_arrivals,
    zipf_pairs,
)


def test_zipf_sampler_is_deterministic():
    a = [ZipfSampler(100, seed=3).sample() for _ in range(50)]
    b = [ZipfSampler(100, seed=3).sample() for _ in range(50)]
    c = [ZipfSampler(100, seed=4).sample() for _ in range(50)]
    assert a == b
    assert a != c


@pytest.mark.parametrize("skew", [float("nan"), float("inf"), -0.5])
def test_zipf_sampler_refuses_a_skew_that_is_not_a_finite_number(skew):
    # zipf_pairs(100, 2000, skew=nan) used to return 2000 copies of one pair.
    with pytest.raises(ValueError, match="skew must be a finite number >= 0"):
        zipf_pairs(100, 2000, skew=skew)


def test_zipf_sampler_stays_in_range():
    sampler = ZipfSampler(10, skew=2.0, seed=0)
    samples = [sampler.sample() for _ in range(1000)]
    assert all(0 <= s < 10 for s in samples)


def test_zipf_skew_concentrates_traffic():
    def top_share(skew):
        sampler = ZipfSampler(1000, skew=skew, seed=1)
        counts = Counter(sampler.sample() for _ in range(5000))
        return sum(c for _, c in counts.most_common(10)) / 5000

    # Higher skew → the ten hottest items take a larger share; skew 0
    # is uniform, where 10/1000 items get ~1% of traffic.
    assert top_share(0.0) < 0.05
    assert top_share(1.1) > top_share(0.0)
    assert top_share(2.0) > 0.5


def test_zipf_hot_items_are_scattered_not_clustered():
    # The seeded permutation must not leave rank 0 at item 0.
    hot = [ZipfSampler(1000, skew=3.0, seed=s).sample() for s in range(20)]
    assert len(set(hot)) > 1


def test_zipf_sampler_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, skew=-1.0)


def test_zipf_pairs_shape_and_determinism():
    pairs = zipf_pairs(50, 200, seed=9)
    assert len(pairs) == 200
    assert pairs == zipf_pairs(50, 200, seed=9)
    assert all(0 <= s < 50 and 0 <= t < 50 for s, t in pairs)
    # Sources and targets are independently permuted: the hottest
    # source is not forced to equal the hottest target.
    sources = Counter(s for s, _ in pairs)
    targets = Counter(t for _, t in pairs)
    assert sources.most_common(1)[0][1] > 1  # there IS a hot source
    assert targets.most_common(1)[0][1] > 1


def test_poisson_arrivals_monotone_and_rate():
    arrivals = poisson_arrivals(10000, rate=100.0, seed=2)
    assert len(arrivals) == 10000
    assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
    # Mean inter-arrival ≈ 1/rate (law of large numbers, ±20%).
    assert arrivals[-1] / 10000 == pytest.approx(0.01, rel=0.2)
    assert arrivals == poisson_arrivals(10000, rate=100.0, seed=2)


def test_uniform_arrivals_evenly_spaced():
    arrivals = uniform_arrivals(5, rate=10.0)
    assert arrivals == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])


def test_arrival_rate_validation():
    with pytest.raises(ValueError):
        poisson_arrivals(10, rate=0.0)
    with pytest.raises(ValueError):
        uniform_arrivals(10, rate=-1.0)


# -- scenario traffic shapes -------------------------------------------

def test_phased_arrivals_continue_the_clock():
    arrivals = phased_arrivals([(100, 1e5), (300, 1e6), (100, 1e5)], seed=1)
    assert len(arrivals) == 500
    assert arrivals == sorted(arrivals)
    assert arrivals == phased_arrivals(
        [(100, 1e5), (300, 1e6), (100, 1e5)], seed=1
    )
    # The spike phase is denser than the shoulders.
    shoulder = arrivals[99] - arrivals[0]
    spike = arrivals[399] - arrivals[100]
    assert spike / 299 < shoulder / 99


def test_phased_arrivals_validation():
    with pytest.raises(ValueError, match="at least one phase"):
        phased_arrivals([])
    with pytest.raises(ValueError, match="rate must be positive"):
        phased_arrivals([(10, 0.0)])
    with pytest.raises(ValueError, match="count must be non-negative"):
        phased_arrivals([(-1, 1e5)])


def test_sine_arrivals_oscillate_around_base_rate():
    period = 0.01
    arrivals = sine_arrivals(4000, 1e6, amplitude=0.8,
                             period_seconds=period, seed=2)
    assert len(arrivals) == 4000
    assert arrivals == sorted(arrivals)
    assert arrivals == sine_arrivals(4000, 1e6, amplitude=0.8,
                                     period_seconds=period, seed=2)
    # Bucket arrivals by phase within the period: the crest
    # (first half-period) must out-draw the trough (second half).
    crest = sum(1 for t in arrivals if (t % period) < period / 2)
    trough = len(arrivals) - crest
    assert crest > 1.2 * trough


def test_sine_arrivals_validation():
    with pytest.raises(ValueError, match="base_rate"):
        sine_arrivals(10, 0.0)
    with pytest.raises(ValueError, match="amplitude"):
        sine_arrivals(10, 1e5, amplitude=1.0)
    with pytest.raises(ValueError, match="period"):
        sine_arrivals(10, 1e5, period_seconds=0.0)
