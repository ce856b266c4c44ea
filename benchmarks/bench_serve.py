"""Serving-layer benchmark: cached vs uncached throughput under a
Zipf-skewed open-loop workload (see docs/serving.md).

Expected shape: with the offered load saturating the pipeline, the
query cache converts the hot pairs into single-probe hits, so the
cached configuration clears more than 2x the uncached throughput and
serves strictly more of the offered stream.
"""

from __future__ import annotations

from conftest import FAST, save_and_print

from repro.graph.generators import social_graph
from repro.scenarios import ScenarioSpec, ServingSpec, TrafficSpec
from repro.scenarios.bench import caching_speedup, serve_bench

VERTICES = 5_000 if FAST else 50_000
REQUESTS = 10_000 if FAST else 40_000

# serve-bench's default stack: one copy of 8 hash shards, a 65 536-entry
# cache, Zipf 1.4 pairs arriving as a Poisson stream at 2M requests/s.
SPEC = ScenarioSpec(
    name="serve-bench",
    traffic=TrafficSpec(requests=REQUESTS, skew=1.4, rate=2_000_000.0, arrivals_seed=7),
    serving=ServingSpec(shards=8, replicas=1, cache_size=65536),
)


def _run():
    return serve_bench(SPEC, social_graph(VERTICES, seed=11))


def test_serve_cached_vs_uncached(benchmark):
    table, results = benchmark.pedantic(_run, rounds=1, iterations=1)
    speedup = caching_speedup(results)
    save_and_print(
        "serve_bench",
        table.render() + f"\n\ncaching speedup: {speedup:.2f}x throughput",
    )

    cached, uncached = results["cached"].report, results["uncached"].report
    assert cached.cache_hits > 0 and uncached.cache_hits == 0
    # Conservation: every offered request is accounted for.
    for report in (cached, uncached):
        assert report.served + report.shed + report.deadline_dropped == report.offered
    # The headline shape: caching more than doubles saturated throughput.
    assert speedup is not None and speedup > 2.0, f"speedup only {speedup:.2f}x"
    assert cached.served > uncached.served
    # Every served answer was checked against the transitive closure.
    for result in results.values():
        assert result.audited == result.report.served
        assert result.incorrect_answers == 0


if __name__ == "__main__":
    table, results = _run()
    print(table.render())
    print(f"caching speedup: {caching_speedup(results):.2f}x throughput")
