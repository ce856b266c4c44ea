"""Extension benchmark (ours): query latency percentiles per backend.

Mean query times (Table VI) hide the tail: index-assisted methods are
bimodal — label-only answers are fast, fallback traversals are slow.
This measures p50/p99 simulated latency for the 2-hop index (collected
and sharded), BFL, GRAIL, and online search on the medium graphs.
"""

from __future__ import annotations

from conftest import FIG_DATASETS, save_and_print

from repro.baselines.bfl import build_bfl
from repro.baselines.grail import build_grail
from repro.baselines.online import OnlineSearcher
from repro.bench.results import ExperimentTable
from repro.core.build import build_index
from repro.pregel.cost_model import paper_scale_model
from repro.query import (
    DistributedIndexBackend,
    IndexBackend,
    MeteredSearchBackend,
)
from repro.telemetry.metrics import sorted_percentile
from repro.workloads.datasets import MEDIUM_DATASETS, get_dataset
from repro.workloads.queries import random_pairs


def _run():
    names = MEDIUM_DATASETS if FIG_DATASETS is None else FIG_DATASETS
    cost_model = paper_scale_model(time_limit_seconds=None)
    backends = ("index", "sharded index", "BFL", "GRAIL", "online")
    p50 = ExperimentTable(
        "Query latency p50 (simulated s)", list(backends), scientific=True
    )
    p99 = ExperimentTable(
        "Query latency p99 (simulated s)", list(backends), scientific=True
    )
    for name in names:
        graph = get_dataset(name).load()
        pairs = random_pairs(graph.num_vertices, 600, seed=17)
        index = build_index(graph, cost_model=cost_model).index
        backends_by_label = {
            "index": IndexBackend(index, cost_model),
            "sharded index": DistributedIndexBackend(
                index, num_nodes=32, cost_model=cost_model
            ),
            "BFL": MeteredSearchBackend(build_bfl(graph), cost_model),
            "GRAIL": MeteredSearchBackend(build_grail(graph), cost_model),
            "online": OnlineSearcher(graph, cost_model),
        }
        for label, backend in backends_by_label.items():
            latencies = sorted(backend.query_with_cost(s, t)[1] for s, t in pairs)
            p50.set(name, label, sorted_percentile(latencies, 0.50))
            p99.set(name, label, sorted_percentile(latencies, 0.99))
    return p50, p99


def test_query_latency(benchmark):
    p50, p99 = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_and_print("query_latency", p50.render() + "\n\n" + p99.render())
    for row in p50.rows:
        # The collected index dominates at the median and the tail.
        assert p50.get(row, "index").value <= p50.get(row, "online").value
        assert p99.get(row, "index").value <= p99.get(row, "online").value
        # Sharded labels cost more than collected ones.
        assert (
            p50.get(row, "sharded index").value
            >= p50.get(row, "index").value
        )


if __name__ == "__main__":
    for table in _run():
        print(table.render())
        print()
