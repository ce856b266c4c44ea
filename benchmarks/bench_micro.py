"""Micro-benchmarks: wall-clock throughput of the core primitives.

Unlike the table/figure benchmarks (which report deterministic
*simulated* seconds), these measure real Python performance of the
hottest code paths, using pytest-benchmark's statistics properly.
"""

from __future__ import annotations

import pytest

from repro.baselines.bfl import build_bfl
from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import social_graph, web_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.order import degree_order
from repro.graph.traversal import trimmed_bfs
from repro.workloads.queries import random_pairs


@pytest.fixture(scope="module")
def graph():
    return web_graph(2000, seed=3)


@pytest.fixture(scope="module")
def order(graph):
    return degree_order(graph)


@pytest.fixture(scope="module")
def index(graph, order) -> ReachabilityIndex:
    return tol_index(graph, order)


def test_bench_read_edge_list(benchmark, graph, tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    assert benchmark(read_edge_list, path, graph.num_vertices) == graph


def test_bench_digraph_from_edges(benchmark, graph):
    edges = list(graph.edges())
    assert benchmark(DiGraph, graph.num_vertices, edges) == graph


def test_bench_adjacency_lists(benchmark, graph):
    out, _ = benchmark(graph.adjacency_lists)
    assert sum(map(len, out)) == graph.num_edges


def test_bench_degree_order(benchmark, graph):
    benchmark(degree_order, graph)


def test_bench_trimmed_bfs(benchmark, graph, order):
    # Source 50 is a mid-order vertex with a non-trivial frontier.
    benchmark(trimmed_bfs, graph, 50, order)


def test_bench_tol_build(benchmark, order):
    small = social_graph(600, seed=9)
    small_order = degree_order(small)
    benchmark(tol_index, small, small_order)


def test_bench_index_queries(benchmark, graph, index):
    pairs = random_pairs(graph.num_vertices, 10_000, seed=1)

    def run():
        hits = 0
        for s, t in pairs:
            hits += index.query(s, t)
        return hits

    benchmark(run)


def test_bench_bfl_build(benchmark, graph):
    benchmark(build_bfl, graph)


def test_bench_bfl_queries(benchmark, graph):
    bfl = build_bfl(graph)
    pairs = random_pairs(graph.num_vertices, 2_000, seed=2)

    def run():
        hits = 0
        for s, t in pairs:
            hits += bfl.query(s, t)
        return hits

    benchmark(run)


def test_bench_index_serialization(benchmark, index, tmp_path):
    path = tmp_path / "index.bin"

    def run():
        index.save(path)
        return ReachabilityIndex.load(path)

    reloaded = benchmark(run)
    assert reloaded == index
