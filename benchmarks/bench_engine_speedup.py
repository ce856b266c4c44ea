"""Real wall-clock speedup of the multiprocessing engine vs the
simulator's *modelled* speedup on the same build.

The simulator charges a cost model and reports ``simulated_seconds``;
``core/multicore.py`` turns that into the paper's DRL_b^M speedup
curve.  The mp engine actually forks worker processes, so here we can
put the two side by side on the fig5 graph (WEBW stand-in): measured
wall-clock per worker count against the modelled multi-core speedup
for the same core count.  On a single-core container the measured
column degenerates (process overhead, no parallel hardware), so the
speedup assertion only arms on hosts with enough CPUs.  Every wall
clock here is the fastest of ``REPEATS`` runs, so a burst of host load
in one run does not move a cell, and a row's sim and mp builds take
turns (sim, mp, sim, mp, ...), so load that outlasts one build lands on
both engines of the row alike.  Beside the mp wall clock stand the CPU
seconds of that same build, the master's (``getrusage`` ``SELF``) and
its workers' (``CHILDREN``, reaped when the build ends): on a shared
host they move less than wall time does, and they show which side of
the pipe the time went to.

Below the table: the simulator's wall-clock cost per message on a plain
DRL build of the same graph — the substrate's own overhead, which is
what a change to the message plane moves.

The wall-clock and CPU cells depend on the host, so they are printed
only; ``benchmarks/results/engine_speedup.txt`` keeps the modelled
speedups and the message count, which a rerun reproduces.
"""

from __future__ import annotations

import os
import resource
import time

from conftest import save_and_print

from repro.core.drl import drl_index
from repro.core.multicore import drl_multicore_index
from repro.workloads.datasets import get_dataset

#: Worker counts in the sweep (capped at the host's CPU count for the
#: measured column — oversubscribing a 1-core box measures noise).
WORKER_SWEEP = (1, 2, 4)
#: Cluster size of the DRL build whose wall ns/message is reported.
DRL_NODES = 8
#: Timed runs per cell; a cell reports the fastest.
REPEATS = 3


def _cpu_seconds() -> tuple[float, float]:
    """CPU seconds so far: this process's, and its reaped children's."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


def _build(graph, cores: int, engine: str):
    """One DRL_b^M build; returns (wall_seconds, simulated_seconds,
    master CPU seconds, workers' CPU seconds)."""
    own, children = _cpu_seconds()
    start = time.perf_counter()
    result = drl_multicore_index(
        graph, num_cores=cores, engine=engine,
        workers=cores if engine == "mp" else None,
    )
    wall = time.perf_counter() - start
    own_after, children_after = _cpu_seconds()
    return (
        wall, result.stats.simulated_seconds,
        own_after - own, children_after - children,
    )


def _best_of(graph, cores: int):
    """The fastest of ``REPEATS`` builds per engine, the engines taking
    turns; returns ``{engine: _build(...) of that build}``."""
    runs = {"sim": [], "mp": []}
    for _ in range(REPEATS):
        for engine, builds in runs.items():
            builds.append(_build(graph, cores, engine))
    return {engine: min(builds) for engine, builds in runs.items()}


def _run():
    """The sweep: (the whole table, its reproducible part, rows)."""
    graph = get_dataset("WEBW").load()
    title = (
        f"engine speedup sweep — WEBW stand-in "
        f"(n={graph.num_vertices} m={graph.num_edges}"
    )
    lines = [
        f"{title}, host cpus={os.cpu_count()})",
        "",
        f"{'workers':>7} {'sim wall':>9} {'mp wall':>9} {'master cpu':>10} "
        f"{'workers cpu':>11} {'real x':>7} {'modelled x':>10}",
    ]
    saved = [f"{title})", "", f"{'workers':>7} {'modelled x':>10}"]
    rows = []
    sim_wall_1 = mp_wall_1 = modelled_1 = None
    for cores in WORKER_SWEEP:
        best = _best_of(graph, cores)
        sim_wall, modelled, _, _ = best["sim"]
        mp_wall, mp_modelled, master_cpu, workers_cpu = best["mp"]
        assert mp_modelled == modelled, (
            f"mp engine drifted from the cost model at {cores} cores: "
            f"{mp_modelled} != {modelled}"
        )
        if cores == 1:
            sim_wall_1, mp_wall_1, modelled_1 = sim_wall, mp_wall, modelled
        real_x = mp_wall_1 / mp_wall
        modelled_x = modelled_1 / modelled
        rows.append((cores, sim_wall, mp_wall, real_x, modelled_x))
        lines.append(
            f"{cores:>7} {sim_wall:>8.2f}s {mp_wall:>8.2f}s {master_cpu:>9.2f}s "
            f"{workers_cpu:>10.2f}s {real_x:>6.2f}x {modelled_x:>9.2f}x"
        )
        saved.append(f"{cores:>7} {modelled_x:>9.2f}x")
    drl = min(
        (drl_index(graph, num_nodes=DRL_NODES).stats for _ in range(REPEATS)),
        key=lambda stats: stats.wall_seconds,
    )
    lines += [
        "",
        f"drl on the simulator ({DRL_NODES} nodes): "
        f"{drl.wall_seconds / drl.total_messages * 1e9:.0f} ns/message wall "
        f"({drl.total_messages} messages in {drl.wall_seconds:.2f}s)",
    ]
    saved += [
        "",
        f"drl on the simulator ({DRL_NODES} nodes): "
        f"{drl.total_messages} messages",
    ]
    return "\n".join(lines), "\n".join(saved), rows


def test_engine_speedup(benchmark):
    table, saved, rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(table)
    save_and_print("engine_speedup", saved)

    by_cores = {cores: row for cores, *row in rows}
    # The modelled curve must improve with cores regardless of host.
    assert by_cores[4][3] > by_cores[1][3], "modelled speedup is flat"
    # The measured curve only means something on real parallel hardware.
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        real_x4 = by_cores[4][2]
        assert real_x4 >= 1.5, (
            f"mp engine speedup at 4 workers is {real_x4:.2f}x "
            f"on a {cpus}-cpu host (expected >= 1.5x)"
        )


if __name__ == "__main__":
    print(_run()[0])
