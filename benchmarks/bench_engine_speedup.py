"""Real wall-clock speedup of the multiprocessing engine vs the
simulator's *modelled* speedup on the same build.

The simulator charges a cost model and reports ``simulated_seconds``;
``core/multicore.py`` turns that into the paper's DRL_b^M speedup
curve.  The mp engine actually forks worker processes, so here we can
put the two side by side on the fig5 graph (WEBW stand-in): measured
wall-clock per worker count against the modelled multi-core speedup
for the same core count.  On a single-core container the measured
column degenerates (process overhead, no parallel hardware), so the
speedup assertion only arms on hosts with enough CPUs.

Below the table: the simulator's wall-clock cost per message on a plain
DRL build of the same graph — the substrate's own overhead, which is
what a change to the message plane moves.
"""

from __future__ import annotations

import os
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


def _build(graph, cores: int, engine: str):
    """One DRL_b^M build; returns (wall_seconds, simulated_seconds)."""
    start = time.perf_counter()
    result = drl_multicore_index(
        graph, num_cores=cores, engine=engine,
        workers=cores if engine == "mp" else None,
    )
    return time.perf_counter() - start, result.stats.simulated_seconds


def _run():
    graph = get_dataset("WEBW").load()
    lines = [
        f"engine speedup sweep — WEBW stand-in "
        f"(n={graph.num_vertices} m={graph.num_edges}, "
        f"host cpus={os.cpu_count()})",
        "",
        f"{'workers':>7} {'sim wall':>9} {'mp wall':>9} "
        f"{'real x':>7} {'modelled x':>10}",
    ]
    rows = []
    sim_wall_1 = mp_wall_1 = modelled_1 = None
    for cores in WORKER_SWEEP:
        sim_wall, modelled = _build(graph, cores, "sim")
        mp_wall, mp_modelled = _build(graph, cores, "mp")
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
            f"{cores:>7} {sim_wall:>8.2f}s {mp_wall:>8.2f}s "
            f"{real_x:>6.2f}x {modelled_x:>9.2f}x"
        )
    drl = drl_index(graph, num_nodes=DRL_NODES).stats
    lines += [
        "",
        f"drl on the simulator ({DRL_NODES} nodes): "
        f"{drl.wall_seconds / drl.total_messages * 1e9:.0f} ns/message wall "
        f"({drl.total_messages} messages in {drl.wall_seconds:.2f}s)",
    ]
    return "\n".join(lines), rows


def test_engine_speedup(benchmark):
    table, rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_and_print("engine_speedup", table)

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
