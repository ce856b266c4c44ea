"""Runs one workload and turns what the stages measured into metrics.

The stages run in *rounds* — every stage once, then again — until the
``--seconds`` budget is spent, so a stage's repetitions are spread over
the whole run instead of sharing one noisy moment.

The host this runs on is shared: it slows down by 20–70 % for seconds
or minutes at a time.  So the calibration kernels are read before and
after every repetition (:func:`host.slowdown`), the repetition's wall
seconds are divided by the slowdown between the two readings, and a
timed metric is the **lower quartile over the repetitions of those
steadied seconds** (:func:`host.steady`) — wall seconds at the
reference host's quiet speed.  In a busy hour this cut the run-to-run
spread of the timed metrics from 28 % to 12 % on average (README, "How
a value is measured").  The raw seconds are printed beside every value.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` runs untraced rounds, then the same rounds under the
benchmark's span recorder, then the per-layer probes, and reports the
per-layer metrics (raw, best of k); the gap between the two kinds of
round is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import host
import layers
import stages
from checks import Checker, check_ground_truth
from inputs import WORKLOADS, set_up
from recorder import NullRecorder, Recorder, span_costs

#: One round, in order: later stages use what earlier ones left behind.
STAGES = (
    ("build_tol", stages.build_tol),
    ("build_drl", stages.build_drl),
    ("build_drlb", stages.build_drlb),
    ("build_mp", stages.build_mp),
    ("load", stages.load),
    ("query", stages.query),
    ("serve_hot", stages.serve_hot),
    ("serve_cold", stages.serve_cold),
    ("mixed", stages.mixed),
    ("update", stages.update),
    ("dyn_query", stages.dynamic_query),
)
#: Timed end-to-end metric → the stage whose repetitions it is made of.
TIMED = {
    "build_tol_s": "build_tol",
    "build_drl_s": "build_drl",
    "build_drlb_s": "build_drlb",
    "build_mp_s": "build_mp",
    "load_s": "load",
    "query_qps": "query",
    "serve_hot_rps": "serve_hot",
    "serve_cold_rps": "serve_cold",
    "mixed_rps": "mixed",
    "update_ops_s": "update",
    "dyn_query_qps": "dyn_query",
}
#: The serving layers a request passes through, outermost first.
SERVE_LAYERS = (
    "serve.pipeline", "serve.cache", "serve.store.backend", "serve.store.fetch", "core.labels",
)
SETUP_REPEATS = 3
OUT_DIRECTORY = Path(".bench_out")


@dataclass
class Result:
    """What one run reports; ``line`` is the contract's last stdout line."""

    workload: str
    seed: int
    trace: bool
    metrics: dict[str, dict]          # name → {"value", "unit"}
    notes: dict[str, str]             # name → "k=8 median=… max=…"
    check: Checker
    host: dict
    noisy: bool

    @property
    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.check.correct,
                "attempted": self.check.attempted,
                "failed": self.check.failed,
                "metrics": self.metrics,
            }
        )


def repetition(ctx: stages.Context, stage):
    """One repetition of a stage, from the same collector state each time.

    Where a full collection falls otherwise depends on what the stages
    before allocated: on two seeds in ten one fell inside every
    ``read_edge_list`` of ``build_web`` and made ``build_tol_s`` 25 %
    slower.  Collections the stage's own garbage causes stay inside it.
    """
    gc.collect()
    return stage(ctx)


def run_rounds(ctx: stages.Context, seconds: float) -> tuple[dict, dict]:
    """Whole rounds until another would not fit in ``seconds``; at least one.

    Returns, per stage, what each repetition measured and the host's
    slowdown during it (read before and after).
    """
    samples: dict[str, list] = {name: [] for name, _ in STAGES}
    slowdown: dict[str, list] = {name: [] for name, _ in STAGES}
    deadline = perf_counter() + seconds
    after = host.slowdown()
    while True:
        begin = perf_counter()
        for name, stage in STAGES:
            before = after
            samples[name].append(repetition(ctx, stage))
            after = host.slowdown()
            slowdown[name].append(host.between(before, after))
        now = perf_counter()
        if now + (now - begin) > deadline:
            return samples, slowdown


def end_to_end(ctx, samples, slowdown, setups, memory_bytes) -> tuple[dict, dict]:
    """The end-to-end values, and a note on the repetitions behind each."""
    inputs = ctx.inputs
    writes = len(inputs.mutations)
    seconds_of = {metric: samples[stage] for metric, stage in TIMED.items()}
    seconds_of["update_ops_s"] = [sum(latencies) for latencies in samples["update"]]
    factors = {metric: slowdown[stage] for metric, stage in TIMED.items()}
    seconds_of["setup_s"], factors["setup_s"] = zip(*setups)
    operations = {
        "query_qps": len(inputs.uniform),
        "serve_hot_rps": len(inputs.zipf),
        "serve_cold_rps": len(inputs.uniform),
        "mixed_rps": len(inputs.mixed_reads) + writes,
        "update_ops_s": writes,
        "dyn_query_qps": len(inputs.zipf),
    }
    values, notes = {}, {}
    for name, seconds in seconds_of.items():
        steady = host.steady(seconds, factors[name])
        values[name] = operations[name] / steady if name in operations else steady
        notes[name] = (
            f"k={len(seconds)} raw s: min={min(seconds):.6g} "
            f"median={statistics.median(seconds):.6g} max={max(seconds):.6g}"
        )
    values["index_file_bytes"] = inputs.reference_file.stat().st_size
    values["index_mem_bytes"] = memory_bytes
    # Each write's steady latency over the repetitions, then the tail over writes.
    per_write = [host.steady(column, slowdown["update"]) for column in zip(*samples["update"])]
    values["update_p95_ms"] = layers.percentile(per_write, 0.95) * 1e3
    notes["update_p95_ms"] = f"{writes} writes x {len(samples['update'])} repetitions"
    return values, notes


def one_round(ctx) -> dict:
    return {name: repetition(ctx, stage) for name, stage in STAGES}


def paired_rounds(ctx, seconds: float):
    """An untraced round, then the same round under a fresh recorder,
    and again, until another pair would not fit; at least one pair.

    Taking them in turn lets both kinds of round meet the same host.
    Returns the two lists of rounds, each traced round's span table,
    and the last recorder (the one that is written out).
    """
    inputs = ctx.inputs
    capacity = 4 * (len(inputs.zipf) + len(inputs.uniform)) + 1024
    untraced, traced, tables = [], [], []
    deadline = perf_counter() + seconds
    while True:
        begin = perf_counter()
        ctx.recorder = NullRecorder()
        untraced.append(one_round(ctx))
        ctx.recorder = recorder = Recorder(capacity)
        traced.append(one_round(ctx))
        tables.append(recorder.table())
        now = perf_counter()
        if now + (now - begin) > deadline:
            ctx.recorder = NullRecorder()
            return untraced, traced, tables, recorder


def serving_self_times(untraced: dict, traced: dict, table: dict, inside_share: float) -> dict:
    """One pair of rounds → per stream, the serving layers' self ns per
    request and how their sum compares with the untraced wall.

    A span costs about as much as the cheapest layer it wraps, and more
    between real layers than on an empty stack, so what the recorder
    adds is measured where it is paid: per span, the traced wall minus
    the untraced wall of the *other* stream.  ``inside_share`` of that
    falls inside a span's own interval, the rest inflates its parent
    (:func:`recorder.span_costs`).  The sum of a stream's corrected
    self times over its untraced wall is then a real check, not an
    identity: 1.0 when the trace adds up.
    """
    spans = {
        stream: sum(table[f"{layer}.{stream}"]["count"] for layer in SERVE_LAYERS[1:])
        for stream in ("hot", "cold")
    }
    cost = {
        stream: (traced[f"serve_{stream}"] - untraced[f"serve_{stream}"]) * 1e9 / spans[stream]
        for stream in spans
    }
    result = {}
    for stream, other in (("hot", "cold"), ("cold", "hot")):
        requests = table[f"serve.cache.{stream}"]["count"]
        self_ns = {}
        for layer in SERVE_LAYERS:
            row = table[f"{layer}.{stream}"]
            added = row["count"] * inside_share + row["children"] * (1 - inside_share)
            if layer == "serve.pipeline":  # the run span is no proxy span
                added -= inside_share
            self_ns[layer] = (row["self_ns"] - added * cost[other]) / requests
        wall_ns = untraced[f"serve_{stream}"] * 1e9 / requests
        result[stream] = {
            "self_ns": self_ns,
            "reconcile": sum(self_ns.values()) / wall_ns,
            "span_cost_ns": cost[stream],
        }
    return result


def per_layer(ctx, seconds: float, root: Path, out: Path, meta: dict) -> tuple[dict, dict]:
    """Paired rounds for half the budget, then the probes → per-layer values."""
    inputs = ctx.inputs
    untraced, traced, tables, recorder = paired_rounds(ctx, seconds / 2)
    inside, outside = span_costs()
    serving = [
        serving_self_times(*pair, inside / (inside + outside))
        for pair in zip(untraced, traced, tables)
    ]
    recorder.write(
        out,
        request_roots=("serve.cache.hot", "serve.cache.cold"),
        serving=serving[-1],
        self_times=tables[-1],
        **meta,
    )
    stage_best = {
        name: min(round_[name] for round_ in untraced) for name, _ in STAGES if name != "update"
    }
    update_latencies = min((round_["update"] for round_ in untraced), key=sum)
    span_best = {
        name: min(table[name]["min_ns"] for table in tables) / 1e9 for name in tables[0]
    }
    stats = {key: ctx.state[f"build_{key}_s.stats"] for key in ("drl", "drlb")}
    values = {
        "graph.io.read_edge_list_s": span_best["graph.io.read_edge_list"],
        "graph.order.degree_order_s": span_best["graph.order.degree_order"],
        "core.tol.tol_index_s": span_best["core.tol.tol_index"],
        "core.tol.entries": inputs.reference.num_entries,
        "core.drl.build_s": span_best["core.drl.build"],
        "core.drl.wall_ns_per_message": span_best["core.drl.build"] * 1e9
        / stats["drl"].total_messages,
        "core.drl_batch.build_s": span_best["core.drl_batch.build"],
        "core.drl_batch.wall_ns_per_message": span_best["core.drl_batch.build"] * 1e9
        / stats["drlb"].total_messages,
        "pregel.supersteps": stats["drlb"].supersteps,
        "pregel.messages": stats["drlb"].total_messages,
        "pregel.remote_bytes": stats["drlb"].remote_bytes,
        "pregel.compute_units": stats["drlb"].compute_units,
        "pregel.simulated_seconds": stats["drlb"].simulated_seconds,
        "core.labels.save_v1_s": span_best["core.labels.save_v1"],
    }
    values.update(layers.pregel_null(inputs.graph))
    values.update(layers.multiprocess(ctx, span_best))
    values.update(layers.graph_and_labels(ctx))
    values.update(layers.raw_queries(ctx))
    values.update(layers.read_path(ctx, stage_best))
    values.update(layers.write_path(ctx, stage_best, update_latencies))
    values.update(layers.command_line(ctx, root))
    notes = {}
    for stream in ("hot", "cold"):
        name = f"serve.trace_reconcile_{stream}"
        values[name] = statistics.median(pair[stream]["reconcile"] for pair in serving)
        typical = {
            layer: statistics.median(pair[stream]["self_ns"][layer] for pair in serving)
            for layer in SERVE_LAYERS
        }
        notes[name] = "self ns/request: " + ", ".join(
            f"{layer} {ns:.0f}" for layer, ns in typical.items()
        )

    def wall(round_):
        return sum(v for k, v in round_.items() if k != "update") + sum(round_["update"])

    values["trace_overhead_ratio"] = statistics.median(
        wall(with_) / wall(without) for without, with_ in zip(untraced, traced)
    )
    notes["trace_overhead_ratio"] = f"{len(untraced)} pairs of rounds"
    return values, notes


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path, scale: float = 1.0
) -> Result:
    """One run of one workload; ``scale`` shrinks it for the smoke test."""
    workload = WORKLOADS[name].scaled(scale)
    # The metrics to report, their order and units: the manifest's.
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if trace else "end_to_end"]
    check = Checker()
    fingerprint = host.fingerprint(root)
    OUT_DIRECTORY.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIRECTORY))
    try:
        first_reading = after = host.quiet_slowdown()
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            before = after
            begin = perf_counter()
            inputs = set_up(workload, seed, directory)
            seconds_taken = perf_counter() - begin
            after = host.slowdown()
            setups.append((seconds_taken, host.between(before, after)))
        ctx = stages.Context(inputs=inputs, directory=directory, check=check)
        # The streams are hundreds of thousands of tuples of the
        # benchmark's own; keep them out of the collector's way so its
        # passes cost what the program's garbage costs, not ours.
        gc.collect()
        gc.freeze()
        check_ground_truth(
            check,
            "reference index: answer differs from the BFS ground truth",
            inputs.reference.query,
            inputs.truth_rows,
            inputs.graph.num_vertices,
        )
        repetitions = {}
        if trace:
            meta = dict(workload=name, seed=seed, host=fingerprint)
            out = OUT_DIRECTORY / f"trace-{name}.json"
            values, notes = per_layer(ctx, seconds, root, out, meta)
            values["host.calib_ns"] = host.calibrate()
        else:
            memory_bytes = stages.index_memory_bytes(ctx)
            samples, slowdown = run_rounds(ctx, seconds)
            values, notes = end_to_end(ctx, samples, slowdown, setups, memory_bytes)
            repetitions = {"seconds": samples, "slowdown": slowdown}
        stages.check_segments(ctx)
        last_reading = host.quiet_slowdown()
    finally:
        gc.unfreeze()
        shutil.rmtree(directory, ignore_errors=True)
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    result = Result(
        workload=name,
        seed=seed,
        trace=trace,
        metrics=metrics,
        notes=notes,
        check=check,
        host=dict(fingerprint, slowdown_first=first_reading, slowdown_last=last_reading),
        noisy=abs(last_reading - first_reading) / first_reading > host.NOISY_DRIFT,
    )
    (OUT_DIRECTORY / f"result-{name}-trace{int(trace)}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "host": result.host,
                "noisy": result.noisy,
                "failures": check.failures,
                "counts": {key: check.counts[key] for key in sorted(check.counts)},
                "notes": notes,
                "repetitions": repetitions,
                **json.loads(result.line),
            },
            indent=1,
        )
    )
    return result
