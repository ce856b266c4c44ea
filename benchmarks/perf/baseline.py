"""Measures the baseline the way the driver judges the benchmark.

    python3 benchmarks/perf/baseline.py            # ~50 minutes

Runs every workload of ``BENCHMARK.json`` on ten seeds, twice over
(two *sets*), then once more with ``--trace 1``, and writes
``baseline.json`` beside this file: per workload and end-to-end metric
each set's median, quartiles and spread (the distance between the
first and the third quartile of the ten values, as a share of their
median), the per-layer values, the exact-repeat ledger and the host
fingerprint.  Prints the same as a table and marks what the driver
would refuse: a spread above the metric's bound, or a second median
worse than the first by more than the bound.  Run it again after any
change to the benchmark; never compare absolute seconds across
different fingerprints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = Path(".bench_out")


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run as the driver makes it; the parsed last line of its output."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worsening(metric: dict, first: float, second: float) -> float:
    """By which share of the first median the second is worse (< 0: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = manifest["command"], manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]

    sets = []  # per set: workload → metric → the seeds' values
    for number in range(1, args.sets + 1):
        values = {w: {m["name"]: [] for m in manifest["end_to_end"]} for w in workloads}
        for workload in workloads:
            for seed in seeds:
                line = run_once(command, workload, seed, seconds, trace=0)
                for name, metric in line["metrics"].items():
                    values[workload][name].append(metric["value"])
                print(f"set {number}  {workload}  seed {seed}  failed {line['failed']}", flush=True)
        sets.append(values)

    refused = 0
    end_to_end = {}
    for workload in workloads:
        print(f"== {workload}")
        end_to_end[workload] = {}
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summary(values[workload][name]) for values in sets]
            drift = worsening(metric, rows[0]["median"], rows[-1]["median"])
            marks = []
            if name != "setup_s" and max(row["spread"] for row in rows) > bound:
                marks.append("SPREAD ABOVE BOUND")
            if drift > bound:
                marks.append("SECOND MEDIAN WORSE THAN BOUND")
            refused += len(marks)
            end_to_end[workload][name] = {
                "unit": metric["unit"], "bound": bound, "sets": rows, "worsening": drift,
            }
            print(
                f"  {name:<18} {metric['unit']:<6}"
                + "".join(f" median {row['median']:<12.6g} spread {row['spread']:.3f} " for row in rows)
                + f" worse by {drift:+.3f} (bound {bound}) "
                + " ".join(marks)
            )

    per_layer, counts = {}, {}
    for workload in workloads:
        line = run_once(command, workload, seeds[0], seconds, trace=1)
        per_layer[workload] = {name: m["value"] for name, m in line["metrics"].items()}
        result = json.loads((ROOT / RESULTS / f"result-{workload}-trace1.json").read_text())
        counts[workload] = result["counts"]
    args.out.write_text(
        json.dumps(
            {
                "host": host.fingerprint(ROOT),
                "run_seconds": seconds,
                "seeds": seeds,
                "per_layer_seed": seeds[0],
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "counts": counts,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {args.out}; the driver would refuse {refused} metric(s)")
    return 1 if refused else 0


if __name__ == "__main__":
    raise SystemExit(main())
