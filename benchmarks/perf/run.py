"""Wall-clock benchmark of the repository, one workload per call.

    python3 benchmarks/perf/run.py --workload build_web --seed 1 --seconds 32 --trace 0

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Exits 1 when a check
failed, 2 when there is no program to measure.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("build_web", "build_cit", "serve_read", "serve_mixed")


def add_source_path() -> bool:
    """Put the program under test on the import path; False without one."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return False
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    return True


def use_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    How much of a second CPU the shared host grants comes and goes for
    minutes at a time (the mp build of ``build_web`` read 0.34 s or
    0.43 s depending on the quarter of an hour), and the calibration
    kernels, which run in one process, cannot see it.  On one CPU the
    mp engine's workers take turns, so ``build_mp_s`` is the engine's
    fork, IPC and serialisation cost on top of the same compute — not
    a parallel speed-up, which this host cannot measure steadily.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def wait_for_resource_tracker() -> None:
    """The mp engine's shared memory makes the standard library start a
    resource-tracker process, which ends only once this one has; end
    it now and wait, so that no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def report(result) -> None:
    print(
        f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}"
        f"{'  NOISY (calibration drifted > 10 %)' if result.noisy else ''}"
    )
    print("host " + "  ".join(f"{k}={v}" for k, v in result.host.items()))
    for name, metric in result.metrics.items():
        note = result.notes.get(name, "")
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<6} {note}")
    check = result.check
    print(f"operations attempted {check.attempted}  failed {check.failed}")
    for failure in check.failures:
        print(f"FAILED {failure}")
    print(result.line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not add_source_path():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    import harness

    use_one_cpu()
    try:
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT
        )
    finally:
        wait_for_resource_tracker()
    report(result)
    return 0 if result.check.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
