"""Where a run was made: host fingerprint and the calibration kernels.

Numbers from different fingerprints are not comparable in absolute
seconds.  The calibration kernels — fixed, pure Python, calling nothing
of the program, so no change to the program can move them — say how
fast the host is *right now*: :func:`slowdown` is their reading over the
reading of the quiet reference host, and the harness divides every
timed repetition by the slowdown read just before and just after it.  A drift of more
than :data:`NOISY_DRIFT` between the quiet readings
(:func:`quiet_slowdown`) before and after a workload marks the run
``noisy``.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from array import array
from collections import deque
from pathlib import Path
from time import perf_counter_ns

NOISY_DRIFT = 0.10
ARITHMETIC_STEPS = 30_000


def _arithmetic():
    """The interpreter's own loop: no memory traffic to speak of."""
    total = 0
    for i in range(ARITHMETIC_STEPS):
        total += i & 7
    return total


_EVENS = array("q", range(0, 12000, 2))
_THIRDS = array("q", range(0, 18000, 3))


def _merge():
    """Sorted-array intersection, the shape of a label query."""
    a, b = _EVENS, _THIRDS
    i = j = common = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x == y:
            common += 1
            i += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return common


_RING = [[(v + 1) % 5000, (v * 7 + 3) % 5000, (v * 13 + 5) % 5000] for v in range(5000)]


def _traverse():
    """Breadth-first search with a set and a deque, the shape of a build."""
    seen = {0}
    queue = deque([0])
    while queue:
        for w in _RING[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def _allocate():
    """Small tuples into a dict of lists, the shape of message routing."""
    inbox: dict[int, list] = {}
    for i in range(6000):
        bucket = inbox.get(i & 511)
        if bucket is None:
            inbox[i & 511] = [(i, i + 1)]
        else:
            bucket.append((i, i + 1))
    return len(inbox)


_CHASE_SLOTS = 1 << 20
#: A full-cycle permutation of 8 MB of slots: every step lands far away.
_CHASE = array("q", ((1_000_005 * i + 12_345) % _CHASE_SLOTS for i in range(_CHASE_SLOTS)))


def _chase():
    """Pointer chasing through more memory than the caches hold."""
    slots = _CHASE
    i = 0
    for _ in range(20_000):
        i = slots[i]
    return i


#: kernel → its ns on the quiet reference host (2-CPU Xeon @ 2.1 GHz
#: guest, CPython 3.11.7), where steadied seconds equal wall seconds.
#: When the host is busy the arithmetic loop slows least and the
#: memory-bound kernels most (+40 % against +150 % in its worst hour,
#: the program's own stages +90 %); their geometric mean tracked the
#: stages better than any one kernel or any smaller set.
KERNELS = (
    (_arithmetic, 1.20e6),
    (_merge, 1.05e6),
    (_traverse, 1.09e6),
    (_allocate, 0.97e6),
    (_chase, 1.05e6),
)


def kernel_ns() -> list[int]:
    """Best-of-three ns of each calibration kernel (~25 ms in all)."""
    readings = []
    for kernel, _reference in KERNELS:
        fastest = None
        for _ in range(3):
            begin = perf_counter_ns()
            kernel()
            elapsed = perf_counter_ns() - begin
            fastest = elapsed if fastest is None else min(fastest, elapsed)
        readings.append(fastest)
    return readings


def slowdown() -> float:
    """How much slower than the quiet reference host this moment is:
    the geometric mean of the kernels' readings over their references."""
    ratios = [ns / reference for ns, (_k, reference) in zip(kernel_ns(), KERNELS)]
    return math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios))


def quiet_slowdown() -> float:
    """The lowest of three readings: one reading alone can catch a
    burst of a few milliseconds, which says nothing about drift."""
    return min(slowdown() for _ in range(3))


def calibrate() -> float:
    """ns per step of the arithmetic kernel: the ``host.calib_ns`` reading."""
    return kernel_ns()[0] / ARITHMETIC_STEPS


def between(before: float, after: float) -> float:
    """The slowdown during a repetition, from the readings on either
    side of it (their geometric mean: slowdowns are ratios)."""
    return math.sqrt(before * after)


def steady(seconds, slowdowns) -> float:
    """One value from repetitions: the lower quartile of their seconds
    at the reference host's speed (each divided by its slowdown).

    The lower quartile, not the median: what disturbs a repetition
    beyond what the readings beside it caught only ever adds time.
    """
    steadied = [s / factor for s, factor in zip(seconds, slowdowns)]
    if len(steadied) == 1:
        return steadied[0]
    return statistics.quantiles(steadied, n=4, method="inclusive")[0]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` here; ``unknown`` without one."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head[:12]


def fingerprint(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }
