"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``datasets`` — list the Table V dataset stand-ins.
- ``generate`` — write a synthetic graph as an edge list.
- ``build`` — build a reachability index from an edge list.
- ``query`` — answer reachability queries from a saved index.
- ``info`` — describe a saved index.
- ``bench`` — run one paper experiment and print its table(s); with
  ``--save-baseline`` / ``--check-baseline`` it doubles as the perf
  regression gate (see ``benchmarks/baselines/``).
- ``serve-bench`` — benchmark the query-serving layer: sharded labels,
  query cache on/off, admission control under a Zipf/Poisson workload;
  supports the same baseline gate flags (see ``docs/serving.md``).
- ``scenario`` — list (``scenario list``) and run (``scenario run``)
  declarative serving scenarios: traffic shape + fault schedule +
  replication config + expected-result assertions, graded against the
  run (see ``docs/api.md``, "Scenario format").
- ``fuzz`` — differential fuzzing of the index builders against the
  oracle matrix, with failure shrinking and ``--replay`` of saved
  repros (see ``docs/paper_mapping.md``, "Fuzzing oracles").
- ``trace`` — summarize a JSONL telemetry trace: skew report, top
  spans, critical path, requests, bench cells, super-steps;
  ``--slowest N`` and ``--trace-id ID`` drill into per-request traces,
  and ``--chrome-trace`` / ``--flamegraph`` export it for Perfetto and
  flamegraph tooling.
- ``top`` — live serving dashboard over a trace's ``serve.request``
  events (``--once --json`` for scripting).

``build``, ``query``, ``bench``, and ``serve-bench`` accept
``--trace-out PATH`` (export
spans and events as JSONL) and ``--verbose`` (mirror telemetry to
stderr via stdlib logging); see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import ExitStack
from pathlib import Path

from repro import telemetry
from repro.bench.registry import EXPERIMENTS
from repro.core.build import METHOD_NAMES, build_index
from repro.core.labels import ReachabilityIndex, index_file_version
from repro.errors import ReproError, check_count, check_seconds
from repro.fuzz.cases import FAMILIES as FUZZ_FAMILIES
from repro.graph import generators
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import ENGINE_NAMES
from repro.workloads.datasets import DATASETS

_GENERATORS = generators.GRAPH_KINDS


def _existing_file(text: str) -> Path:
    """The argparse ``type=`` of every path that must already exist.  A
    :class:`ReproError` passes through argparse untouched, so ``main``
    reports it like any other bad input: ``error: …`` and exit 2."""
    path = Path(text)
    if not path.exists():
        raise ReproError(f"no such file: {path}")
    return path


def _count(flag: str, minimum: int = 0):
    """The argparse ``type=`` of a count flag: an integer of at least
    ``minimum``, refused like :func:`_existing_file` otherwise."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text
        return check_count(flag, value, minimum, error=ReproError)

    return parse


def _seconds(flag: str, positive: bool = True):
    """The argparse ``type=`` of a finite seconds (or rate) flag, > 0
    (``>= 0`` without ``positive``), refused like :func:`_existing_file`
    otherwise."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = text
        return check_seconds(flag, value, positive=positive, error=ReproError)

    return parse


def _number(flag: str, low: float, high: float = math.inf):
    """The argparse ``type=`` of a finite number flag in ``[low, high]``
    (a ratio, a batch-schedule factor), refused like
    :func:`_existing_file` otherwise."""
    bound = f">= {low:g}" if high == math.inf else f"in [{low:g}, {high:g}]"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and low <= value <= high):
            raise ReproError(f"{flag} must be a finite number {bound}, got {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Takes no flag by a prefix of its name, so a removed or renamed
    flag is an error, not silently another flag (``--slo`` was read as
    ``--slowest``), and refuses what it does not know itself, so an
    unknown flag after a sub-command is reported with that sub-command's
    usage, not the root's.  Sub-parsers are built as their parent's
    class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class _MixedOnly(argparse.Action):
    """Stores a ``serve-bench`` flag that only ``--mode mixed`` reads and
    notes it in ``mixed_flags``, so a read-mode run can refuse it instead
    of ignoring it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if option_string not in namespace.mixed_flags:
            namespace.mixed_flags = (*namespace.mixed_flags, option_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reachability Labeling for Distributed Graphs (ICDE 2022)",
    )
    telemetry_flags = argparse.ArgumentParser(add_help=False)
    telemetry_flags.add_argument(
        "--trace-out", type=Path, default=None, metavar="PATH",
        help="export telemetry (spans and events) as JSONL to PATH",
    )
    telemetry_flags.add_argument(
        "--verbose", action="store_true",
        help="log telemetry to stderr while running",
    )
    # The regression gate both bench commands share (_gate_on_baseline).
    baseline_flags = argparse.ArgumentParser(add_help=False)
    baseline_flags.add_argument(
        "--save-baseline", nargs="?", const="", default=None, metavar="PATH",
        help="save the results as the regression baseline (default PATH: "
        "benchmarks/baselines/NAME.json — the experiment, serve-bench, "
        "or serve-bench-mixed with --mode mixed)",
    )
    baseline_flags.add_argument(
        "--check-baseline", nargs="?", const="", default=None, metavar="PATH",
        help="compare the results against a saved baseline and exit "
        "non-zero on regression",
    )
    baseline_flags.add_argument(
        "--baseline-threshold", type=_number("--baseline-threshold", 0),
        default=None, metavar="FRACTION",
        help="relative deviation tolerated by --check-baseline "
        "(default 0.1 = 10%%)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table V dataset stand-ins")

    generate = sub.add_parser("generate", help="write a synthetic edge list")
    generate.add_argument("output", type=Path)
    generate.add_argument("--kind", choices=sorted(_GENERATORS), default="social")
    generate.add_argument("--vertices", "-n", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)

    build = sub.add_parser(
        "build", help="build an index from an edge list",
        parents=[telemetry_flags],
    )
    build.add_argument("graph", type=_existing_file)
    build.add_argument("--output", "-o", type=Path, required=True)
    build.add_argument("--method", choices=sorted(METHOD_NAMES), default="drl-b")
    build.add_argument("--nodes", type=_count("--nodes", 1), default=32)
    build.add_argument("--batch-size", type=_number("--batch-size", 1), default=2)
    build.add_argument(
        "--growth-factor", type=_number("--growth-factor", 1), default=2.0
    )
    build.add_argument(
        "--time-limit", type=_seconds("--time-limit"), default=None, metavar="SECONDS",
        help="simulated-time cut-off for the build (default 7200)",
    )
    build.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="sim",
        help="execution engine: 'sim' is the deterministic single-process "
        "simulator, 'mp' runs the supersteps across real worker processes "
        "(identical labels; see docs/simulator.md)",
    )
    build.add_argument(
        "--workers", type=_count("--workers", 1), default=None, metavar="N",
        help="worker-process count for --engine mp (default: cpu count)",
    )

    query = sub.add_parser(
        "query", help="answer queries from a saved index",
        parents=[telemetry_flags],
    )
    query.add_argument("index", type=_existing_file)
    query.add_argument("source", type=int, nargs="?")
    query.add_argument("target", type=int, nargs="?")
    query.add_argument(
        "--pairs", type=_existing_file, help="file of whitespace-separated s t pairs"
    )

    info = sub.add_parser("info", help="describe a saved index")
    info.add_argument("index", type=_existing_file)

    analyze = sub.add_parser("analyze", help="structural stats of a graph")
    analyze.add_argument("graph", type=_existing_file)

    validate = sub.add_parser(
        "validate", help="check an index against its graph"
    )
    validate.add_argument("graph", type=_existing_file)
    validate.add_argument("index", type=_existing_file)
    validate.add_argument(
        "--sample", type=_count("--sample", 1), default=None,
        help="check this many random pairs instead of all pairs",
    )

    bench = sub.add_parser(
        "bench",
        help="run one paper experiment",
        parents=[telemetry_flags, baseline_flags],
    )
    bench.add_argument("experiment", choices=list(EXPERIMENTS))
    bench.add_argument("--datasets", nargs="*", default=None)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the index builders",
        description="Run seeded cases (graph families × configurations) "
        "through the oracle matrix: all builders must agree, satisfy "
        "cover/soundness/canonical, match online BFS and track "
        "incremental updates.  Failures are "
        "shrunk and written as one-command repro files.",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--cases", type=_count("--cases", 1), default=None, metavar="N",
        help="number of cases to run (default 100 unless --time-budget)",
    )
    fuzz.add_argument(
        "--time-budget", type=_seconds("--time-budget"), default=None,
        metavar="SECONDS",
        help="stop after this many wall-clock seconds",
    )
    fuzz.add_argument(
        "--families", nargs="*", default=None, choices=FUZZ_FAMILIES,
        help="restrict to these graph families (default: all)",
    )
    fuzz.add_argument(
        "--replay", type=_existing_file, default=None, metavar="FILE",
        help="re-run one serialized failure repro instead of a campaign",
    )
    fuzz.add_argument(
        "--failures-dir", type=Path, default=Path("fuzz-failures"),
        metavar="DIR", help="where failure repros are written",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging of failing cases",
    )
    fuzz.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="sim",
        help="with 'mp', every case additionally cross-checks the "
        "multiprocessing engine against the simulator "
        "(the engine-mismatch oracle)",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="benchmark the query-serving layer (cached vs uncached)",
        parents=[telemetry_flags, baseline_flags],
        description="Shard the index, replay a Zipf-skewed request "
        "stream through the admission/batching pipeline with and "
        "without the query cache, and print throughput, latency "
        "percentiles, cache hit rate, per-shard load skew, and shed "
        "counts.  See docs/serving.md.",
    )
    serve_bench.add_argument(
        "graph", type=_existing_file, nargs="?", default=None,
        help="edge-list file to serve; omit to generate one",
    )
    serve_bench.add_argument(
        "--kind", choices=sorted(_GENERATORS), default="social",
        help="generator used when no graph file is given",
    )
    serve_bench.add_argument(
        "--vertices", "-n", type=_count("--vertices", 2), default=2000
    )
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--shards", type=_count("--shards", 1), default=8)
    serve_bench.add_argument(
        "--partitioner", choices=sorted(PARTITIONER_STRATEGIES),
        default="hash",
    )
    serve_bench.add_argument(
        "--requests", type=_count("--requests", 1), default=20000,
        help="length of the request stream (default 20000)",
    )
    serve_bench.add_argument(
        "--arrival", choices=["poisson", "uniform", "closed"],
        default="poisson",
        help="open-loop Poisson/uniform arrivals, or closed-loop clients",
    )
    serve_bench.add_argument(
        "--rate", type=_seconds("--rate"), default=2_000_000.0,
        help="open-loop offered load in requests per simulated second",
    )
    serve_bench.add_argument(
        "--clients", type=_count("--clients", 1), default=32,
        help="closed-loop client count (with --arrival closed)",
    )
    serve_bench.add_argument(
        "--zipf", type=_seconds("--zipf", positive=False), default=1.4,
        help="source/target popularity skew (0 = uniform)",
    )
    serve_bench.add_argument(
        "--cache-size", type=_count("--cache-size", 1), default=65536,
        help="query-cache capacity in entries",
    )
    serve_bench.add_argument(
        "--no-negative-cache", action="store_true",
        help="cache only positive answers",
    )
    serve_bench.add_argument(
        "--cache-only", action="store_true",
        help="run only the cached configuration",
    )
    serve_bench.add_argument(
        "--no-cache", action="store_true",
        help="run only the uncached configuration",
    )
    serve_bench.add_argument(
        "--queue-depth", type=_count("--queue-depth", 1), default=1024,
        help="admission queue bound; overflow is shed",
    )
    serve_bench.add_argument(
        "--batch-size", type=_count("--batch-size", 1), default=32,
        help="requests dequeued per dispatch",
    )
    serve_bench.add_argument(
        "--deadline", type=_seconds("--deadline"), default=None, metavar="SECONDS",
        help="drop requests queued longer than this (simulated seconds); "
        "mixed-mode writes are never deadline-dropped",
    )
    serve_bench.add_argument(
        "--mode", choices=["read", "mixed"], default="read",
        help="'read' replays queries only; 'mixed' interleaves Zipf "
        "reads with a Poisson write stream (edge/node mutations and "
        "order upgrades) through the same admission queue and reports "
        "update throughput, write p99, and the replication staleness "
        "window.  See docs/dynamic.md.",
    )

    def mixed_flag(*names, **kwargs):
        """A flag only ``--mode mixed`` reads; read mode refuses it."""
        serve_bench.add_argument(*names, action=_MixedOnly, **kwargs)

    serve_bench.set_defaults(mixed_flags=())
    mixed_flag(
        "--writes", type=_count("--writes"), default=2000,
        help="mixed mode: length of the write stream (default 2000)",
    )
    mixed_flag(
        "--write-rate", type=_seconds("--write-rate"), default=200_000.0,
        help="mixed mode: offered write load per simulated second",
    )
    mixed_flag(
        "--insert-ratio", type=_number("--insert-ratio", 0, 1), default=0.6,
        help="mixed mode: fraction of edge ops that are inserts",
    )
    mixed_flag(
        "--node-ratio", type=_number("--node-ratio", 0, 1), default=0.1,
        help="mixed mode: fraction of writes that add/delete nodes",
    )
    mixed_flag(
        "--promote-ratio", type=_number("--promote-ratio", 0, 1), default=0.05,
        help="mixed mode: fraction of writes that are order upgrades",
    )
    mixed_flag(
        "--replicas", type=_count("--replicas", 1), default=2,
        help="mixed mode: replica groups fed by the leader's op log",
    )
    mixed_flag(
        "--replication-delay", type=_seconds("--replication-delay", positive=False),
        default=2e-3, metavar="SECONDS",
        help="mixed mode: op-log delivery delay to followers",
    )
    mixed_flag(
        "--max-lag", type=_count("--max-lag", 1), default=64,
        help="mixed mode: bounded-staleness lag before forced catch-up",
    )
    mixed_flag(
        "--drift-threshold", type=_count("--drift-threshold", 1), default=None,
        metavar="POSITIONS",
        help="mixed mode: auto-promote a vertex whose degree rank "
        "drifted this far above its frozen rank (default: off)",
    )
    serve_bench.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the per-row reports as JSON (atomic: an interrupted "
        "run never leaves a torn file)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="run declarative serving scenarios with assertions",
        description="Execute declarative serving scenarios (traffic "
        "shape + fault schedule + replication config + expected-result "
        "assertions) and grade their expectations.  See docs/api.md, "
        "'Scenario format'.",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser(
        "list", help="list the committed scenario library"
    )
    scenario_run = scenario_sub.add_parser(
        "run",
        help="run scenarios (library names and/or spec files)",
        parents=[telemetry_flags],
    )
    scenario_run.add_argument(
        "scenarios", nargs="*", metavar="NAME_OR_PATH",
        help="library scenario names or paths to spec files "
        "(default: the whole committed library)",
    )
    scenario_run.add_argument(
        "--fail-on-assert", action="store_true",
        help="exit non-zero when any expectation fails "
        "(default: report failures but exit 0)",
    )
    scenario_run.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write a combined JSON report of all runs (atomic write)",
    )

    trace = sub.add_parser(
        "trace", help="summarize a JSONL telemetry trace"
    )
    trace.add_argument("file", type=_existing_file)
    trace.add_argument(
        "--top", type=_count("--top"), default=15,
        help="span names to show in the ranking (default 15)",
    )
    trace.add_argument(
        "--supersteps", type=_count("--supersteps"), default=20,
        help="super-step rows to show (default 20)",
    )
    trace.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="print only the request trace(s) with this trace ID",
    )
    trace.add_argument(
        "--slowest", type=_count("--slowest"), default=None, metavar="N",
        help="print the N slowest request traces with per-stage breakdown",
    )
    trace.add_argument(
        "--chrome-trace", type=Path, default=None, metavar="PATH",
        help="also export a Chrome trace-event JSON (load in Perfetto "
        "or chrome://tracing)",
    )
    trace.add_argument(
        "--flamegraph", type=Path, default=None, metavar="PATH",
        help="also export folded stacks for flamegraph tooling",
    )

    top = sub.add_parser(
        "top",
        help="live serving dashboard over a JSONL trace",
        description="Read the serve.request events of a trace and show "
        "throughput, latency percentiles, hit/shed rates, per-shard "
        "traffic, per-window traffic and tail latency, and the worst "
        "request traces.  Without --once the dashboard re-reads the "
        "file and refreshes until interrupted; --once --json prints one "
        "machine-readable snapshot (see docs/observability.md).",
    )
    top.add_argument("file", type=_existing_file)
    top.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit instead of live-refreshing",
    )
    top.add_argument(
        "--json", action="store_true",
        help="with --once: print the snapshot as JSON",
    )
    top.add_argument(
        "--refresh", type=_seconds("--refresh"), default=2.0, metavar="SECONDS",
        help="live-mode refresh interval (default 2s)",
    )
    top.add_argument(
        "--window", type=_seconds("--window"), default=None, metavar="SECONDS",
        help="window length in simulated seconds (default: span / 12)",
    )
    top.add_argument(
        "--slowest", type=_count("--slowest"), default=5, metavar="N",
        help="worst request traces to show (default 5)",
    )
    top.add_argument(
        "--run", type=int, default=None, metavar="N",
        help="select the N-th serving run in the file (1-based; "
        "default: aggregate all runs)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except ReproError as exc:
        # Simulated-resource failures (time limit, memory, super-step
        # limit), option combinations the library
        # refuses and missing input files are expected outcomes, not
        # bugs: report them like any other usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was piped into e.g. `head`; the truncation is
        # deliberate, so swallow the error instead of tracebacking.
        # Point the fd at devnull so the interpreter's final flush of
        # sys.stdout does not raise the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    handler = _HANDLERS[args.command]
    trace_out = getattr(args, "trace_out", None)
    verbose = getattr(args, "verbose", False)
    if trace_out is None and not verbose:
        return handler(args)

    from repro.telemetry.sinks import JsonlSink, LoggingSink

    sinks = []
    with ExitStack() as stack:
        if trace_out is not None:
            try:
                sinks.append(JsonlSink(trace_out))
            except OSError as exc:
                print(f"error: cannot write trace to {trace_out}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return 2
        if verbose:
            handler_obj = logging.StreamHandler(sys.stderr)
            handler_obj.setFormatter(logging.Formatter("%(name)s: %(message)s"))
            logger = logging.getLogger("repro.telemetry")
            logger.setLevel(logging.INFO)
            logger.addHandler(handler_obj)
            stack.callback(logger.removeHandler, handler_obj)
            sinks.append(LoggingSink(logger))
        with telemetry.session(sinks):
            with telemetry.trace_span(f"cli.{args.command}"):
                code = handler(args)
    if trace_out is not None:
        print(f"trace written to {trace_out}", file=sys.stderr)
    return code


def _cmd_datasets(args) -> int:
    print(f"{'name':6} {'type':10} {'paper |V|':>12} {'paper |E|':>14} medium")
    for spec in DATASETS.values():
        print(
            f"{spec.name:6} {spec.kind:10} {spec.paper_vertices:>12,} "
            f"{spec.paper_edges:>14,} {'yes' if spec.medium else ''}"
        )
    return 0


def _cmd_generate(args) -> int:
    factory = _GENERATORS[args.kind]
    try:
        graph = factory(args.vertices, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_edge_list(graph, args.output)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
          f"to {args.output}")
    return 0


def _cmd_build(args) -> int:
    graph = read_edge_list(args.graph)
    kwargs = {}
    if args.method in ("drl-b", "drl-b-m"):
        kwargs = dict(
            initial_batch_size=args.batch_size, growth_factor=args.growth_factor
        )
    cluster = dict(
        engine=args.engine if args.engine != "sim" else None,
        workers=args.workers,
    )
    cluster = {key: value for key, value in cluster.items() if value is not None}
    # The two rules only the CLI has (the simulator would ignore a
    # worker count, and ``build_index("tol", …)`` deliberately ignores
    # every cluster option); which of the rest combine is the library's
    # to refuse, and its ReproError / ValueError is the message.
    if args.workers is not None and args.engine != "mp":
        print("error: --workers only applies to --engine mp", file=sys.stderr)
        return 2
    if args.method == "tol" and cluster:
        print(
            "error: --engine needs a cluster method; the serial 'tol' "
            "baseline runs outside the Pregel engines",
            file=sys.stderr,
        )
        return 2
    if args.time_limit is not None:
        kwargs["cost_model"] = CostModel().with_time_limit(args.time_limit)
    try:
        result = build_index(
            graph, method=args.method, num_nodes=args.nodes, **kwargs, **cluster
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result.index.save(args.output)
    print(f"built {args.method} index for n={graph.num_vertices} "
          f"m={graph.num_edges}")
    print(f"  entries: {result.index.num_entries}  "
          f"size: {result.index.size_bytes() / 1024:.1f} KiB  "
          f"delta: {result.index.largest_label}")
    print(f"  {result.stats.summary()}")
    print(f"saved to {args.output}")
    return 0


def _parse_pairs_file(path: Path) -> tuple[list[tuple[int, int]], int]:
    """Parse a whitespace-separated pairs file, skipping bad lines.

    Returns ``(pairs, skipped)``; each malformed line (fewer than two
    columns, or non-integer tokens) is reported to stderr.
    """
    pairs: list[tuple[int, int]] = []
    skipped = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) < 2:
            print(
                f"warning: {path}:{lineno}: expected two columns, "
                f"got {len(tokens)}; skipped",
                file=sys.stderr,
            )
            skipped += 1
            continue
        try:
            pairs.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            print(
                f"warning: {path}:{lineno}: non-integer pair "
                f"{tokens[0]!r} {tokens[1]!r}; skipped",
                file=sys.stderr,
            )
            skipped += 1
    return pairs, skipped


def _cmd_query(args) -> int:
    index = ReachabilityIndex.load(args.index)
    skipped = 0
    if args.pairs is not None:
        pairs, skipped = _parse_pairs_file(args.pairs)
    elif args.source is not None and args.target is not None:
        pairs = [(args.source, args.target)]
    else:
        print("error: give SOURCE TARGET or --pairs FILE", file=sys.stderr)
        return 2
    for s, t in pairs:
        if not (0 <= s < index.num_vertices and 0 <= t < index.num_vertices):
            print(f"{s} {t} out-of-range")
            continue
        print(f"{s} {t} {'reachable' if index.query(s, t) else 'unreachable'}")
    if skipped:
        print(f"warning: skipped {skipped} malformed line(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_info(args) -> int:
    index = ReachabilityIndex.load(args.index)
    print(f"format:        version {index_file_version(args.index)}")
    print(f"vertices:      {index.num_vertices}")
    print(f"label entries: {index.num_entries}")
    print(f"size:          {index.size_bytes() / 1024:.1f} KiB")
    per_entry = index.memory_bytes() / max(1, index.num_entries)
    print(f"in memory:     {per_entry:.1f} B/entry")
    print(f"largest label: {index.largest_label}")
    print(f"average label: {index.average_label:.2f}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.graph.analysis import bowtie_decomposition, degree_summary
    from repro.graph.scc import strongly_connected_components

    graph = read_edge_list(args.graph)
    print(f"vertices: {graph.num_vertices}   edges: {graph.num_edges}")
    stats = degree_summary(graph)
    print(f"degrees:  max in {stats['max_in']}, max out {stats['max_out']}, "
          f"mean {stats['mean_degree']:.2f}")
    print(f"hub concentration: top-1% vertices hold "
          f"{stats['top1_in_share']:.0%} of in-degree")
    components = strongly_connected_components(graph)
    nontrivial = sum(1 for c in components if len(c) > 1)
    print(f"SCCs: {len(components)} ({nontrivial} non-trivial)")
    print(f"bow-tie: {bowtie_decomposition(graph).summary()}")
    return 0


def _cmd_validate(args) -> int:
    from repro.core.validate import check_cover, check_soundness

    graph = read_edge_list(args.graph)
    index = ReachabilityIndex.load(args.index)
    cover = check_cover(index, graph, sample=args.sample)
    soundness = check_soundness(index, graph)
    print(f"cover:     {cover}")
    print(f"soundness: {soundness}")
    for violation in (cover.violations + soundness.violations)[:10]:
        print(f"  violation: {violation}")
    suppressed = cover.suppressed + soundness.suppressed
    if suppressed:
        print(f"  ... {suppressed} further violation(s) suppressed")
    return 0 if cover.ok and soundness.ok else 1


def _cmd_bench(args) -> int:
    from repro.bench import harness
    from repro.bench.results import capture_tables

    with capture_tables() as started:
        try:
            tables = harness.sweep(EXPERIMENTS[args.experiment], args.datasets)
        except KeyboardInterrupt:
            # Measurements land in their tables cell by cell; print what
            # completed before the interrupt instead of discarding it.
            print("interrupted — partial results:", file=sys.stderr)
            for table in started:
                if table.rows:
                    print(table.render())
                    print()
            return 130
    for table in tables:
        print(table.render())
        print()
    return _gate_on_baseline(args, args.experiment, tables)


def _gate_on_baseline(args, name: str, tables: list) -> int:
    """``--check-baseline`` / ``--save-baseline`` for a finished bench
    run; returns the exit code (1 when the check failed)."""
    exit_code = 0
    if args.check_baseline is not None or args.save_baseline is not None:
        from repro.bench.baseline import (
            DEFAULT_THRESHOLD,
            compare_to_baseline,
            default_baseline_path,
            load_baseline,
            save_baseline,
        )

        if args.check_baseline is not None:
            path = (
                Path(args.check_baseline)
                if args.check_baseline
                else default_baseline_path(name)
            )
            threshold = (
                args.baseline_threshold
                if args.baseline_threshold is not None
                else DEFAULT_THRESHOLD
            )
            comparison = compare_to_baseline(
                load_baseline(path), tables, threshold=threshold
            )
            print(comparison.render())
            if not comparison.ok:
                exit_code = 1
        if args.save_baseline is not None:
            path = (
                Path(args.save_baseline)
                if args.save_baseline
                else default_baseline_path(name)
            )
            saved = save_baseline(name, tables, path)
            print(f"baseline saved to {saved}", file=sys.stderr)
    return exit_code


def _serve_bench_spec(args):
    """The one :class:`~repro.scenarios.spec.ScenarioSpec` serve-bench's
    flags name: its defaults are the flags'.  ``--mode mixed`` adds a
    writable leader, its replicas and a served write stream."""
    from repro.scenarios.spec import (
        GraphSpec,
        ReplicationSpec,
        ScenarioSpec,
        ServingSpec,
        TrafficSpec,
        UpdatesSpec,
    )

    mixed = args.mode == "mixed"
    return ScenarioSpec(
        name="serve-bench-mixed" if mixed else "serve-bench",
        graph=GraphSpec(kind=args.kind, vertices=args.vertices, seed=args.seed),
        traffic=TrafficSpec(
            requests=args.requests, skew=args.zipf, pairs_seed=args.seed,
            shape=args.arrival, rate=args.rate, arrivals_seed=args.seed + 7,
            clients=args.clients if args.arrival == "closed" else None,
        ),
        serving=ServingSpec(
            shards=args.shards, partitioner=args.partitioner,
            replicas=args.replicas if mixed else 1,
            cache_size=args.cache_size,
            negative_cache=not args.no_negative_cache,
            queue_depth=args.queue_depth, batch_size=args.batch_size,
            deadline_seconds=args.deadline,
        ),
        replication=ReplicationSpec(
            delay_seconds=args.replication_delay, max_lag=args.max_lag
        ) if mixed else None,
        updates=UpdatesSpec(
            count=args.writes, insert_ratio=args.insert_ratio,
            node_ratio=args.node_ratio, promote_ratio=args.promote_ratio,
            seed=args.seed + 13, via="serve", rate=args.write_rate,
            drift_threshold=args.drift_threshold,
        ) if mixed else None,
    )


def _cmd_serve_bench(args) -> int:
    from repro.scenarios.bench import caching_speedup, serve_bench

    if args.cache_only and args.no_cache:
        print("error: --cache-only and --no-cache exclude each other",
              file=sys.stderr)
        return 2
    if args.mode != "mixed" and args.mixed_flags:
        print(f"error: only --mode mixed takes {', '.join(args.mixed_flags)}",
              file=sys.stderr)
        return 2
    if args.mode == "mixed" and args.node_ratio + args.promote_ratio > 1:
        print("error: --node-ratio + --promote-ratio must not exceed 1, got "
              f"{args.node_ratio:g} + {args.promote_ratio:g}", file=sys.stderr)
        return 2
    # An edge-list file is served as given; without one, the bench
    # generates the graph the spec names.
    graph = read_edge_list(args.graph) if args.graph is not None else None
    spec = _serve_bench_spec(args)
    rows = tuple(
        row for row, wanted in (
            ("cached", not args.no_cache), ("uncached", not args.cache_only)
        ) if wanted
    )
    try:
        table, results = serve_bench(spec, graph, rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row, result in results.items():
        print(f"[{row}]")
        print(result.report.summary())
        print(f"audit: {result.audited} answers checked against the "
              f"oracle, {result.incorrect_answers} incorrect")
        print()
    print(table.render())
    speedup = caching_speedup(results)
    if speedup is not None:
        print(f"\ncaching speedup: {speedup:.2f}x throughput")
    if args.report is not None:
        import dataclasses
        import json as json_module

        from repro.bench.results import atomic_write_text

        payload = {
            "rows": {
                row: {**dataclasses.asdict(result.report), "audit": result.audit}
                for row, result in results.items()
            },
        }
        if speedup is not None:
            payload["caching_speedup"] = speedup
        atomic_write_text(
            args.report, json_module.dumps(payload, indent=2) + "\n"
        )
        print(f"report written to {args.report}", file=sys.stderr)
    return _gate_on_baseline(args, spec.name, [table])


def _cmd_scenario(args) -> int:
    from repro.scenarios import (
        library_scenarios,
        load_scenario,
        run_scenario,
        write_scenario_report,
    )

    library = library_scenarios()
    if args.scenario_command == "list":
        if not library:
            print("no committed scenarios found")
            return 0
        width = max(len(name) for name in library)
        for name, path in library.items():
            spec = load_scenario(path)
            print(f"{name:<{width}}  {spec.description or '(no description)'}")
        return 0

    names = args.scenarios or sorted(library)
    specs = []
    for name in names:
        if name in library:
            specs.append(load_scenario(library[name]))
        elif Path(name).exists():
            specs.append(load_scenario(Path(name)))
        else:
            print(
                f"error: {name!r} is neither a library scenario "
                f"({', '.join(sorted(library)) or 'none committed'}) "
                f"nor a spec file",
                file=sys.stderr,
            )
            return 2
    results = []
    for spec in specs:
        result = run_scenario(spec)
        results.append(result)
        print(result.render())
        print()
    passed = sum(result.ok for result in results)
    print(f"{passed}/{len(results)} scenario(s) passed")
    if args.report is not None:
        write_scenario_report(results, args.report)
        print(f"report written to {args.report}", file=sys.stderr)
    if args.fail_on_assert and passed != len(results):
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz.runner import replay_failure, run_fuzz

    if args.replay is not None:
        data, result = replay_failure(args.replay)
        print(f"replaying {args.replay}")
        print(f"  {data['case'].describe()}")
        if "fingerprint" in data:
            print(f"  recorded failure: [{data.get('oracle', '?')}] "
                  f"{data.get('message', '')}")
        if result.ok:
            print("  all oracles pass — the failure no longer reproduces")
            return 0
        for failure in result.failures:
            print(f"  [{failure.oracle}] {failure.message}")
        return 1

    count = args.cases
    if count is None and args.time_budget is None:
        count = 100
    report = run_fuzz(
        seed=args.seed,
        count=count,
        time_budget=args.time_budget,
        families=args.families or None,
        failures_dir=args.failures_dir,
        shrink=not args.no_shrink,
        engine=args.engine,
        progress=lambda message: print(message, file=sys.stderr),
    )
    print(report.render())
    return 0 if report.ok else 1


def _read_trace_tolerantly(path: Path):
    """Shared trace loading for ``trace`` and ``top``: returns
    ``(trace, exit_code)`` where trace is ``None`` on a hard error.

    Malformed lines and records are reported to stderr as counted
    warnings and turn the eventual exit code into 1 (the summary still
    prints), matching ``query --pairs``.
    """
    from repro.telemetry.reader import TraceReadError, read_trace

    try:
        trace = read_trace(path)
    except (TraceReadError, OSError) as exc:
        # OSError: `top`'s live mode re-reads a file that may have gone.
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    for reason in trace.skipped[:5]:
        print(f"warning: {reason}; skipped", file=sys.stderr)
    if trace.skipped:
        print(
            f"warning: skipped {len(trace.skipped)} malformed line(s)",
            file=sys.stderr,
        )
        return trace, 1
    return trace, 0


def _cmd_trace(args) -> int:
    from repro.observe.dashboard import format_request
    from repro.observe.export import write_chrome_trace, write_folded_stacks
    from repro.observe.report import slowest_requests_section, summarize_trace

    trace, exit_code = _read_trace_tolerantly(args.file)
    if trace is None:
        return exit_code
    # Export before printing: a closed stdout pipe must not lose the files.
    if args.chrome_trace is not None:
        write_chrome_trace(trace, args.chrome_trace)
        print(f"chrome trace written to {args.chrome_trace}", file=sys.stderr)
    if args.flamegraph is not None:
        write_folded_stacks(trace, args.flamegraph)
        print(f"folded stacks written to {args.flamegraph}", file=sys.stderr)
    if args.trace_id is not None:
        matches = [r for r in trace.requests if r.trace_id == args.trace_id]
        if not matches:
            print(f"error: no request trace with ID {args.trace_id!r} "
                  f"in {args.file}", file=sys.stderr)
            return 1
        for request in matches:
            print(format_request(request))
        return exit_code
    if args.slowest is not None:
        section = slowest_requests_section(trace, args.slowest)
        if section is None:
            print(f"error: no served request traces in {args.file}",
                  file=sys.stderr)
            return 1
        print(section)
        return exit_code
    print(summarize_trace(trace, top=args.top, superstep_limit=args.supersteps))
    return exit_code


def _cmd_top(args) -> int:
    import time

    from repro.observe.dashboard import DashboardModel

    if args.json and not args.once:
        print("error: --json needs --once", file=sys.stderr)
        return 2

    def build_model():
        trace, exit_code = _read_trace_tolerantly(args.file)
        if trace is None:
            return None, exit_code
        try:
            model = DashboardModel.from_trace(
                trace,
                run=args.run,
                window_seconds=args.window,
                slowest=args.slowest,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None, 2
        return model, exit_code

    if args.once:
        model, exit_code = build_model()
        if model is None:
            return exit_code
        if not model.requests:
            print(f"error: no request traces in {args.file} "
                  "(run serve-bench with --trace-out)", file=sys.stderr)
            return 1
        if args.json:
            import json as _json

            print(_json.dumps(model.to_json(), indent=2))
        else:
            print(model.render())
        return exit_code
    # Live mode: re-read and re-render until interrupted.
    try:
        while True:
            model, exit_code = build_model()
            if model is None:
                return exit_code
            # ANSI clear + home, then the fresh frame.
            sys.stdout.write("\x1b[2J\x1b[H")
            print(model.render())
            print(f"\n(refreshing every {args.refresh:g}s — Ctrl-C to exit)")
            sys.stdout.flush()
            time.sleep(args.refresh)
    except KeyboardInterrupt:
        return 0


_HANDLERS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "build": _cmd_build,
    "query": _cmd_query,
    "info": _cmd_info,
    "analyze": _cmd_analyze,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "serve-bench": _cmd_serve_bench,
    "scenario": _cmd_scenario,
    "fuzz": _cmd_fuzz,
    "trace": _cmd_trace,
    "top": _cmd_top,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
