#!/usr/bin/env python3
"""One-command reproduction of the paper's evaluation section.

Runs every experiment registered in ``repro.bench.EXPERIMENTS`` (Table
VI, Figs. 5-9, the ablations).  By default each runs on
one dataset, so the whole thing finishes in about a minute; pass
``--full`` for every dataset of every experiment (several minutes),
which is what ``pytest benchmarks/bench_paper.py`` also does, with the
paper-shape assertions.

Run:  python examples/reproduce_paper.py [--full]
"""

import argparse
import sys

from repro.bench import EXPERIMENTS, sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="all datasets of every experiment")
    args = parser.parse_args(argv)

    datasets = None if args.full else ["TW"]
    for name, experiment in EXPERIMENTS.items():
        print(f"=== repro bench {name} " + "=" * max(0, 56 - len(name)))
        for table in sweep(experiment, datasets):
            print(table.render())
            print()
    print("Interpretation notes and paper-vs-measured comparisons: "
          "see EXPERIMENTS.md.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
