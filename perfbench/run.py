#!/usr/bin/env python3
"""Wall-clock benchmark of the fuzzy SQL engine, end to end and per layer.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 25 --trace 0

Runs one workload (``analytic``, ``spill`` or ``oltp``; see
``perfbench/README.md``) as a closed loop with one client and prints every
metric by name with its unit, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced.  With ``--trace 1`` the
loop runs twice on fresh sessions of the same seed, untraced and then under
:class:`perfbench.layers.LayerTracer`; the metrics are the per-layer ones,
the exact counts of both passes must agree, and their wall difference is
reported as the tracing overhead.

Run from the root of a checkout; the benchmark imports the engine from
``src/`` and the query texts from ``benchmarks/run_bench.py``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The workloads :func:`perfbench.workloads.make` builds.
WORKLOADS = ("analytic", "spill", "oltp")


def positive(text: str) -> int:
    """An ``argparse`` type: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, bench = os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")
    if not (os.path.isdir(os.path.join(src, "repro"))
            and os.path.isfile(os.path.join(bench, "run_bench.py"))):
        print(f"perfbench: no engine under {ROOT} (need src/repro and "
              "benchmarks/run_bench.py); run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src, bench]
    from perfbench import measure

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
