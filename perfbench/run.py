"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload session-churn --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=int, default=0, metavar="N",
        help="record fingerprints of the first N requests at --seed, "
        "then exit (no timing)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import REGISTRY

    if args.workload not in REGISTRY:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(REGISTRY)}", file=sys.stderr)
        return 2
    return bench.main(ROOT, args)


if __name__ == "__main__":
    sys.exit(main())
