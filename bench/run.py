#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload qa-50k --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones
from a traced run. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count once, at load: cap it before numpy is imported
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true",
        help="store the default seed's output digests in bench/golden.json",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "boolsearch" / "__init__.py").is_file():
        print(f"error: no boolsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import env
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), work, record=args.record_golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("env " + json.dumps(env.stamp(ROOT, BLAS_THREADS), sort_keys=True))
    for note in outcome.notes:
        print(note)
    for problem in outcome.tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:11s} {name:28s} {value:14.6g} {unit}")
    tally = outcome.tally
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0 and bool(outcome.metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
