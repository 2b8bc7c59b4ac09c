#!/usr/bin/env python3
"""Compare two result files written by bench/collect.py.

    python3 bench/compare.py OLD.json NEW.json

Prints one row per workload and end-to-end metric: both medians, the
change, and a verdict. A metric whose run-to-run spread (quartile distance
over median, on either side) is wider than its bound is "unresolved",
unless every new run beats every old run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    """Median, quartiles and spread as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else
            float("inf"), "n": len(values)}


def values(results: dict, workload: str, metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in results["runs"]
            if run["workload"] == workload and run["trace"] == 0
            and metric in run["result"]["metrics"]]


def verdict(old: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    a, b = summarize(old), summarize(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    all_better = (max(new) < min(old)) if better == "lower" else (min(new) > max(old))
    if max(a["spread"], b["spread"]) > bound:
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse beyond bound", worse_by
    if -worse_by > a["spread"]:
        return "better", worse_by
    return "within bound", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':11s} {'metric':22s} {'old median':>12s} {'new median':>12s} "
          f"{'change':>8s}  verdict")
    worse = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a, b = values(old, workload, metric["name"]), values(new, workload, metric["name"])
            if not a or not b:
                continue
            outcome, worse_by = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse beyond bound"
            change = (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
            print(f"{workload:11s} {metric['name']:22s} {statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {100 * change:+7.1f}%  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
