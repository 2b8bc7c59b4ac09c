#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run.

    python3 bench/collect.py --seeds 0-9 --out bench/results/NAME.json

Each run is a fresh process, as the benchmark command runs it. The output
holds every run's result line, its seed and wall time, the environment
stamp, and per workload and metric the median, quartiles and spread
(quartile distance over median). bench/compare.py reads two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import summarize

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "env": env, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            run = run_once(spec["command"], workload, seed, spec["run_seconds"], args.trace)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {run['elapsed_s']:.1f}s",
                  file=sys.stderr)
            runs.append(run)
    summary = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            summary.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    payload = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "runs": runs,
        "summary": {w: {name: summarize(vals) for name, vals in metrics.items()}
                    for w, metrics in summary.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    for workload, metrics in payload["summary"].items():
        mine = [run for run in runs if run["workload"] == workload]
        print(f"{workload}: {len(mine)} runs, "
              f"{sum(r['result']['attempted'] for r in mine)} operations attempted, "
              f"{sum(r['result']['failed'] for r in mine)} failed, "
              f"all correct: {all(r['result']['correct'] for r in mine)}")
        units = mine[0]["result"]["metrics"]
        for name, s in metrics.items():
            print(f"  {name:28s} median {s['median']:12.6g} {units[name]['unit']:6s} "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g} spread {100 * s['spread']:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
