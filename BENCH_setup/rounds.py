#!/usr/bin/env python3
"""In-process set-up rounds alternating two trees.

    python3 BENCH_setup/rounds.py --parent-src OLD/src/boolsearch --workload qa-50k --rounds 20

Run from the root of a checkout. The parent's package is copied under the
name boolsearch_parent beside this tree's boolsearch, so both load in one
process. Each round times load_corpus, build_index (cosine, the benchmark's
embedder spec), save_index and load_index once per tree, on the inputs
bench/workloads.py writes for --workload and --seed; which tree goes first
alternates by round. Prints each call's median per tree, the change and in
how many rounds this tree was faster.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = ("load_corpus", "build_index", "save_index", "load_index")


def setup(pkg, corpus_path: Path, index_path: Path) -> list[float]:
    spec = pkg.embed.EmbedderSpec(dim=256, seed=0)
    t = [time.perf_counter()]
    corpus = pkg.data.load_corpus(corpus_path)
    t.append(time.perf_counter())
    built = pkg.index.build_index(corpus, spec, "cosine")
    t.append(time.perf_counter())
    pkg.index.save_index(built, index_path)
    t.append(time.perf_counter())
    pkg.index.load_index(index_path, spec)
    t.append(time.perf_counter())
    return [b - a for a, b in zip(t, t[1:])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="the parent tree's src/boolsearch directory")
    parser.add_argument("--workload", default="qa-50k")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(args.parent_src, work / "boolsearch_parent")
        sys.path[:0] = [str(ROOT / "src"), str(work), str(ROOT / "bench")]
        import boolsearch
        import boolsearch_parent
        from workloads import WORKLOADS, write_inputs

        corpus_path = write_inputs(WORKLOADS[args.workload], args.seed, work / "inputs").corpus_path
        index_path = work / "corpus.idx"
        sides = {"parent": boolsearch_parent, "change": boolsearch}
        times: dict[str, list[list[float]]] = {"parent": [], "change": []}
        for pkg in sides.values():  # warm-up
            setup(pkg, corpus_path, index_path)
        for r in range(args.rounds):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                times[side].append(setup(sides[side], corpus_path, index_path))

    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds, ms per call (median)")
    print(f"{'call':12s} {'parent':>10s} {'change':>10s} {'change':>8s} {'faster in':>12s}")
    for i, label in enumerate((*STEPS, "set-up")):
        old = [sum(t) if label == "set-up" else t[i] for t in times["parent"]]
        new = [sum(t) if label == "set-up" else t[i] for t in times["change"]]
        a, b = statistics.median(old), statistics.median(new)
        wins = sum(y < x for x, y in zip(old, new))
        print(f"{label:12s} {1e3 * a:10.2f} {1e3 * b:10.2f} {100 * (b / a - 1):+7.1f}% "
              f"{wins:5d} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
