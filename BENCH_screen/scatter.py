#!/usr/bin/env python3
"""Three screens of the postings, timed in interleaved rounds.

    python3 BENCH_screen/scatter.py --workload qa-50k --rounds 20

Run from the root of a checkout. Over every top_k call of one seed-0 pass
of the workload (whole, expr and decompose), times per call: the float64
bincount screen this tree replaced (tests/_planted.oracle_screen), this
tree's _screen (one np.add.at of the float32 products), and a float32
screen that adds each posted column with a buffered screen[rows] += and
each dense column whole. Which screen goes first alternates by round.
Prints each one's median of per-round medians, the range of the round
medians, and in how many rounds np.add.at was faster.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def buffered(index, nz, terms):
    """A posting's rows are distinct, so one buffered add per column is exact."""
    screen = np.zeros(len(index.matrix), dtype=np.float32)
    for j, term in zip(nz.tolist(), terms.astype(np.float32)):
        posting = index._postings[j]
        if posting is None:
            screen += index.matrix[:, j] * term
        else:
            rows, values = posting
            screen[rows] += values * term
    return screen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="qa-50k")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]
    import boolsearch
    import harness
    from _planted import oracle_screen
    from spans import Tracer
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = write_inputs(w, 0, work / "inputs")
        corpus = boolsearch.data.load_corpus(inputs.corpus_path)
        index = boolsearch.index.build_index(corpus, harness.SPEC, "cosine")
        if w.loop:
            _, _, flagged, judgments = harness.generation(
                Tracer(False), corpus, 0, w.topics, harness.LOOP_PER_TYPE, work,
                harness.stage_runner(Tracer(False), []))
            expressions = {q.question_id: q.expression for q in flagged}
            judgments = [j for j in judgments if j.qtype in harness.BOOLEAN]
        else:
            judgments = boolsearch.data.load_judgments(inputs.judgments_path)
            expressions = inputs.expressions
    q = boolsearch.query
    texts = [j.question for j in judgments]
    texts += [a for j in judgments
              for a in harness.atoms(q.parse_boolean_query(expressions[j.question_id]))]
    texts += [a for j in judgments for a in harness.atoms(q.decompose_question(j.question))]
    calls = []
    for text in texts:
        vec = boolsearch.index.embed_query(index, text)
        nz = np.flatnonzero(vec)
        calls.append((nz, vec[nz]))

    screens = {"bincount (parent)": oracle_screen, "add.at (change)": boolsearch.index._screen,
               "buffered per column": buffered}
    times: dict[str, list[float]] = {name: [] for name in screens}
    for r in range(args.rounds):
        for name in screens if r % 2 == 0 else reversed(screens):
            per_call = []
            for nz, terms in calls:
                t0 = time.perf_counter()
                screens[name](index, nz, terms)
                per_call.append(time.perf_counter() - t0)
            times[name].append(statistics.median(per_call))
    print(f"{args.workload} seed 0: {len(calls)} calls, {args.rounds} interleaved rounds, "
          "us per call (median of round medians, range of round medians)")
    base = times["add.at (change)"]
    for name, values in times.items():
        wins = sum(b < v for b, v in zip(base, values))
        print(f"  {name:22s} {1e6 * statistics.median(values):8.1f}  "
              f"({1e6 * min(values):.1f}-{1e6 * max(values):.1f}); "
              f"add.at faster in {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
