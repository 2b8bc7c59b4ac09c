#!/usr/bin/env python3
"""Same results and in-process timings of top_k, alternating two trees.

    python3 BENCH_screen/rounds.py --parent-src OLD/src/boolsearch --workload qa-50k --rounds 12

Run from the root of a checkout. The parent's package is copied under the
name boolsearch_parent beside this tree's boolsearch, so both load in one
process, each over the same index file. The questions are the seed's: the
qa workloads' from bench/workloads.py, loop-1k's from the benchmark's own
generation stages. Every top_k call of one pass in the three modes (whole:
the question at final_k; expr and decompose: each atom at the candidate
depth) is made by both trees, which must return the same ids and score
reprs; the survivors of each tree's screen are counted per call.

Each round then times, per tree, every call's _screen and every
evaluation per mode; which tree goes first alternates by round. Printed:
each measure's median over rounds per tree, the change and in how many
rounds this tree was faster. The screen is also timed as a plain float32
column loop over the query's columns, the screen that postings replaced.
"""

from __future__ import annotations

import argparse
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MODES = ("whole", "expr", "decompose")


def survivors(pkg, index, text: str, k: int) -> int:
    """The rows of one top_k call that its screen keeps, as top_k finds them."""
    m = pkg.index
    vec = m.embed_query(index, text)
    eps = m._screen_error(index.dim, index._row_norm_bound, math.sqrt(vec.dot(vec)))
    if math.isinf(eps):
        return len(index.matrix)
    nz = np.flatnonzero(vec)
    screen = m._screen(index, nz, vec[nz])
    t = float(np.sort(screen)[len(screen) - min(k, len(screen))])
    return int(np.count_nonzero(screen >= m._round_down_f32(t - 2.0 * eps)))


def column_loop(index, nz, terms):
    screen = np.zeros(len(index.matrix), dtype=np.float32)
    for j, term in zip(nz.tolist(), terms.astype(np.float32)):
        screen += index.matrix[:, j] * term
    return screen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="the parent tree's src/boolsearch directory")
    parser.add_argument("--workload", default="qa-50k")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(args.parent_src, work / "boolsearch_parent")
        sys.path[:0] = [str(ROOT / "src"), str(work), str(ROOT / "bench")]
        import boolsearch
        import boolsearch_parent
        import harness
        from spans import Tracer
        from workloads import WORKLOADS, write_inputs

        w = WORKLOADS[args.workload]
        inputs = write_inputs(w, args.seed, work / "inputs")
        corpus = boolsearch.data.load_corpus(inputs.corpus_path)
        index_path = work / "corpus.idx"
        boolsearch.index.save_index(boolsearch.index.build_index(corpus, harness.SPEC, "cosine"),
                                    index_path)
        if w.loop:
            _, _, flagged, judgments = harness.generation(
                Tracer(False), corpus, args.seed, w.topics, harness.LOOP_PER_TYPE, work,
                harness.stage_runner(Tracer(False), []))
            expressions = {q.question_id: q.expression for q in flagged}
            judgments = [j for j in judgments if j.qtype in harness.BOOLEAN]
        else:
            judgments = boolsearch.data.load_judgments(inputs.judgments_path)
            expressions = inputs.expressions
        items = [(j.question, expressions[j.question_id]) for j in judgments]
        sides = {"parent": boolsearch_parent, "change": boolsearch}
        indexes = {side: pkg.index.load_index(index_path) for side, pkg in sides.items()}

    q = boolsearch.query
    depth = w.final_k * w.depth_factor
    calls = {"whole": [(question, w.final_k) for question, _ in items]}
    calls["expr"] = [(a, depth) for _, e in items for a in harness.atoms(q.parse_boolean_query(e))]
    calls["decompose"] = [(a, depth) for question, _ in items
                          for a in harness.atoms(q.decompose_question(question))]
    every = [call for mode in MODES for call in calls[mode]]
    differ = 0
    for text, k in every:
        got = [[(d.doc_id, repr(d.score)) for d in pkg.index.top_k(indexes[side], text, k)]
               for side, pkg in sides.items()]
        differ += got[0] != got[1]
    counts = {side: [survivors(pkg, indexes[side], text, k) for text, k in every]
              for side, pkg in sides.items()}
    print(f"{args.workload} seed {args.seed}: {len(items)} questions, {len(every)} top_k calls, "
          f"{differ} with different ids or score reprs")
    for side, c in counts.items():
        print(f"  {side} survivors per call: mean {statistics.mean(c):.1f}, "
              f"median {statistics.median(c):.0f}, max {max(c)}")
    print(f"  survivor counts identical on every call: {counts['parent'] == counts['change']}")

    vecs = [boolsearch.index.embed_query(indexes["change"], text) for text, _ in every]
    screens = [(np.flatnonzero(v), v[np.flatnonzero(v)]) for v in vecs]
    screen_fns = {side: pkg.index._screen for side, pkg in sides.items()}
    times: dict[str, dict[str, list[float]]] = {side: {} for side in (*sides, "column loop")}

    def one_round(side: str) -> None:
        index = indexes["change" if side == "column loop" else side]
        fn = column_loop if side == "column loop" else screen_fns[side]
        per_call = []
        for nz, terms in screens:
            t0 = time.perf_counter()
            fn(index, nz, terms)
            per_call.append(time.perf_counter() - t0)
        times[side].setdefault("_screen per call", []).append(statistics.median(per_call))
        if side == "column loop":
            return
        policy = sides[side].query.MergePolicy(final_k=w.final_k,
                                               candidate_depth_factor=w.depth_factor)
        for mode in MODES:
            per_eval = []
            for question, expression in items:
                t0 = time.perf_counter()
                evaluate_in(sides[side], index, mode, question, expression, policy)
                per_eval.append(time.perf_counter() - t0)
            times[side].setdefault(f"{mode} per evaluation", []).append(
                statistics.median(per_eval))

    for r in range(args.rounds):
        order = ("parent", "change", "column loop") if r % 2 == 0 else \
            ("column loop", "change", "parent")
        for side in order:
            one_round(side)

    print(f"  {args.rounds} rounds, us (median of per-round medians)")
    print(f"  {'measure':24s} {'parent':>9s} {'change':>9s} {'change':>8s} {'faster in':>11s}"
          f" {'column loop':>12s}")
    for label in times["change"]:
        old, new = times["parent"][label], times["change"][label]
        a, b = statistics.median(old), statistics.median(new)
        wins = sum(y < x for x, y in zip(old, new))
        loop = times["column loop"].get(label)
        tail = f" {1e6 * statistics.median(loop):12.1f}" if loop else ""
        print(f"  {label:24s} {1e6 * a:9.1f} {1e6 * b:9.1f} {100 * (b / a - 1):+7.1f}% "
              f"{wins:4d} of {args.rounds}{tail}")
    return 0


def evaluate_in(pkg, index, mode: str, question: str, expression: str, policy):
    """bench/harness.py's evaluate, through the given tree's package."""
    q = pkg.query
    if mode == "whole":
        return q.whole_query_retrieve(index, question, policy.final_k)
    expr = q.parse_boolean_query(expression) if mode == "expr" else q.decompose_question(question)
    return q.evaluate_expr(index, expr, policy)


if __name__ == "__main__":
    sys.exit(main())
