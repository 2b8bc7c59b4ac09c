"""Runs one workload: set-up, timed passes, correctness gate, traced run.

The benchmark drives each layer only through its public functions. A qa
workload evaluates harness-made Boolean questions over a large index; the
loop workload runs the paper's whole loop, from corpus file to scored runs,
with the same stage boundaries and file I/O as the command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from boolsearch import data, embed, generate, metrics, query
from boolsearch import index as index_mod
from boolsearch.data import Corpus, Passage, QuestionType

from oracle import oracle_top_k
from spans import TooFewSamples, Tracer, percentile, self_times
from workloads import EMBED_DIM, EMBED_SEED, LOOP_PER_TYPE, Workload, write_inputs

SPEC = embed.EmbedderSpec(dim=EMBED_DIM, seed=EMBED_SEED)
MODES = ("whole", "expr", "decompose")
EVAL_K = 10  # quality cutoff; deep lists are cut to their top 10 first
DEFAULT_SEED = 0
BOOLEAN = (QuestionType.AND, QuestionType.OR, QuestionType.NOT)
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# command-line defaults of `gen cluster`
SVD_RANK = 128
SAMPLE_CAP = 100_000

# the qa traced run also sends this many whole topics through the
# generation stages, so generate.* is measured on every workload
PROBE_TOPICS = 8
# traced qa passes repeat until every per-layer median has 20 samples
MAX_TRACED_PASSES = 3

LOOP_STAGES = (
    "data.load_corpus", "index.build", "index.save", "index.load",
    "generate.cluster_corpus", "generate.save_clusters", "generate.load_clusters",
    "generate.questions", "generate.filter", "generate.save_questions",
    "generate.load_questions", "generate.assemble", "data.save_judgments",
    "data.load_judgments", "query", "metrics.save_run", "metrics.load_run",
    "metrics.evaluate_run",
)


@dataclass
class Tally:
    """Operations attempted, the distinct ones that failed, and why.

    An operation is named by a tuple: (pass, question id, mode) for an
    evaluation, (pass, stage) for a loop stage."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, ops, why: str) -> None:
        self.failed_ops.update(ops)
        self.problems.append(why)


@dataclass
class QueryStats:
    latency: dict[str, list[float]] = field(default_factory=lambda: {m: [] for m in MODES})
    run_phase_s: float = 0.0

    @property
    def evaluations(self) -> int:
        return sum(len(v) for v in self.latency.values())


# ---------------------------------------------------------------------------
# calls into the program


def setup(tracer: Tracer, corpus_path: Path, index_path: Path):
    """load_corpus, build_index, save_index, load_index: what setup_s times."""
    with tracer.span("data.load_corpus"):
        corpus = data.load_corpus(corpus_path)
    with tracer.span("index.build"):
        built = index_mod.build_index(corpus, SPEC, "cosine")
    with tracer.span("index.save"):
        index_mod.save_index(built, index_path)
    with tracer.span("index.load"):
        loaded = index_mod.load_index(index_path, SPEC)
    return corpus, loaded


def evaluate(index, mode: str, question: str, expression: str, policy) -> index_mod.RankedList:
    if mode == "whole":
        return query.whole_query_retrieve(index, question, policy.final_k)
    if mode == "expr":
        expr = query.parse_boolean_query(expression)
    else:
        expr = query.decompose_question(question)
    return query.evaluate_expr(index, expr, policy)


def run_questions(index, items, policy, stats: QueryStats, failures: dict,
                  deadline: float = math.inf):
    """Closed loop, one client, no think time: every question in order,
    in all three modes, until the deadline. Returns the ranked lists by mode;
    `failures` maps (question id, mode) to what went wrong."""
    runs = {mode: {} for mode in MODES}
    started = time.perf_counter()
    for qid, question, expression in items:
        if time.perf_counter() >= deadline:
            break
        for mode in MODES:
            t0 = time.perf_counter()
            try:
                ranked = evaluate(index, mode, question, expression, policy)
            except Exception as exc:  # a failing evaluation is counted, not fatal
                failures[qid, mode] = f"{type(exc).__name__}: {exc}"
                continue
            stats.latency[mode].append(time.perf_counter() - t0)
            runs[mode][qid] = ranked
    stats.run_phase_s += time.perf_counter() - started
    return runs


def walk(tracer: Tracer, index, expr, policy) -> index_mod.RankedList:
    """evaluate_expr step by step: retrieve_atom per atom, a merge per
    node, then truncate, each in its own span of an enabled tracer."""
    depth = policy.candidate_depth_factor * policy.final_k

    def node(e):
        if isinstance(e, query.Atom):
            with tracer.span("index.top_k", text=e.text, depth=depth):
                return query.retrieve_atom(index, e.text, depth)
        left, right = node(e.left), node(e.right)
        if isinstance(e, query.And):
            with tracer.span("query.merge_and") as span:
                out = query.merge_and(left, right)
        elif isinstance(e, query.Or):
            with tracer.span("query.merge_or") as span:
                out = query.merge_or(left, right)
        else:
            with tracer.span("query.merge_not") as span:
                out = query.merge_not(left, right, policy.not_mode)
        span.attrs.update(left=len(left), right=len(right), out=len(out))
        return out

    ranked = node(expr)
    with tracer.span("query.truncate") as span:
        ranked = ranked.truncate(policy.final_k)
    span.attrs["out"] = len(ranked)
    return ranked


def traced_questions(tracer: Tracer, index, items, policy, failures: dict,
                     untraced: QueryStats):
    """The traced counterpart of run_questions. Right after each traced
    evaluation the same one runs untraced, outside any span: its result must
    match, and its time, recorded in `untraced`, is the overhead's base."""
    runs = {mode: {} for mode in MODES}
    for qid, question, expression in items:
        for mode in MODES:
            tracer.trace_id = f"{qid}/{mode}"
            try:
                with tracer.span("question", mode=mode):
                    if mode == "whole":
                        with tracer.span("index.top_k", text=question, depth=policy.final_k):
                            ranked = query.whole_query_retrieve(index, question, policy.final_k)
                    else:
                        if mode == "expr":
                            with tracer.span("query.parse"):
                                expr = query.parse_boolean_query(expression)
                        else:
                            with tracer.span("query.decompose"):
                                expr = query.decompose_question(question)
                        ranked = walk(tracer, index, expr, policy)
                t0 = time.perf_counter()
                expected = evaluate(index, mode, question, expression, policy)
                untraced.latency[mode].append(time.perf_counter() - t0)
            except Exception as exc:  # counted like an untraced failure
                failures[qid, mode] = f"{type(exc).__name__}: {exc}"
                continue
            if ranked != expected:
                failures[qid, mode] = "traced walk differs from evaluate_expr"
            runs[mode][qid] = ranked
    return runs


def score_runs(tracer: Tracer, runs, judgments, work: Path):
    """Write, read back and score each mode's run at k=10."""
    reports = {}
    for mode in MODES:
        top = {qid: ranked.truncate(EVAL_K) for qid, ranked in runs[mode].items()}
        path = work / f"run-{mode}.jsonl"
        with tracer.span("metrics.save_run"):
            metrics.save_run(top, path)
        with tracer.span("metrics.load_run"):
            loaded = metrics.load_run(path)
        with tracer.span("metrics.evaluate_run"):
            reports[mode] = metrics.evaluate_run(loaded, judgments, EVAL_K)
    return reports


def clustering(tracer: Tracer, corpus: Corpus, seed: int, target: int):
    """cluster_corpus, or in a traced run its three steps with the same
    arguments, so each shows as its own span."""
    if not tracer.enabled:
        return generate.cluster_corpus(
            corpus, SPEC, svd_rank=SVD_RANK, sample_cap=SAMPLE_CAP, seed=seed,
            target_count=target,
        )
    with tracer.span("generate.embed"):
        matrix = np.vstack(embed.embed_texts(SPEC, list(corpus.texts)))
    rank = min(SVD_RANK, matrix.shape[1] - 1)
    with tracer.span("generate.reduce"):
        reduced = generate.reduce_dims(
            matrix, rank=rank, sample_cap=max(SAMPLE_CAP, rank), seed=seed
        )
    with tracer.span("generate.cluster"):
        return generate.cluster_passages(reduced, corpus.ids, target_count=target)


def generation(tracer: Tracer, corpus: Corpus, seed: int, target: int, per_type: int,
               work: Path, stage):
    """The `gen cluster/questions/filter/assemble` stages with their files."""
    clusters = stage("generate.cluster_corpus", clustering, tracer, corpus, seed, target)
    stage("generate.save_clusters", generate.save_clusters, clusters, work / "clusters.json")
    loaded = stage("generate.load_clusters", generate.load_clusters, work / "clusters.json")
    spec = generate.GeneratorSpec(mode="template", seed=seed, n_per_type=per_type)
    questions = stage("generate.questions", generate.generate_questions, corpus, loaded, spec)
    flagged = stage("generate.filter", generate.apply_cyclic_filter, questions, corpus, spec)
    stage("generate.save_questions", generate.save_questions, flagged, work / "questions.jsonl")
    flagged = stage("generate.load_questions", generate.load_questions, work / "questions.jsonl")
    judgments, _ = stage("generate.assemble", generate.assemble_dataset, flagged, corpus)
    return clusters, questions, flagged, judgments


def stage_runner(tracer: Tracer, done: list[str]):
    """A stage is one call in its own span; `done` lists completed stages."""

    def stage(name, fn, *args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        done.append(name)
        return result

    return stage


# ---------------------------------------------------------------------------
# correctness


def runs_digest(run, qids) -> str:
    h = hashlib.sha256()
    for qid in qids:
        h.update(qid.encode() + b"\n")
        ranked = run.get(qid)
        if ranked is None:
            h.update(b"<missing>\n")
            continue
        for item in ranked:
            h.update(f"{item.doc_id}\t{item.score!r}\n".encode())
    return h.hexdigest()


def json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def harness_quality(run, judgments, k: int = EVAL_K):
    """MRR@k and NegRecall@k computed here, to cross-check evaluate_run."""
    mrrs, negs = [], []
    for j in judgments:
        ids = [item.doc_id for item in run.get(j.question_id, index_mod.RankedList(())).items[:k]]
        mrrs.append(next((1.0 / r for r, d in enumerate(ids, 1) if d in j.positives), 0.0))
        if j.negatives:
            negs.append(len(set(ids) & j.negatives) / len(j.negatives))
    return sum(mrrs) / len(mrrs), sum(negs) / len(negs)


def check_reports(runs, judgments, reports, tally: Tally, ops_of) -> None:
    for mode in MODES:
        mrr, neg = harness_quality(runs[mode], judgments)
        overall = reports[mode].overall
        if not (math.isclose(mrr, overall.mrr, rel_tol=1e-12)
                and math.isclose(neg, overall.neg_recall, rel_tol=1e-12)):
            tally.fail(ops_of("report", mode), f"evaluate_run disagrees with the harness on {mode}")


def atoms(expr) -> list[str]:
    if isinstance(expr, query.Atom):
        return [expr.text]
    return atoms(expr.left) + atoms(expr.right)


def oracle_gate(index, items, policy, per_mode: int, rng) -> dict:
    """Check the top_k calls of a seeded sample of evaluations against the
    full-sort oracle; maps each (question id, mode) that disagrees to why."""
    problems = {}
    depth = policy.candidate_depth_factor * policy.final_k
    for mode in MODES:
        for at in rng.choice(len(items), size=min(per_mode, len(items)), replace=False):
            qid, question, expression = items[int(at)]
            if mode == "whole":
                calls = [(question, policy.final_k)]
            else:
                expr = (query.parse_boolean_query(expression) if mode == "expr"
                        else query.decompose_question(question))
                calls = [(text, depth) for text in atoms(expr)]
            for text, k in calls:
                try:
                    got = [(item.doc_id, item.score) for item in index_mod.top_k(index, text, k)]
                except Exception as exc:  # counted as a failed evaluation
                    got = f"{type(exc).__name__}: {exc}"
                if got != oracle_top_k(index, text, k):
                    problems[qid, mode] = f"top_k({text!r}, {k}) differs from the oracle"
                    break
    return problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(tally: Tally, stats: QueryStats, setup_times, pass_times, reports) -> Outcome:
    pooled = [v for values in stats.latency.values() for v in values]
    m = {f"{mode}_p50_ms": (1e3 * percentile(stats.latency[mode], 50), "ms") for mode in MODES}
    m["query_p90_ms"] = (1e3 * percentile(pooled, 90), "ms")
    m["qps"] = (stats.evaluations / stats.run_phase_s, "1/s")
    m["setup_s"] = (statistics.median(setup_times), "s")
    m["loop_s"] = (statistics.median(pass_times), "s")
    for mode in MODES:
        m[f"mrr10_{mode}"] = (reports[mode].overall.mrr, "score")
        m[f"negrecall10_{mode}"] = (reports[mode].overall.neg_recall, "ratio")
    # ru_maxrss is in KiB
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    return Outcome(tally, m, [f"query_p90_ms over {stats.evaluations} evaluations"])


def layer_metrics(tracer: Tracer, policy, passes: int, index_path: Path,
                  generated: int, kept: int) -> dict:
    spans = tracer.spans
    own = dict(zip(map(id, spans), self_times(spans)))
    named = lambda name: [s for s in spans if s.name == name]
    total = lambda *names: sum(s.duration for n in names for s in named(n))
    p = lambda name, q, scale: scale * percentile([s.duration for s in named(name)], q)

    questions = named("question")
    topk = named("index.top_k")
    merges = [s for s in spans if s.name.startswith("query.merge_")]
    ands = named("query.merge_and")
    final = named("query.truncate")
    chunks = named("embed.embed_texts")
    return {
        "data.load_corpus_s": (total("data.load_corpus"), "s"),
        "data.judgments_io_ms": (1e3 * total("data.save_judgments", "data.load_judgments"), "ms"),
        "embed.passages_per_s": (sum(s.attrs["n"] for s in chunks) / total("embed.embed_texts"), "1/s"),
        "embed.query_p50_us": (p("embed.query", 50, 1e6), "us"),
        "index.build_s": (total("index.build"), "s"),
        "index.save_s": (total("index.save"), "s"),
        "index.load_s": (total("index.load"), "s"),
        "index.file_mb": (index_path.stat().st_size / 1e6, "MB"),
        "index.topk_p50_ms": (p("index.top_k", 50, 1e3), "ms"),
        "index.topk_p90_ms": (p("index.top_k", 90, 1e3), "ms"),
        "index.topk_share": (sum(own[id(s)] for s in topk)
                             / sum(s.duration for s in questions), "ratio"),
        "index.topk_calls": (len(topk) / passes, "count"),
        "index.topk_distinct_ratio": (
            len({(s.attrs["text"], s.attrs["depth"]) for s in topk}) / len(topk), "ratio"),
        "query.parse_p50_us": (p("query.parse", 50, 1e6), "us"),
        "query.decompose_p50_us": (p("query.decompose", 50, 1e6), "us"),
        "query.merge_and_p50_us": (p("query.merge_and", 50, 1e6), "us"),
        "query.merge_or_p50_us": (p("query.merge_or", 50, 1e6), "us"),
        "query.merge_not_p50_us": (p("query.merge_not", 50, 1e6), "us"),
        "query.merge_calls": (len(merges) / passes, "count"),
        "query.and_survivor_ratio": (sum(s.attrs["out"] for s in ands)
                                     / sum(s.attrs["left"] for s in ands), "ratio"),
        "query.starved_rate": (sum(1 for s in final if s.attrs["out"] < policy.final_k)
                               / len(final), "ratio"),
        "metrics.evaluate_run_ms": (1e3 * total("metrics.evaluate_run") / passes, "ms"),
        "metrics.run_io_ms": (1e3 * total("metrics.save_run", "metrics.load_run") / passes,
                              "ms"),
        "generate.embed_s": (total("generate.embed"), "s"),
        "generate.reduce_s": (total("generate.reduce"), "s"),
        "generate.cluster_s": (total("generate.cluster"), "s"),
        "generate.questions_s": (total("generate.questions"), "s"),
        "generate.questions_n": (generated, "count"),
        "generate.filter_s": (total("generate.filter"), "s"),
        "generate.filter_kept_ratio": (kept / generated, "ratio"),
        "generate.assemble_s": (total("generate.assemble"), "s"),
        "generate.io_ms": (1e3 * total("generate.save_clusters", "generate.load_clusters",
                                       "generate.save_questions", "generate.load_questions"), "ms"),
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    tally: Tally
    metrics: dict  # name -> (value, unit)
    notes: list[str]  # printed before the result line


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, work: Path,
                 record: bool = False) -> Outcome:
    inputs = write_inputs(workload, seed, work / "inputs")
    policy = query.MergePolicy(
        final_k=workload.final_k, candidate_depth_factor=workload.depth_factor
    )
    rng = np.random.default_rng([seed, 7])
    run = run_loop if workload.loop else run_qa
    tally = Tally()
    try:
        return run(workload, seed, seconds, traced, work, inputs, policy, rng, record, tally)
    except TooFewSamples as exc:  # too many evaluations failed to report timings
        return Outcome(tally, {}, [f"no metrics: {exc}"])


def timed_setups(count: int, corpus_path: Path, index_path: Path):
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        corpus, index = setup(Tracer(False), corpus_path, index_path)
        times.append(time.perf_counter() - t0)
    return times, corpus, index


def embed_throughput(tracer: Tracer, texts) -> None:
    """embed_texts over the corpus in the chunks build_index uses."""
    tracer.trace_id = "embed"
    for start in range(0, len(texts), 1024):
        chunk = list(texts[start : start + 1024])
        with tracer.span("embed.embed_texts", n=len(chunk)):
            embed.embed_texts(SPEC, chunk)


def embed_queries(tracer: Tracer, index, limit: int = 200) -> None:
    """embed_query alone, on the texts the traced top_k calls embedded."""
    tracer.trace_id = "embed"
    for span in tracer.named("index.top_k")[:limit]:
        with tracer.span("embed.query"):
            index_mod.embed_query(index, span.attrs["text"])


def enough_samples(tracer: Tracer) -> bool:
    medians = ("query.parse", "query.decompose", "query.merge_and", "query.merge_or",
               "query.merge_not")
    return (all(len(tracer.named(n)) >= 20 for n in medians)
            and len(tracer.named("index.top_k")) >= 100)


def check_passes(tally: Tally, first: dict, later: dict, ops) -> None:
    """A digest that differs from the first pass's fails `ops(key)`."""
    for key, digest in first.items():
        if later.get(key) != digest:
            tally.fail(ops(key), f"{key} differs from the first pass")


def fill(index, items, policy, stats: QueryStats, tally: Tally, deadline: float,
         expected) -> None:
    """Keep asking the questions, in order, until the deadline; each answer
    must equal the first pass's."""
    round_ = 0
    while time.perf_counter() < deadline:
        round_ += 1
        failures: dict = {}
        runs = run_questions(index, items, policy, stats, failures, deadline)
        tally.attempted += sum(map(len, runs.values())) + len(failures)
        for mode in MODES:
            for qid, ranked in runs[mode].items():
                if ranked != expected[mode].get(qid):
                    failures[qid, mode] = "differs from the first pass"
        for (qid, mode), why in failures.items():
            tally.fail([("fill", round_, qid, mode)], f"{qid}/{mode}: {why}")


def gate(tally: Tally, workload: Workload, seed: int, digests: dict, record: bool,
         ops) -> None:
    """Golden digests for the default seed: record them, or compare; a
    differing digest fails the operations that produced it."""
    if seed != DEFAULT_SEED:
        return
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if record:
        golden[workload.name] = digests
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return
    if workload.name not in golden:
        tally.fail([("golden",)], f"no digests for {workload.name} in {GOLDEN_PATH.name}")
    for key, value in golden.get(workload.name, {}).items():
        if digests.get(key) != value:
            tally.fail(ops(key), f"{key} digest differs from {GOLDEN_PATH.name}")


def coverage_note(tracer: Tracer, untraced_s: float) -> str:
    """How much of the untraced question time the layer spans account for."""
    layer = ("query.parse", "query.decompose", "index.top_k", "query.truncate")
    spans = tracer.spans
    own = self_times(spans)
    covered = sum(t for s, t in zip(spans, own)
                  if s.name in layer or s.name.startswith("query.merge_"))
    return (f"trace coverage: layer self time {covered:.3f} s = "
            f"{100 * covered / untraced_s:.1f}% of untraced question time {untraced_s:.3f} s")


def run_qa(w, seed, seconds, traced, work, inputs, policy, rng, record, tally) -> Outcome:
    notes = []
    index_path = work / "corpus.idx"
    tracer = Tracer(traced)
    if traced:
        tracer.trace_id = "setup"
        corpus, index = setup(tracer, inputs.corpus_path, index_path)
    else:
        # set-ups before and after the timed phase meet different host noise
        setup_times, corpus, index = timed_setups(w.setups - w.setups // 2,
                                                  inputs.corpus_path, index_path)
    with tracer.span("data.load_judgments"):
        judgments = data.load_judgments(inputs.judgments_path)
    items = [(j.question_id, j.question, inputs.expressions[j.question_id]) for j in judgments]
    qids = [qid for qid, _, _ in items]
    stats, pass_times, first = QueryStats(), [], None

    def mode_ops(n):
        """The evaluations of pass n that produced a mode's lists."""
        return lambda key, mode=None: [(n, qid, mode or key) for qid in qids]

    def one_pass(evaluate_all, score_tracer):
        nonlocal first
        n = len(pass_times)
        failures: dict = {}
        t0 = time.perf_counter()
        runs = evaluate_all(failures)
        score_tracer.trace_id = "score"
        reports = score_runs(score_tracer, runs, judgments, work)
        pass_times.append(time.perf_counter() - t0)
        tally.attempted += len(items) * len(MODES)
        for (qid, mode), why in failures.items():
            tally.fail([(n, qid, mode)], f"pass {n} {qid}/{mode}: {why}")
        digests = {mode: runs_digest(runs[mode], qids) for mode in MODES}
        if first is None:
            first = (runs, reports, digests)
        else:
            check_passes(tally, first[2], digests, mode_ops(n))

    if traced:
        # traced passes until every per-layer median has its samples
        embed_throughput(tracer, corpus.texts)
        while first is None or not (len(pass_times) == MAX_TRACED_PASSES
                                    or enough_samples(tracer)):
            one_pass(lambda failures: traced_questions(tracer, index, items, policy,
                                                       failures, stats), tracer)
    else:
        # whole passes while another fits in --seconds, then single questions
        deadline = time.perf_counter() + seconds
        while first is None or deadline - time.perf_counter() > pass_times[-1]:
            one_pass(lambda failures: run_questions(index, items, policy, stats, failures),
                     Tracer(False))
        fill(index, items, policy, stats, tally, deadline, first[0])
        setup_times += timed_setups(w.setups // 2, inputs.corpus_path, index_path)[0]
    runs, reports, digests = first
    check_reports(runs, judgments, reports, tally, mode_ops(0))
    for (qid, mode), why in oracle_gate(index, items, policy, w.oracle_checks, rng).items():
        tally.fail([(0, qid, mode)], f"{qid}/{mode}: {why}")
    gate(tally, w, seed, digests, record, mode_ops(0))

    if not traced:
        return end_to_end(tally, stats, setup_times, pass_times, reports)

    embed_queries(tracer, index)
    # generation probe: the passages of a few whole topics
    planted = inputs.corpus
    topics = sorted(int(t) for t in rng.choice(len(planted.members), PROBE_TOPICS, replace=False))
    sample = Corpus(Passage(planted.ids[i], planted.texts[i])
                    for t in topics for i in planted.members[t])
    probe = work / "probe"
    probe.mkdir()
    tracer.trace_id = "probe"
    _, questions, flagged, _ = generation(
        tracer, sample, seed, PROBE_TOPICS, PROBE_TOPICS, probe, stage_runner(tracer, [])
    )
    untraced_s = sum(map(sum, stats.latency.values()))
    traced_s = sum(s.duration for s in tracer.named("question"))
    m = layer_metrics(tracer, policy, len(pass_times), index_path, len(questions),
                      sum(q.filtered for q in flagged))
    m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    notes.append(coverage_note(tracer, untraced_s))
    return Outcome(tally, m, notes)


def loop_ops(n):
    """The stage of loop pass n that produced a digest or a report."""
    stage = {"whole": "query", "expr": "query", "decompose": "query",
             "report": "metrics.evaluate_run", "clusters": "generate.cluster_corpus",
             "judgments": "generate.assemble"}
    return lambda key, mode=None: [(n, stage[key])]


def loop_pass(tracer: Tracer, w, seed, inputs, policy, work, stats, tally, n: int):
    """Pass n of the paper's loop; None when a stage raised."""
    done: list[str] = []
    stage = stage_runner(tracer, done)
    tally.attempted += len(LOOP_STAGES)
    tracer.trace_id = "loop"
    index_path = work / "corpus.idx"
    try:
        corpus = stage("data.load_corpus", data.load_corpus, inputs.corpus_path)
        built = stage("index.build", index_mod.build_index, corpus, SPEC, "cosine")
        stage("index.save", index_mod.save_index, built, index_path)
        index = stage("index.load", index_mod.load_index, index_path, SPEC)
        clusters, questions, flagged, judgments = generation(
            tracer, corpus, seed, w.topics, LOOP_PER_TYPE, work, stage
        )
        stage("data.save_judgments", data.save_judgments, judgments, work / "judgments.jsonl")
        judgments = stage("data.load_judgments", data.load_judgments, work / "judgments.jsonl")
        expressions = {q.question_id: q.expression for q in flagged}
        boolean = [j for j in judgments if j.qtype in BOOLEAN]
        items = [(j.question_id, j.question, expressions[j.question_id]) for j in boolean]
        failures: dict = {}
        if tracer.enabled:
            runs = traced_questions(tracer, index, items, policy, failures, stats)
            tracer.trace_id = "loop"
        else:
            runs = run_questions(index, items, policy, stats, failures)
        done.append("query")
        if failures:
            (qid, mode), why = next(iter(failures.items()))
            tally.fail([(n, "query")], f"query: {len(failures)} failed, first {qid}/{mode}: {why}")
        reports = score_runs(tracer, runs, boolean, work)
        done.extend(LOOP_STAGES[len(done):])
    except Exception as exc:  # the remaining stages count as failed
        tally.fail([(n, name) for name in LOOP_STAGES[len(done):]],
                   f"{LOOP_STAGES[len(done)]}: {exc!r}")
        return None
    qids = [qid for qid, _, _ in items]
    digests = {mode: runs_digest(runs[mode], qids) for mode in MODES}
    digests["clusters"] = json_digest([[c.cluster_id, list(c.passage_ids)] for c in clusters])
    digests["judgments"] = json_digest([data.judgment_to_record(j) for j in judgments])
    return {
        "index": index, "items": items, "boolean": boolean, "runs": runs,
        "reports": reports, "digests": digests,
        "generated": len(questions), "kept": sum(q.filtered for q in flagged),
    }


def run_loop(w, seed, seconds, traced, work, inputs, policy, rng, record, tally) -> Outcome:
    notes = []
    if not traced:
        setup_times, _, _ = timed_setups(w.setups - w.setups // 2, inputs.corpus_path,
                                         work / "setup.idx")
    # whole passes while another fits in --seconds, then single questions
    stats, pass_times, first = QueryStats(), [], None
    deadline = time.perf_counter() + seconds
    while first is None or (not traced and deadline - time.perf_counter() > pass_times[-1]):
        n = len(pass_times)
        t0 = time.perf_counter()
        result = loop_pass(Tracer(False), w, seed, inputs, policy, work, stats, tally, n)
        pass_times.append(time.perf_counter() - t0)
        if result is None:
            return Outcome(tally, {}, notes)
        if first is None:
            first = result
        else:
            check_passes(tally, first["digests"], result["digests"], loop_ops(n))
    if not traced:
        fill(first["index"], first["items"], policy, stats, tally, deadline, first["runs"])
        setup_times += timed_setups(w.setups // 2, inputs.corpus_path, work / "setup.idx")[0]
    check_reports(first["runs"], first["boolean"], first["reports"], tally, loop_ops(0))
    problems = oracle_gate(first["index"], first["items"], policy, w.oracle_checks, rng)
    for (qid, mode), why in problems.items():
        tally.fail([(0, "query")], f"{qid}/{mode}: {why}")
    gate(tally, w, seed, first["digests"], record, loop_ops(0))

    if not traced:
        return end_to_end(tally, stats, setup_times, pass_times, first["reports"])

    tracer, untraced = Tracer(True), QueryStats()
    t0 = time.perf_counter()
    result = loop_pass(tracer, w, seed, inputs, policy, work, untraced, tally, 1)
    traced_s = time.perf_counter() - t0 - sum(map(sum, untraced.latency.values()))
    if result is None:
        return Outcome(tally, {}, notes)
    check_passes(tally, first["digests"], result["digests"], loop_ops(1))
    embed_throughput(tracer, inputs.corpus.texts)
    embed_queries(tracer, result["index"])
    m = layer_metrics(tracer, policy, 1, work / "corpus.idx", result["generated"], result["kept"])
    m["trace.overhead_pct"] = (100.0 * (traced_s / pass_times[0] - 1.0), "%")
    notes.append(coverage_note(tracer, sum(map(sum, untraced.latency.values()))))
    return Outcome(tally, m, notes)
