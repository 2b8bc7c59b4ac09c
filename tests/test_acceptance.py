"""Acceptance gate: one test per criterion, at the stated tolerances.

Everything here is seeded and deterministic. Criterion 8 needs the
published benchmark judgment file supplied via BOOLQUESTIONS_MARCO_PATH
and is skipped when that input is not provided.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from boolsearch.data import QuestionType, compute_stats, load_judgments
from boolsearch.embed import EmbedderSpec
from boolsearch.generate import (
    GeneratorSpec,
    _randomized_row_basis,
    apply_cyclic_filter,
    cluster_corpus,
    generate_questions,
    save_questions,
)
from boolsearch.index import RankedList, build_index, top_k
from boolsearch.metrics import evaluate_run, load_run, neg_recall_at_k
from boolsearch.query import (
    MergePolicy,
    evaluate_expr,
    merge_and,
    merge_not,
    merge_or,
    parse_boolean_query,
    render,
    retrieve_atom,
    whole_query_retrieve,
)

from _planted import (
    marco_replica_judgments,
    oracle_top_k,
    planted_corpus,
    random_corpus,
    random_expression,
    random_query,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_1_top_k_matches_full_sort_oracle():
    """200 random corpora (<=1000 docs, dim <=64), 10 queries each: top_k
    equals the brute-force full sort with the tie rule, exactly, in <30s."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    corpora = 0
    for trial in range(200):
        corpus = random_corpus(rng, int(rng.integers(5, 1001)))
        similarity = ("dot", "cosine")[trial % 2]
        spec = EmbedderSpec(
            dim=int(rng.integers(8, 65)),
            normalize=bool(trial % 4 < 2),
            seed=trial,
        )
        index = build_index(corpus, spec, similarity)
        corpora += 1
        for _ in range(10):
            query = random_query(rng)
            k = int(rng.integers(1, 20))
            got = [(d.doc_id, d.score) for d in top_k(index, query, k)]
            assert got == oracle_top_k(index, query, k)
    elapsed = time.monotonic() - start
    assert corpora == 200
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def _random_ranked(rng, pool):
    size = int(rng.integers(0, len(pool) + 1))
    ids = rng.choice(pool, size=size, replace=False).tolist()
    scores = (rng.integers(-4, 5, size=size) / 4.0).tolist()
    return RankedList.from_scores(zip(ids, scores))


def test_criterion_2_merge_algebra_laws():
    """>=1000 random ranked-list pairs, zero law violations."""
    rng = np.random.default_rng(7)
    pool = [f"d{i:02d}" for i in range(16)]
    empty = RankedList(())
    for _ in range(1000):
        a = _random_ranked(rng, pool)
        b = _random_ranked(rng, pool)
        assert merge_and(a, b) == merge_and(b, a)
        assert merge_or(a, b) == merge_or(b, a)
        assert merge_or(a, a) == a
        assert merge_and(a, empty) == empty
        assert merge_not(a, a, "hard") == empty
        excluded = set(b.ids)
        survivors = set(merge_not(a, b, "hard").ids)
        assert survivors.isdisjoint(excluded)


def test_criterion_3_metric_golden_fixture():
    """evaluate_run reproduces the precomputed fixture to 1e-9."""
    judgments = load_judgments(FIXTURES / "golden_judgments.jsonl")
    run = load_run(FIXTURES / "golden_run.jsonl")
    expected = json.loads((FIXTURES / "golden_expected.json").read_text())
    report = evaluate_run(run, judgments, expected["k"])
    assert report.overall.mrr == pytest.approx(expected["overall"]["mrr"], abs=1e-9)
    assert report.overall.neg_recall == pytest.approx(
        expected["overall"]["neg_recall"], abs=1e-9
    )
    for name, stats in expected["per_type"].items():
        s = report.per_type[QuestionType.parse(name)]
        assert s.n_questions == stats["n_questions"]
        assert s.mrr == pytest.approx(stats["mrr"], abs=1e-9)
        if stats["neg_recall"] is None:
            assert s.neg_recall is None
        else:
            assert s.neg_recall == pytest.approx(stats["neg_recall"], abs=1e-9)


def test_criterion_4_hard_not_eliminates_negatives_directionally():
    """On a 20-cluster planted corpus, whole-query retrieval recalls the
    negated passages (NegRecall@10 > 0.3) while decomposed retrieval with
    hard NOT recalls none of the in-depth ones, in <60s."""
    start = time.monotonic()
    corpus, _ = planted_corpus(n_clusters=20, per_cluster=5)
    embedder = EmbedderSpec(dim=256, normalize=True, seed=1)
    clusters = cluster_corpus(
        corpus, embedder, svd_rank=32, seed=0, target_count=20
    )
    spec = GeneratorSpec(mode="template", seed=2, n_per_type=20)
    questions = generate_questions(corpus, clusters, spec)
    nots = [q for q in questions if q.qtype is QuestionType.NOT]
    assert len(nots) == 20
    index = build_index(corpus, embedder, "cosine")
    k = 10

    whole = [
        neg_recall_at_k(whole_query_retrieve(index, q.text, k), q.negatives, k)
        for q in nots
    ]
    whole_recall = sum(whole) / len(whole)
    assert whole_recall > 0.3, f"whole-query NegRecall@10 = {whole_recall}"

    policy = MergePolicy(final_k=k, candidate_depth_factor=2, not_mode="hard")
    checked = 0
    for q in nots:
        expr = parse_boolean_query(q.expression)
        depth_ids = retrieve_atom(
            index, expr.right.text, policy.candidate_depth_factor * k
        ).ids
        (negative,) = q.negatives
        if negative not in depth_ids:
            continue
        checked += 1
        ranked = evaluate_expr(index, expr, policy)
        assert neg_recall_at_k(ranked, q.negatives, k) == 0.0
    assert checked > 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"directional check took {elapsed:.1f}s"


EXPECTED_LABELS = {
    QuestionType.SIMPLE: lambda n: (1, 0),
    QuestionType.DISJUNCTIVE: lambda n: (n, 0),
    QuestionType.AND: lambda n: (1, n - 1),
    QuestionType.OR: lambda n: (2, n - 2),
    QuestionType.NOT: lambda n: (n - 1, 1),
}


def test_criterion_5_pipeline_labeling_invariants_over_500_runs():
    """500 template pipeline runs keep every labeling invariant; a fixed
    seed reproduces byte-identical output."""
    corpus, _ = planted_corpus(n_clusters=6, per_cluster=4)
    embedder = EmbedderSpec(dim=64, normalize=True, seed=1)
    clusters = cluster_corpus(corpus, embedder, svd_rank=16, seed=0, target_count=6)
    for seed in range(500):
        spec = GeneratorSpec(mode="template", seed=seed, n_per_type=3)
        questions = generate_questions(corpus, clusters, spec)
        per_type = {t: 0 for t in QuestionType}
        for q in questions:
            per_type[q.qtype] += 1
            n = len(q.candidate_ids)
            assert 2 <= n <= 3
            expected = EXPECTED_LABELS[q.qtype](n)
            assert (len(q.positives), len(q.negatives)) == expected
            assert q.positives.isdisjoint(q.negatives)
            assert q.positives | q.negatives <= set(q.candidate_ids)
        assert per_type[QuestionType.AND] == 3
        assert per_type[QuestionType.OR] == 3
        assert per_type[QuestionType.NOT] == 3

    spec = GeneratorSpec(mode="template", seed=123, n_per_type=5)
    blobs = []
    for run in range(2):
        questions = apply_cyclic_filter(
            generate_questions(corpus, clusters, spec), corpus, spec
        )
        path = Path(os.environ.get("TMPDIR", "/tmp")) / f"accept5-{run}.jsonl"
        save_questions(questions, path)
        blobs.append(path.read_bytes())
        path.unlink()
    assert blobs[0] == blobs[1]


def test_criterion_6_svd_and_clustering_oracles():
    """Randomized reduction matches a dense SVD subspace to <1e-6 principal
    angle on well-separated <=32x32 spectra; a planted two-topic corpus is
    recovered exactly at target_count=2."""
    rng = np.random.default_rng(11)
    for trial in range(5):
        size = int(rng.integers(12, 33))
        rank = int(rng.integers(2, 5))
        u, _ = np.linalg.qr(rng.standard_normal((size, size)))
        v, _ = np.linalg.qr(rng.standard_normal((size, size)))
        spectrum = np.concatenate([
            np.linspace(60.0, 20.0, rank),
            np.full(size - rank, 1e-4),
        ])
        matrix = u @ np.diag(spectrum) @ v.T
        mine = _randomized_row_basis(matrix, rank, np.random.default_rng(trial))
        _, _, vt = np.linalg.svd(matrix)
        cosines = np.linalg.svd(mine @ vt[:rank].T, compute_uv=False)
        angle = float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))
        assert angle < 1e-6, f"principal angle {angle}"

    corpus, truth = planted_corpus(n_clusters=2, per_cluster=6)
    embedder = EmbedderSpec(dim=64, normalize=True, seed=1)
    clusters = cluster_corpus(corpus, embedder, svd_rank=8, seed=0, target_count=2)
    got = {frozenset(c.passage_ids) for c in clusters}
    assert got == {frozenset(t["ids"]) for t in truth}  # purity 1.0


def test_criterion_7_parser_round_trip_10k_trees():
    """parse(render(e)) == e on 10,000 random trees of depth <=5."""
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        expr = random_expression(rng, max_depth=5)
        assert parse_boolean_query(render(expr)) == expr


PUBLISHED_ENV_VAR = "BOOLQUESTIONS_MARCO_PATH"


@pytest.mark.skipif(
    PUBLISHED_ENV_VAR not in os.environ,
    reason=f"published MARCO-split judgment file not provided; "
    f"set {PUBLISHED_ENV_VAR} to run",
)
def test_criterion_8_published_dataset_stats():
    """compute_stats over the published MARCO-split judgments reports
    count(AND)=354, avg pos 1.00, avg neg 0.94 within +-0.005."""
    judgments = load_judgments(os.environ[PUBLISHED_ENV_VAR])
    stats = compute_stats(judgments)
    s = stats.per_type[QuestionType.AND]
    assert s.n_questions == 354
    assert s.avg_positives == pytest.approx(1.00, abs=0.005)
    assert s.avg_negatives == pytest.approx(0.94, abs=0.005)


def test_criterion_8_stats_machinery_on_published_marginals():
    """Companion check runnable offline: a synthetic judgment set built to
    the published per-type marginals reproduces every table cell within
    +-0.005 through compute_stats."""
    stats = compute_stats(marco_replica_judgments())
    expected = {
        QuestionType.AND: (354, 1.00, 0.94),
        QuestionType.OR: (469, 1.58, 0.35),
        QuestionType.NOT: (328, 1.13, 0.69),
    }
    for qtype, (count, avg_pos, avg_neg) in expected.items():
        s = stats.per_type[qtype]
        assert s.n_questions == count
        assert s.avg_positives == pytest.approx(avg_pos, abs=0.005)
        assert s.avg_negatives == pytest.approx(avg_neg, abs=0.005)
    assert stats.overall.n_questions == 1151
    assert stats.overall.avg_positives == pytest.approx(1.27, abs=0.005)
    assert stats.overall.avg_negatives == pytest.approx(0.63, abs=0.005)
