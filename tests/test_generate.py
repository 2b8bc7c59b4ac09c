import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from boolsearch.chat import request_hash
from boolsearch.data import Corpus, Passage, QuestionType, compute_stats, save_judgments
from boolsearch.embed import EmbedderSpec, embed_texts
from boolsearch.errors import GenerationError
from boolsearch import generate
from boolsearch.generate import (
    Cluster,
    MAX_CLUSTER_ROWS,
    DEFAULT_PROMPTS,
    GeneratedQuestion,
    GeneratorSpec,
    apply_cyclic_filter,
    assemble_dataset,
    cluster_corpus,
    cluster_passages,
    cyclic_filter,
    distinctive_tokens,
    gen_and,
    gen_atomic,
    gen_not,
    gen_or,
    generate_questions,
    load_questions,
    reduce_dims,
    sample_candidates,
    save_questions,
)
from boolsearch.query import Not, parse_boolean_query

from _planted import oracle_cluster_passages, planted_corpus

FIXTURES = Path(__file__).parent / "fixtures"

TEMPLATE_SPEC = GeneratorSpec(mode="template", seed=0, n_per_type=2)


def principal_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    cosines = np.linalg.svd(basis_a @ basis_b.T, compute_uv=False)
    return float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))


class TestReduceDims:
    def test_matches_dense_svd_subspace(self):
        # well-separated spectrum: randomized basis must align to <1e-6
        from boolsearch.generate import _randomized_row_basis

        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        v, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        spectrum = np.array([50.0, 20.0, 10.0] + [1e-4] * 29)
        matrix = u @ np.diag(spectrum) @ v.T
        mine = _randomized_row_basis(matrix, 3, np.random.default_rng(2))
        _, _, vt = np.linalg.svd(matrix)
        assert principal_angle(mine, vt[:3]) < 1e-6

    def test_reconstruction_error_equals_tail_energy(self):
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        spectrum = np.array([40.0, 30.0, 22.0, 14.0, 9.0, 5.0, 2.0, 0.5])
        matrix = u @ np.diag(spectrum) @ v.T
        projected = reduce_dims(matrix, rank=7, sample_cap=8, seed=0)
        # reconstruct through the fitted basis via least squares
        basis, *_ = np.linalg.lstsq(projected, matrix, rcond=None)
        error = np.linalg.norm(matrix - projected @ basis) ** 2
        assert error == pytest.approx(spectrum[-1] ** 2, rel=1e-6)

    def test_rank_one_matrix_preserves_dot_ordering(self):
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(16)
        coeffs = np.array([3.0, -1.0, 0.5, 2.0, -2.5])
        matrix = np.outer(coeffs, direction)
        projected = reduce_dims(matrix, rank=1, sample_cap=10, seed=0)
        original = matrix @ matrix.T
        reduced = projected @ projected.T
        assert np.array_equal(np.argsort(original, axis=None),
                              np.argsort(reduced, axis=None))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((40, 16))
        a = reduce_dims(matrix, rank=4, sample_cap=20, seed=9)
        b = reduce_dims(matrix, rank=4, sample_cap=20, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_rank_reduced_with_warning(self, caplog):
        matrix = np.outer(np.arange(1.0, 7.0), np.ones(12))
        with caplog.at_level(logging.WARNING):
            projected = reduce_dims(matrix, rank=5, sample_cap=10, seed=0)
        assert projected.shape == (6, 1)
        assert any("rank" in r.message for r in caplog.records)

    def test_parameter_validation(self):
        matrix = np.eye(8)
        with pytest.raises(GenerationError):
            reduce_dims(matrix, rank=8, sample_cap=10)
        with pytest.raises(GenerationError):
            reduce_dims(matrix, rank=4, sample_cap=2)

    def test_non_finite_input_rejected(self):
        matrix = np.random.default_rng(0).standard_normal((10, 6))
        matrix[3, 2] = np.nan
        with pytest.raises(GenerationError, match="non-finite"):
            reduce_dims(matrix, rank=2, sample_cap=10)


class TestClusterPassages:
    def test_recovers_planted_two_topic_partition(self):
        corpus, truth = planted_corpus(n_clusters=2, per_cluster=6)
        spec = EmbedderSpec(dim=64, normalize=True, seed=1)
        matrix = embed_texts(spec, list(corpus.texts))
        reduced = reduce_dims(matrix, rank=8, sample_cap=12, seed=0)

        # brute-force ground check: every cross-topic distance exceeds
        # every within-topic distance in the reduced space
        from boolsearch.generate import cosine_distances

        distances = cosine_distances(reduced)
        within, cross = [], []
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                same = (i < 6) == (j < 6)
                (within if same else cross).append(distances[i, j])
        assert max(within) < min(cross)

        clusters = cluster_passages(reduced, corpus.ids, target_count=2)
        got = {frozenset(c.passage_ids) for c in clusters}
        assert got == {frozenset(t["ids"]) for t in truth}

    def test_target_count_n_gives_singletons(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 4))
        clusters = cluster_passages(rows, list("abcde"), target_count=5)
        assert [c.passage_ids for c in clusters] == [(x,) for x in "abcde"]

    def test_target_count_one_merges_all(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 4))
        (cluster,) = cluster_passages(rows, list("abcde"), target_count=1)
        assert sorted(cluster.passage_ids) == list("abcde")

    def test_threshold_stop(self):
        rows = np.array([[1.0, 0.0], [0.999, 0.01], [-1.0, 0.0], [-0.999, -0.01]])
        ids = ["a1", "a2", "b1", "b2"]
        clusters = cluster_passages(rows, ids, distance_threshold=0.1)
        groups = {frozenset(c.passage_ids) for c in clusters}
        assert groups == {frozenset({"a1", "a2"}), frozenset({"b1", "b2"})}

    def test_invalid_threshold(self):
        rows = np.eye(3)
        with pytest.raises(GenerationError, match="threshold"):
            cluster_passages(rows, list("abc"), distance_threshold=-1.0)

    def test_needs_two_rows(self):
        with pytest.raises(GenerationError, match="2 rows"):
            cluster_passages(np.ones((1, 3)), ["a"], target_count=1)

    def test_exactly_one_stop_rule(self):
        rows = np.eye(3)
        with pytest.raises(GenerationError, match="exactly one"):
            cluster_passages(rows, list("abc"))

    def test_non_finite_row_rejected(self):
        rows = np.array([[1.0, 0.0], [0.999, 0.01], [np.nan, 0.0], [-0.999, -0.01]])
        with pytest.raises(GenerationError, match="non-finite"):
            cluster_passages(rows, list("abcd"), distance_threshold=0.5)

    def test_row_cap_fails_before_distance_matrix(self, monkeypatch):
        def no_matrix(rows):
            raise AssertionError("the n x n matrix was allocated")

        monkeypatch.setattr(generate, "cosine_distances", no_matrix)
        n = MAX_CLUSTER_ROWS + 1
        rows = np.ones((n, 2))
        with pytest.raises(GenerationError) as err:
            cluster_passages(rows, [f"p{i}" for i in range(n)], target_count=2)
        assert f"{n} rows" in str(err.value)
        assert f"{8 * n * n:,}-byte" in str(err.value)


def differential_rows(kind: str, rng: np.random.Generator) -> np.ndarray:
    n, dim = int(rng.integers(2, 61)), int(rng.integers(2, 9))
    if kind == "gaussian":
        return rng.standard_normal((n, dim))
    if kind == "small-int":  # many exactly equal distances
        return rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    if kind == "duplicates":  # planted identical rows: distance-0 ties
        base = rng.standard_normal((max(1, n // 3), dim))
        return base[rng.integers(0, len(base), size=n)]
    rows = rng.integers(0, 2, size=(n, dim)).astype(np.float64)
    rows[rng.random(n) < 0.3] = 0.0  # all-zero rows sit at distance 1
    return rows


class TestClusterPassagesMatchesOracle:
    """The incremental row-minimum loop against the full rescan it replaced."""

    @pytest.mark.parametrize("kind", ["gaussian", "small-int", "duplicates", "zeros"])
    def test_every_stop_rule(self, kind):
        for seed in range(75):
            rows = differential_rows(kind, np.random.default_rng([seed, len(kind)]))
            n = len(rows)
            ids = [f"p{i}" for i in range(n)]
            rules = [{"target_count": t} for t in sorted({1, 2, max(1, n // 3), n})]
            rules += [
                {"distance_threshold": t} for t in (0.0, 0.05, 0.3, 0.7, 1.0, 1.5)
            ]
            for rule in rules:
                got = cluster_passages(rows, ids, **rule)
                assert got == oracle_cluster_passages(rows, ids, **rule), (seed, rule)

    def test_merged_column_rounding_onto_a_row_minimum(self):
        # Row 0 is at distance m from row 2 and from the eight copies of
        # row 3, and a hair further from row 1. Merging the copies into
        # row 1 averages its distance down until it rounds to exactly m:
        # row 0's first minimum then moves from column 2 to column 1
        # without column 2 changing, which only the tie rule catches.
        y = np.tan(0.5)
        beyond = [1.0, -y * (1 + 2.0**-51)]
        rows = np.array([[1.0, 0.0], beyond, [1.0, y]] + [[1.0, -y]] * 8)
        ids = [f"p{i}" for i in range(len(rows))]
        got = cluster_passages(rows, ids, target_count=2)
        assert got == oracle_cluster_passages(rows, ids, target_count=2)

    def test_400_rows_rank_128(self):
        rows = np.random.default_rng(400).standard_normal((400, 128))
        ids = [f"p{i}" for i in range(400)]
        got = cluster_passages(rows, ids, target_count=40)
        assert got == oracle_cluster_passages(rows, ids, target_count=40)


class TestSampleCandidates:
    def cluster(self, size):
        return Cluster(0, tuple(f"p{i}" for i in range(size)))

    def test_size_two_takes_both(self):
        for seed in range(20):
            assert sorted(sample_candidates(self.cluster(2), seed)) == ["p0", "p1"]

    def test_reproducible_under_seed(self):
        assert sample_candidates(self.cluster(10), 42) == sample_candidates(
            self.cluster(10), 42
        )

    def test_too_small_cluster_skipped(self, caplog):
        with caplog.at_level(logging.INFO):
            assert sample_candidates(self.cluster(1), 0) == []
        assert any("skipping" in r.message for r in caplog.records)

    def test_draws_are_uniform(self):
        # inclusion probability per passage is E[n]/5 = 0.5; bound at 5 sigma
        cluster = self.cluster(5)
        counts = {f"p{i}": 0 for i in range(5)}
        draws = 10_000
        for seed in range(draws):
            for pid in sample_candidates(cluster, seed):
                counts[pid] += 1
        sigma = (draws * 0.25) ** 0.5
        for pid, count in counts.items():
            assert abs(count - draws * 0.5) <= 5 * sigma, (pid, count)


def two_candidates():
    return [
        Passage("pa", "zebra stripes zebra stripes savanna"),
        Passage("pb", "quartz crystal quartz crystal cave"),
    ]


def three_candidates():
    return two_candidates() + [Passage("pc", "maple syrup maple syrup forest")]


class TestTemplateGeneration:
    def test_atomic_counts_and_labels(self):
        simples, disj = gen_atomic(two_candidates())
        assert len(simples) == 2
        assert all(s.qtype is QuestionType.SIMPLE for s in simples)
        assert simples[0].positives == {"pa"} and not simples[0].negatives
        assert disj.qtype is QuestionType.DISJUNCTIVE
        assert disj.positives == {"pa", "pb"} and not disj.negatives

    def test_atomic_is_deterministic(self):
        one = gen_atomic(three_candidates())
        two = gen_atomic(three_candidates())
        assert one == two

    def test_distinctive_tokens_prefer_unique(self):
        candidates = three_candidates()
        assert distinctive_tokens(candidates[0], candidates) == ("stripes", "zebra")

    def test_and_labels_n3(self):
        simples, disj = gen_atomic(three_candidates())
        q = gen_and(disj, three_candidates(), rng=np.random.default_rng(0))
        assert len(q.positives) == 1 and len(q.negatives) == 2
        assert " and " in q.text

    def test_and_labels_n2(self):
        simples, disj = gen_atomic(two_candidates())
        q = gen_and(disj, two_candidates(), rng=np.random.default_rng(0))
        assert len(q.positives) == 1 and len(q.negatives) == 1

    def test_or_labels(self):
        candidates = three_candidates()
        simples, _ = gen_atomic(candidates)
        q = gen_or(simples, candidates, rng=np.random.default_rng(1))
        assert len(q.positives) == 2 and len(q.negatives) == 1
        assert " or " in q.text
        two = gen_or(gen_atomic(two_candidates())[0], two_candidates(),
                     rng=np.random.default_rng(1))
        assert len(two.positives) == 2 and len(two.negatives) == 0

    def test_or_pair_deterministic(self):
        candidates = three_candidates()
        simples, _ = gen_atomic(candidates)
        a = gen_or(simples, candidates, rng=np.random.default_rng(5))
        b = gen_or(simples, candidates, rng=np.random.default_rng(5))
        assert a.positives == b.positives

    def test_not_labels(self):
        candidates = three_candidates()
        simples, disj = gen_atomic(candidates)
        q = gen_not(disj, simples, candidates, rng=np.random.default_rng(2))
        assert len(q.positives) == 2 and len(q.negatives) == 1
        assert " but not related to " in q.text
        (negative,) = q.negatives
        assert negative not in q.positives

    def test_not_expression_parses_to_binary_difference(self):
        candidates = two_candidates()
        simples, disj = gen_atomic(candidates)
        q = gen_not(disj, simples, candidates, rng=np.random.default_rng(2))
        assert isinstance(parse_boolean_query(q.expression), Not)

    def test_labeling_invariants_enforced_by_type(self):
        with pytest.raises(GenerationError, match="positives"):
            GeneratedQuestion(
                question_id="bad", qtype=QuestionType.AND, text="x?",
                source_cluster=0, candidate_ids=("a", "b", "c"),
                positives=frozenset({"a", "b"}), negatives=frozenset({"c"}),
            )


class TestCyclicFilter:
    def corpus(self):
        return Corpus(three_candidates())

    def test_keeps_consistent_question(self):
        candidates = three_candidates()
        simples, disj = gen_atomic(candidates)
        q = gen_and(disj, candidates, rng=np.random.default_rng(0))
        assert cyclic_filter(q, self.corpus())

    def test_drops_when_positive_fails(self):
        q = GeneratedQuestion(
            question_id="x", qtype=QuestionType.SIMPLE, text="what?",
            source_cluster=0, candidate_ids=("pa",),
            positives=frozenset({"pa"}), negatives=frozenset(),
            answer_token_groups=(("missingtoken",),),
        )
        assert not cyclic_filter(q, self.corpus())

    def test_drops_when_negative_answers(self):
        q = GeneratedQuestion(
            question_id="x", qtype=QuestionType.NOT, text="what?",
            source_cluster=0, candidate_ids=("pa", "pb"),
            positives=frozenset({"pa"}), negatives=frozenset({"pb"}),
            # the negative passage pb contains "quartz"
            answer_token_groups=(("zebra",), ("quartz",)),
        )
        assert not cyclic_filter(q, self.corpus())

    def test_empty_token_group_is_refused(self):
        # every passage holds all tokens of an empty group, so the proxy
        # would count the negative pb as answering: the group is refused
        # where the question is made
        q = GeneratedQuestion(
            question_id="x", qtype=QuestionType.NOT, text="what?",
            source_cluster=0, candidate_ids=("pa", "pb"),
            positives=frozenset({"pa"}), negatives=frozenset({"pb"}),
            answer_token_groups=(("zebra",),),
        )
        assert cyclic_filter(q, self.corpus())
        for groups in (((),), (("zebra",), ())):
            with pytest.raises(GenerationError, match="'x' has an empty answer token group"):
                replace(q, answer_token_groups=groups)

    def test_apply_sets_flags(self):
        candidates = three_candidates()
        simples, disj = gen_atomic(candidates)
        flagged = apply_cyclic_filter(
            simples + [disj], self.corpus(), TEMPLATE_SPEC
        )
        assert all(q.filtered for q in flagged)


def chat_spec(model="test-answerer"):
    return GeneratorSpec(
        mode="chat",
        chat_model=model,
        chat_mode="replay",
        cassette_path=str(FIXTURES / "answerer_cassette.jsonl"),
        seed=0,
        n_per_type=1,
    )


class TestCyclicFilterChat:
    # the positive answers and the negative refuses: kept
    ANSWERED = GeneratedQuestion(
        question_id="n1", qtype=QuestionType.NOT,
        text="What color is the sun but not the moon?",
        source_cluster=0, candidate_ids=("sun", "moon"),
        positives=frozenset({"sun"}), negatives=frozenset({"moon"}),
        provenance="chat-model",
    )
    # the positive cannot answer: dropped
    UNANSWERED = GeneratedQuestion(
        question_id="s1", qtype=QuestionType.SIMPLE,
        text="What shape is the door?",
        source_cluster=0, candidate_ids=("door",),
        positives=frozenset({"door"}), negatives=frozenset(),
        provenance="chat-model",
    )
    # not in the cassette, so replay fails: dropped
    UNRECORDED = GeneratedQuestion(
        question_id="s2", qtype=QuestionType.SIMPLE,
        text="Entirely unrecorded question?",
        source_cluster=0, candidate_ids=("sun",),
        positives=frozenset({"sun"}), negatives=frozenset(),
        provenance="chat-model",
    )

    def corpus(self):
        return Corpus([
            Passage("sun", "The sun is yellow."),
            Passage("moon", "The moon is grey."),
            Passage("door", "The door is round."),
        ])

    def test_keeps_when_positive_answers_and_negative_refuses(self):
        assert cyclic_filter(self.ANSWERED, self.corpus(), chat_spec().make_client())

    def test_drops_when_positive_cannot_answer(self):
        assert not cyclic_filter(self.UNANSWERED, self.corpus(), chat_spec().make_client())

    def test_transport_failure_excludes_and_logs(self, caplog):
        with caplog.at_level(logging.WARNING):
            client = chat_spec().make_client()
            assert not cyclic_filter(self.UNRECORDED, self.corpus(), client)
        assert any("excluding question" in r.message for r in caplog.records)

    def test_apply_builds_the_spec_client_for_its_pool(self, monkeypatch):
        pools = []

        class CountingPool(generate.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(generate, "ThreadPoolExecutor", CountingPool)
        questions = [self.ANSWERED, self.UNANSWERED, self.UNRECORDED]
        flagged = apply_cyclic_filter(questions, self.corpus(), chat_spec())
        assert len(pools) == 1
        assert [q.filtered for q in flagged] == [True, False, False]
        assert flagged == [replace(q, filtered=q is self.ANSWERED) for q in questions]


QUESTIONER = "test-questioner"


def questioner_spec(tmp_path, responses):
    """A replaying chat spec whose cassette answers each exact user prompt."""
    cassette = tmp_path / "questioner.jsonl"
    with open(cassette, "w") as f:
        for user, response in responses.items():
            messages = [
                {"role": "system", "content": DEFAULT_PROMPTS.questioner_system},
                {"role": "user", "content": user},
            ]
            key = request_hash(QUESTIONER, messages)
            f.write(json.dumps({"request_hash": key, "response": response}) + "\n")
    return GeneratorSpec(
        mode="chat", chat_model=QUESTIONER, chat_mode="replay",
        cassette_path=str(cassette), seed=0, n_per_type=1,
    )


class TestChatGeneration:
    # the composite generators take template atomics, whose answer token
    # groups chat mode must drop
    DISJ = "What does the passage about stripes zebra or crystal quartz or maple syrup say?"

    def test_atomic_generation_replays_cassette(self, tmp_path):
        candidates = two_candidates()
        prompts = DEFAULT_PROMPTS
        spec = questioner_spec(tmp_path, {
            prompts.simple.format(paragraph=candidates[0].text):
                "What animal has stripes?",
            prompts.simple.format(paragraph=candidates[1].text):
                "What mineral forms crystals?",
            prompts.disjunctive.format(
                paragraphs=candidates[0].text + "\n\n" + candidates[1].text
            ): "What natural things are described?",
        })
        simples, disj = gen_atomic(candidates, client=spec.make_client())
        assert [s.text for s in simples] == [
            "What animal has stripes?",
            "What mineral forms crystals?",
        ]
        assert disj.text == "What natural things are described?"
        assert disj.provenance == "chat-model"

    def test_and_generation_replays_cassette(self, tmp_path):
        candidates = three_candidates()
        _, disj = gen_atomic(candidates)
        spec = questioner_spec(tmp_path, {
            DEFAULT_PROMPTS.and_converter.format(
                question=self.DISJ,
                positive_paragraphs="[positive] maple syrup maple syrup forest",
                negative_paragraphs=(
                    "[negative] zebra stripes zebra stripes savanna\n\n"
                    "[negative] quartz crystal quartz crystal cave"
                ),
            ): "Which passage covers syrup from the forest?",
        })
        q = gen_and(disj, candidates, rng=np.random.default_rng(0), client=spec.make_client())
        assert q.text == "Which passage covers syrup from the forest?"
        assert q.provenance == "chat-model"
        assert q.answer_token_groups == ()
        assert q.positives == {"pc"} and q.negatives == {"pa", "pb"}
        assert q.expression == f'"{self.DISJ}" AND "What is specific to maple syrup?"'

    def test_or_generation_replays_cassette(self, tmp_path):
        candidates = three_candidates()
        simples, _ = gen_atomic(candidates)
        expression = (
            '"What does the passage about stripes zebra say?" OR '
            '"What does the passage about crystal quartz say?"'
        )
        spec = questioner_spec(tmp_path, {
            DEFAULT_PROMPTS.or_converter.format(expression=expression):
                "What do zebras or quartz look like?",
        })
        q = gen_or(simples, candidates, rng=np.random.default_rng(1), client=spec.make_client())
        assert q.text == "What do zebras or quartz look like?"
        assert q.provenance == "chat-model"
        assert q.answer_token_groups == ()
        assert q.positives == {"pa", "pb"} and q.negatives == {"pc"}
        assert q.expression == expression

    def test_not_generation_replays_cassette(self, tmp_path):
        candidates = three_candidates()
        simples, disj = gen_atomic(candidates)
        expression = f'"{self.DISJ}" NOT "What does the passage about maple syrup say?"'
        spec = questioner_spec(tmp_path, {
            DEFAULT_PROMPTS.not_converter.format(expression=expression):
                "Which natural things are described, leaving out syrup?",
        })
        q = gen_not(
            disj, simples, candidates, rng=np.random.default_rng(2), client=spec.make_client()
        )
        assert q.text == "Which natural things are described, leaving out syrup?"
        assert q.provenance == "chat-model"
        assert q.answer_token_groups == ()
        assert q.positives == {"pa", "pb"} and q.negatives == {"pc"}
        assert q.expression == expression

    def test_no_client_runs_the_template_backend(self):
        candidates = three_candidates()
        simples, disj = gen_atomic(candidates)
        rng = np.random.default_rng(0)
        questions = simples + [
            disj,
            gen_and(disj, candidates, rng=rng),
            gen_or(simples, candidates, rng=rng),
            gen_not(disj, simples, candidates, rng=rng),
        ]
        assert all(q.provenance == "template" and q.answer_token_groups for q in questions)
        # the offline proxy judges them: a chat client would need a cassette
        assert all(cyclic_filter(q, Corpus(candidates)) for q in simples + [disj])


class TestPipeline:
    def test_generate_counts_per_type(self):
        corpus, _ = planted_corpus(n_clusters=4, per_cluster=4)
        clusters = cluster_corpus(
            corpus, EmbedderSpec(dim=64, seed=1), svd_rank=16, seed=0, target_count=4
        )
        spec = GeneratorSpec(mode="template", seed=3, n_per_type=6)
        questions = generate_questions(corpus, clusters, spec)
        counts = {t: 0 for t in QuestionType}
        for q in questions:
            counts[q.qtype] += 1
        assert counts[QuestionType.AND] == 6
        assert counts[QuestionType.OR] == 6
        assert counts[QuestionType.NOT] == 6
        assert counts[QuestionType.DISJUNCTIVE] == 6

    def test_cluster_containment(self):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = cluster_corpus(
            corpus, EmbedderSpec(dim=64, seed=1), svd_rank=16, seed=0, target_count=3
        )
        by_id = {c.cluster_id: set(c.passage_ids) for c in clusters}
        spec = GeneratorSpec(mode="template", seed=3, n_per_type=3)
        for q in generate_questions(corpus, clusters, spec):
            assert set(q.candidate_ids) <= by_id[q.source_cluster]

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = cluster_corpus(
            corpus, EmbedderSpec(dim=64, seed=1), svd_rank=16, seed=0, target_count=3
        )
        spec = GeneratorSpec(mode="template", seed=11, n_per_type=4)
        paths = []
        for name in ("one.jsonl", "two.jsonl"):
            questions = apply_cyclic_filter(
                generate_questions(corpus, clusters, spec), corpus, spec
            )
            path = tmp_path / name
            save_questions(questions, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_question_io_round_trip(self, tmp_path):
        corpus, _ = planted_corpus(n_clusters=2, per_cluster=3)
        clusters = cluster_corpus(
            corpus, EmbedderSpec(dim=64, seed=1), svd_rank=16, seed=0, target_count=2
        )
        spec = GeneratorSpec(mode="template", seed=1, n_per_type=2)
        questions = generate_questions(corpus, clusters, spec)
        path = tmp_path / "q.jsonl"
        save_questions(questions, path)
        assert load_questions(path) == questions


    def test_row_cap_checked_before_embedding(self, monkeypatch):
        def no_embedding(spec, texts):
            raise AssertionError("the corpus was embedded")

        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        monkeypatch.setattr(generate, "MAX_CLUSTER_ROWS", len(corpus) - 1)
        monkeypatch.setattr(generate, "embed_texts", no_embedding)
        with pytest.raises(GenerationError, match=f"{len(corpus)} rows"):
            cluster_corpus(corpus, EmbedderSpec(dim=64), svd_rank=16, target_count=3)


class TestClusterFileIO:
    @pytest.mark.parametrize("text", [
        '[{"cluster_id": 0}]',
        '[{"passage_ids": ["a"]}]',
        '{"cluster_id": 0, "passage_ids": ["a"]}',
        '[["a", "b"]]',
        "[{bad",
        "7",
    ])
    def test_malformed_file_names_path(self, tmp_path, text):
        path = tmp_path / "clusters.json"
        path.write_text(text)
        with pytest.raises(GenerationError, match="clusters.json"):
            generate.load_clusters(path)

    def test_integer_ids_read_as_strings(self, tmp_path):
        path = tmp_path / "clusters.json"
        path.write_text('[{"cluster_id": 0, "passage_ids": [3, "a"]}]')
        assert generate.load_clusters(path) == [Cluster(0, ("3", "a"))]

    @pytest.mark.parametrize("ids", ["[null, 1]", "[true]", '[["a"]]', "[1.5]", '"ab"'])
    def test_bad_ids_name_path(self, tmp_path, ids):
        path = tmp_path / "clusters.json"
        path.write_text(f'[{{"cluster_id": 0, "passage_ids": {ids}}}]')
        with pytest.raises(GenerationError, match="clusters.json.*passage_ids"):
            generate.load_clusters(path)


class TestQuestionFileIO:
    RECORD = {
        "question_id": "q", "qtype": "AND", "text": "t?", "source_cluster": 0,
        "candidate_ids": [3, "a"], "positives": [3], "negatives": ["a"],
        "provenance": "template", "filtered": False,
    }

    def test_integer_ids_read_as_strings(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n")
        (question,) = load_questions(path)
        assert question.candidate_ids == ("3", "a")
        assert question.positives == {"3"} and question.negatives == {"a"}

    @pytest.mark.parametrize("field", ["candidate_ids", "positives", "negatives"])
    @pytest.mark.parametrize("ids", [[None, "a"], [True, "a"], [["a"], "a"], "3a"])
    def test_bad_ids_name_path_and_line(self, tmp_path, field, ids):
        path = tmp_path / "questions.jsonl"
        path.write_text("\n" + json.dumps({**self.RECORD, field: ids}) + "\n")
        with pytest.raises(GenerationError, match=f"questions.jsonl:2: .*{field}"):
            load_questions(path)


class TestAssemble:
    def build_filtered(self):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = cluster_corpus(
            corpus, EmbedderSpec(dim=64, seed=1), svd_rank=16, seed=0, target_count=3
        )
        spec = GeneratorSpec(mode="template", seed=7, n_per_type=3)
        questions = apply_cyclic_filter(
            generate_questions(corpus, clusters, spec), corpus, spec
        )
        return corpus, questions

    def test_emits_loadable_judgments(self, tmp_path):
        from boolsearch.data import load_judgments

        corpus, questions = self.build_filtered()
        judgments, stats = assemble_dataset(questions, corpus)
        kept = [q for q in questions if q.filtered]
        assert len(judgments) == len(kept)
        path = tmp_path / "judgments.jsonl"
        save_judgments(judgments, path)
        assert load_judgments(path, corpus) == judgments

    def test_and_judgments_have_one_positive(self):
        corpus, questions = self.build_filtered()
        judgments, _ = assemble_dataset(questions, corpus)
        ands = [j for j in judgments if j.qtype is QuestionType.AND]
        assert ands and all(len(j.positives) == 1 for j in ands)

    def test_stats_match_compute_stats(self):
        corpus, questions = self.build_filtered()
        judgments, stats = assemble_dataset(questions, corpus)
        assert stats == compute_stats(judgments)

    def test_unknown_passage_id_aborts_with_question_id(self):
        corpus, _ = planted_corpus(n_clusters=2, per_cluster=3)
        q = GeneratedQuestion(
            question_id="ghost-q", qtype=QuestionType.SIMPLE, text="x?",
            source_cluster=0, candidate_ids=("nope",),
            positives=frozenset({"nope"}), negatives=frozenset(),
            filtered=True, answer_token_groups=(("x",),),
        )
        with pytest.raises(GenerationError, match="ghost-q"):
            assemble_dataset([q], corpus)


class TestGeneratorSpecValidation:
    def test_chat_requires_model(self):
        with pytest.raises(GenerationError, match="model"):
            GeneratorSpec(mode="chat")

    def test_template_rejects_chat_fields(self):
        with pytest.raises(GenerationError):
            GeneratorSpec(mode="template", chat_model="m")

    def test_unknown_mode(self):
        with pytest.raises(GenerationError):
            GeneratorSpec(mode="manual")
