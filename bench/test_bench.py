"""Tests for the benchmark's own machinery.

    python -m pytest bench
"""

import math

import pytest

from boolsearch import EmbedderSpec, MergePolicy, build_index, evaluate_expr, top_k
from boolsearch.data import Corpus, Passage
from boolsearch.query import parse_boolean_query

from harness import walk
from oracle import oracle_top_k
from spans import Span, TooFewSamples, Tracer, percentile, self_times
from workloads import Workload, bucket, planted_corpus, write_inputs

import numpy as np

SMALL = Workload("small", 240, 30, 10, 2, question_triples=6, setups=1, oracle_checks=1)


def _bytes(inputs):
    return inputs.corpus_path.read_bytes(), inputs.judgments_path.read_bytes(), inputs.expressions


def test_same_seed_gives_identical_inputs_and_other_seeds_differ(tmp_path):
    first = _bytes(write_inputs(SMALL, 3, tmp_path / "a"))
    again = _bytes(write_inputs(SMALL, 3, tmp_path / "b"))
    other = _bytes(write_inputs(SMALL, 4, tmp_path / "c"))
    assert first == again
    assert first[0] != other[0] and first[1] != other[1] and first[2] != other[2]


def test_planted_words_avoid_template_and_own_passage_buckets():
    corpus = planted_corpus(np.random.default_rng(1), SMALL)
    template = {bucket(w) for w in "what does the passage about say".split()}
    for i, subs in enumerate(corpus.subtopic):
        own = [bucket(w) for w in subs + corpus.topic_tokens[corpus.topic_of[i]]]
        assert len(set(own)) == len(own)
        assert not template & set(own)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(range(1, 100), 90)
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(TooFewSamples):
        percentile(range(1, 20), 50)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "t"),
        Span("a", 1.0, 4.0, 0, "t"),
        Span("a.child", 2.0, 3.0, 1, "t"),
        Span("b", 3.0, 6.0, 0, "t"),  # overlaps a: together they cover 1..6
        Span("c", 8.0, 9.0, 0, "t"),
    ]
    assert [round(t, 9) for t in self_times(spans)] == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_tracer_records_parents_and_nothing_when_off():
    tracer = Tracer(True)
    tracer.trace_id = "q1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent, s.trace_id) for s in tracer.spans] == [
        ("outer", None, "q1"), ("inner", 0, "q1")]
    off = Tracer(False)
    with off.span("outer") as span:
        assert span is None
    assert off.spans == []


@pytest.fixture(scope="module")
def index():
    words = [f"w{v}" for v in range(12)]
    rng = np.random.default_rng(5)
    passages = [Passage(f"d{i:03d}", " ".join(rng.choice(words, size=int(rng.integers(2, 7)))))
                for i in range(150)]
    return build_index(Corpus(passages), EmbedderSpec(dim=32, seed=2), "cosine")


@pytest.mark.parametrize("not_mode", ["hard", "soft"])
def test_traced_walk_equals_evaluate_expr(index, not_mode):
    queries = ['("w1 w2" OR "w3") NOT "w4 w5"', '"w0" AND ("w6" NOT "w7")', '"w8 w9"',
               '("w1" AND "w2") OR ("w3" NOT "w1")']
    for depth_factor in (1, 3):
        policy = MergePolicy(final_k=5, candidate_depth_factor=depth_factor, not_mode=not_mode)
        for text in queries:
            expr = parse_boolean_query(text)
            tracer = Tracer(True)
            assert walk(tracer, index, expr, policy) == evaluate_expr(index, expr, policy)
            assert len(tracer.named("index.top_k")) == text.count('"') // 2


def test_oracle_agrees_with_top_k_on_ties(index):
    for text in ("w1", "w2 w3", "w4 w4 w5", "nothing"):
        got = [(item.doc_id, item.score) for item in top_k(index, text, 20)]
        assert got == oracle_top_k(index, text, 20)
        assert all(math.isfinite(score) for _, score in got)
