"""Seeded inputs for the benchmark workloads.

Every corpus follows the planted-topic style of the test fixtures: each
passage repeats its topic's tokens, carries subtopic tokens of its own, and
is padded with filler from a small shared Zipf vocabulary. Every passage
holds the same filler (like stopwords), so no filler token is ever unique
to a passage: the generator's "most distinctive tokens" of a passage are
then its subtopic token and a topic token, and generated questions name
their topic.

Planted words are drawn so that none shares an embedding bucket with a
question template word, a filler word or another planted word of its own
passage (checked with the embedder's public hashed_bow_embed). Without
this, a few collisions per seed turn single passages into hubs that top
every question of their topic, and the quality metrics would follow each
seed's hash layout instead of the program. Word spellings still come from
the seed, so collisions between different topics vary from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from boolsearch.embed import hashed_bow_embed

EMBED_DIM = 256
EMBED_SEED = 0
TOPIC_REPEAT = 4
SUBTOPIC_REPEAT = 3
FILLER_VOCAB = 12
FILLER_TOP = 8
FILLER_CAP = 3  # below TOPIC_REPEAT, so topic tokens outrank every filler token

# words of the question templates, the harness's and the generator's
TEMPLATE_WORDS = tuple(
    "what does the passage about say or and is specific to but not related".split()
)


@dataclass(frozen=True)
class Workload:
    name: str
    passages: int
    topics: int
    final_k: int
    depth_factor: int
    question_triples: int  # qa only: each triple yields one AND, OR and NOT question
    setups: int  # set-ups per run, split before and after the timed phase
    oracle_checks: int  # evaluations per mode whose top_k calls the oracle checks
    topic_tokens: int = 4
    subtopics: int = 2  # subtopic tokens per passage
    loop: bool = False  # the paper's whole loop; the program generates the questions


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qa-50k", 50_000, 6_250, 10, 2, question_triples=12, setups=3,
                 oracle_checks=1),
        Workload("qa-deep-5k", 5_000, 625, 100, 5, question_triples=40, setups=6,
                 oracle_checks=4),
        # one subtopic token, so generated questions name subtopic + topic;
        # few topics, so topic tokens can keep buckets of their own
        Workload("loop-1k", 1_000, 40, 10, 2, question_triples=0, setups=10, oracle_checks=8,
                 topic_tokens=2, subtopics=1, loop=True),
    )
}

# AND, OR and NOT questions the program generates per type in the loop
LOOP_PER_TYPE = 150


def bucket(word: str) -> int:
    """The embedding dimension the hashed embedder puts this word in."""
    return int(np.flatnonzero(hashed_bow_embed(word, EMBED_DIM, EMBED_SEED))[0])


class Vocabulary:
    """Distinct random lowercase words, drawn in seeded order."""

    def __init__(self, rng: np.random.Generator, length: int = 7):
        self.rng = rng
        self.length = length
        self.seen = set(TEMPLATE_WORDS)
        self.pending: list[str] = []

    def _next(self) -> str:
        while not self.pending:
            letters = self.rng.integers(0, 26, size=(256, self.length))
            words = ("".join(chr(97 + int(c)) for c in row) for row in letters)
            self.pending = [w for w in words if w not in self.seen][::-1]
            self.seen.update(self.pending)
        return self.pending.pop()

    def draw(self, count: int, forbidden: set[int]) -> tuple[list[str], list[int]]:
        """`count` words in distinct buckets, none of them in `forbidden`."""
        words, buckets = [], []
        while len(words) < count:
            word = self._next()
            b = bucket(word)
            if b not in forbidden and b not in buckets:
                words.append(word)
                buckets.append(b)
        return words, buckets


@dataclass(frozen=True)
class PlantedCorpus:
    ids: list[str]
    texts: list[str]
    topic_of: list[int]  # passage index -> topic
    topic_tokens: list[tuple[str, ...]]
    subtopic: list[tuple[str, ...]]  # passage index -> its own tokens
    members: list[list[int]]  # topic -> passage indices


def planted_corpus(rng: np.random.Generator, w: Workload) -> PlantedCorpus:
    if w.passages < 3 * w.topics:
        raise ValueError("every topic needs at least 3 passages")
    vocab = Vocabulary(rng)
    shared = {bucket(t) for t in TEMPLATE_WORDS}
    filler, filler_buckets = vocab.draw(FILLER_VOCAB, shared)
    shared.update(filler_buckets)
    topic_tokens, topic_buckets = [], []
    for _ in range(w.topics):
        words, buckets = vocab.draw(w.topic_tokens, shared)
        topic_tokens.append(tuple(words))
        topic_buckets.append(set(buckets))
        if w.loop:
            shared.update(buckets)  # topics never share a bucket
    topic_of = np.arange(w.passages) % w.topics
    rng.shuffle(topic_of)
    # Zipf-shaped counts by filler rank, capped; every passage gets the same
    # filler, so passage norms match and mates tie exactly on topic atoms
    counts = np.minimum(
        np.maximum(np.round(FILLER_TOP / np.arange(1, FILLER_VOCAB + 1)), 1), FILLER_CAP
    )
    filler_tokens = [word for word, c in zip(filler, counts) for _ in range(int(c))]

    ids, texts, subtopic = [], [], []
    members: list[list[int]] = [[] for _ in range(w.topics)]
    for i in range(w.passages):
        topic = int(topic_of[i])
        members[topic].append(i)
        subs, _ = vocab.draw(w.subtopics, shared | topic_buckets[topic])
        subtopic.append(tuple(subs))
        tokens = filler_tokens + list(topic_tokens[topic]) * TOPIC_REPEAT
        tokens += subs * SUBTOPIC_REPEAT
        order = rng.permutation(len(tokens))
        ids.append(f"p{i:06d}")
        texts.append(" ".join(tokens[j] for j in order))
    return PlantedCorpus(ids, texts, topic_of.tolist(), topic_tokens, subtopic, members)


def qa_questions(rng: np.random.Generator, corpus: PlantedCorpus, triples: int) -> list[dict]:
    """AND, OR and NOT questions in the generator's template style.

    Each triple draws three passages of one topic (a topic is used once).
    Phrases name the passage's subtopic token and both topic tokens.
    """
    phrase = lambda i: " ".join(corpus.subtopic[i] + corpus.topic_tokens[corpus.topic_of[i]])
    simple = lambda i: f"What does the passage about {phrase(i)} say?"
    topics = rng.choice(len(corpus.members), size=triples, replace=False)
    questions = []
    for n, topic in enumerate(topics):
        cands = [int(i) for i in rng.choice(corpus.members[int(topic)], size=3, replace=False)]
        ids = [corpus.ids[i] for i in cands]
        disj = "What does the passage about " + " or ".join(phrase(i) for i in cands) + " say?"
        # roles rotate through the three draws, so each position is the AND
        # positive, the OR outsider and the NOT exclusion equally often
        pos, outsider, excluded = n % 3, (n + 1) % 3, (n + 2) % 3
        or_pair = [j for j in range(3) if j != outsider]
        second = simple(cands[or_pair[1]])
        stem = f"q{n:04d}"
        questions += [
            _question(
                f"{stem}-and", "AND",
                disj[:-1] + f" and what is specific to {phrase(cands[pos])}?",
                f'"{disj}" AND "What is specific to {phrase(cands[pos])}?"',
                [ids[pos]], [d for j, d in enumerate(ids) if j != pos],
            ),
            _question(
                f"{stem}-or", "OR",
                simple(cands[or_pair[0]])[:-1] + " or " + second[0].lower() + second[1:],
                f'"{simple(cands[or_pair[0]])}" OR "{second}"',
                [ids[j] for j in or_pair], [d for j, d in enumerate(ids) if j not in or_pair],
            ),
            _question(
                f"{stem}-not", "NOT",
                disj[:-1] + f" but not related to {phrase(cands[excluded])}?",
                f'"{disj}" NOT "{simple(cands[excluded])}"',
                [d for j, d in enumerate(ids) if j != excluded], [ids[excluded]],
            ),
        ]
    return questions


def _question(qid, qtype, text, expression, positives, negatives) -> dict:
    return {
        "question_id": qid,
        "question": text,
        "qtype": qtype,
        "positives": sorted(positives),
        "negatives": sorted(negatives),
        "expression": expression,
    }


@dataclass(frozen=True)
class Inputs:
    corpus_path: Path
    judgments_path: Path | None  # qa workloads only
    expressions: dict[str, str]  # question_id -> Boolean expression (qa only)
    corpus: PlantedCorpus


def write_inputs(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate and write one workload's inputs; same seed, same bytes."""
    rng = np.random.default_rng([seed, *workload.name.encode()])
    corpus = planted_corpus(rng, workload)
    work_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = work_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as f:
        for pid, text in zip(corpus.ids, corpus.texts):
            f.write(json.dumps({"id": pid, "text": text}) + "\n")
    if workload.loop:
        return Inputs(corpus_path, None, {}, corpus)
    questions = qa_questions(rng, corpus, workload.question_triples)
    judgments_path = work_dir / "judgments.jsonl"
    with open(judgments_path, "w", encoding="utf-8") as f:
        for q in questions:
            record = {k: q[k] for k in ("question_id", "question", "qtype", "positives", "negatives")}
            f.write(json.dumps(record) + "\n")
    expressions = {q["question_id"]: q["expression"] for q in questions}
    return Inputs(corpus_path, judgments_path, expressions, corpus)
