"""Synthetic benchmark generation: cluster a corpus, write atomic questions
per cluster, compose AND/OR/NOT questions with positive/negative labels, and
keep only questions that survive cyclic consistency filtering.

Two generator backends share the pipeline. Template mode is fully
deterministic and offline: question text is built from each passage's most
distinctive tokens, and answerability is decided by token containment.
Chat mode prompts a chat model for every step and checks consistency by
asking the model to answer each question from each labeled passage.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .chat import ChatClient
from .data import (
    Corpus,
    DatasetStats,
    Judgment,
    Passage,
    QuestionType,
    atomic_write,
    compute_stats,
    read_records,
    record_ids,
    to_record,
    write_records,
)
from .embed import EmbedderSpec, embed_texts, normalize_rows, tokenize
from .errors import ChatError, GenerationError
from .query import And, Atom, Not, Or, render

logger = logging.getLogger(__name__)

CANNOT_ANSWER = "Cannot answer"
GENERATOR_MODES = ("template", "chat")

# cluster_passages holds an n x n float64 distance matrix: 8 n^2 bytes, 3.2 GB at the cap
MAX_CLUSTER_ROWS = 20_000


def _check_cluster_id(value, name: str) -> None:
    if type(value) is not int or value < 0:  # a bool is not an id
        raise GenerationError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class Cluster:
    cluster_id: int
    passage_ids: tuple[str, ...]

    def __post_init__(self):
        _check_cluster_id(self.cluster_id, "cluster id")
        if not self.passage_ids:
            raise GenerationError(f"cluster {self.cluster_id} is empty")
        if len(set(self.passage_ids)) != len(self.passage_ids):
            raise GenerationError(f"cluster {self.cluster_id} repeats passage ids")


@dataclass(frozen=True)
class PromptSet:
    """System messages and per-step user prompts for the chat generator."""

    questioner_system: str
    answerer_system: str
    simple: str
    disjunctive: str
    and_converter: str
    or_converter: str
    not_converter: str
    answerer: str


DEFAULT_PROMPTS = PromptSet(
    questioner_system=(
        "You are an experienced questioner and retrieval system tester. You "
        "need to generate questions based on the given paragraphs and related "
        "instructions, which will be used as queries to test if the retrieval "
        "system can understand the Boolean logic contained in natural "
        "language. The questions you pose should align as closely as possible "
        "with the retrieval system's scenario, meaning the language style of "
        "the questions should resemble that of a search engine user. Besides, "
        "please vary your expressions more and avoid sticking to just a few "
        "ways of saying things. Note, you only need to output one question no "
        "longer than 32 words, without any extra content."
    ),
    answerer_system=(
        "You are an expert answerer who needs to provide answers to the "
        "questions based on the given paragraphs. If the question can be "
        "answered by the paragraph(s), please provide a brief answer. If the "
        'question cannot be answered by the paragraph(s), please respond with '
        '"Cannot answer". Note, you only need to output one answer no longer '
        'than 64 words or "Cannot answer", without any extra content.'
    ),
    simple=(
        "Please propose a question that can be answered by the following "
        "paragraph.\n\n{paragraph}"
    ),
    disjunctive=(
        "Please propose a question that can be answered by any of the "
        "following paragraphs. Please make sure that each paragraph can "
        "provide answers to the question individually.\n\n{paragraphs}"
    ),
    and_converter=(
        "I need to test whether the retrieval system can understand the "
        "logical conjunction (AND) implied in natural language. Please "
        'generate a new question by adding constraints to the question '
        '"{question}", so that only paragraphs marked with [positive] provide '
        "the answer to the new question, while paragraphs marked with "
        "[negative] cannot provide the answer.\n\n{positive_paragraphs}\n\n"
        "{negative_paragraphs}"
    ),
    or_converter=(
        "I need to test if the retrieval system can understand the logical "
        "disjunction (OR) implied in natural language. Please convert the "
        "following expression containing the logical disjunction (OR) into a "
        "natural language question.\n\n{expression}"
    ),
    not_converter=(
        "I need to test if the retrieval system can understand the logic of "
        "negation (NOT) implied in natural language. Please convert the "
        "following expression containing the logic of negation (NOT) into a "
        "natural language question.\n\n{expression}"
    ),
    answerer=(
        "Please provide a brief answer to the following question according to "
        "the given paragraph(s). If the question cannot be answered by the "
        'paragraph(s), please respond with "Cannot answer".\n\nquestion:\n'
        "{question}\n\nparagraphs:\n{paragraphs}"
    ),
)


@dataclass(frozen=True)
class GeneratorSpec:
    mode: str = "template"
    chat_endpoint: str = ""
    chat_model: str = ""
    chat_mode: str = "live"
    cassette_path: str = ""
    seed: int = 0
    n_per_type: int = 10
    max_concurrent: int = 4

    def __post_init__(self):
        if self.mode not in GENERATOR_MODES:
            raise GenerationError(f"unknown generator mode {self.mode!r}")
        if self.mode == "chat" and not self.chat_model:
            raise GenerationError("chat mode requires a model name")
        if self.mode == "template" and (self.chat_endpoint or self.chat_model):
            raise GenerationError("template mode takes no chat endpoint or model")
        if self.n_per_type < 1:
            raise GenerationError("n_per_type must be >= 1")
        if self.max_concurrent < 1:
            raise GenerationError("max_concurrent must be >= 1")
        if self.seed < 0:
            raise GenerationError(f"seed must be >= 0, got {self.seed}")

    def make_client(self) -> ChatClient | None:
        if self.mode != "chat":
            return None
        return ChatClient(
            endpoint=self.chat_endpoint,
            model=self.chat_model,
            mode=self.chat_mode,
            cassette_path=self.cassette_path or None,
        )


@dataclass(frozen=True)
class GeneratedQuestion:
    """One synthesized question with its labels and provenance.

    ``expression`` is the Boolean expression the question was composed
    from, rendered in the query grammar (AND/OR/NOT types only).
    ``answer_token_groups`` drives the offline answerability proxy: a
    passage counts as answering iff it contains every token of at least
    one group. ``filtered`` is True once the question has passed cyclic
    consistency filtering.
    """

    question_id: str
    qtype: QuestionType
    text: str
    source_cluster: int
    candidate_ids: tuple[str, ...]
    positives: frozenset[str]
    negatives: frozenset[str]
    provenance: str = "template"
    filtered: bool = False
    expression: str | None = None
    answer_token_groups: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.question_id, str) or not isinstance(self.text, str):
            raise GenerationError("question_id and text must be strings")
        if not (self.expression is None or isinstance(self.expression, str)):
            raise GenerationError("expression must be a string or null")
        _check_cluster_id(self.source_cluster, "source_cluster")
        if type(self.filtered) is not bool:
            raise GenerationError(
                f"filtered must be a boolean, got {type(self.filtered).__name__}"
            )
        if not self.question_id:
            raise GenerationError("question_id must be non-empty")
        if self.provenance not in ("template", "chat-model"):
            raise GenerationError(f"unknown provenance {self.provenance!r}")
        if not all(self.answer_token_groups):  # a group every passage satisfies
            raise GenerationError(
                f"question {self.question_id!r} has an empty answer token group"
            )
        if self.positives & self.negatives:
            raise GenerationError(
                f"question {self.question_id!r}: positives and negatives overlap"
            )
        labeled = self.positives | self.negatives
        if not labeled <= set(self.candidate_ids):
            raise GenerationError(
                f"question {self.question_id!r}: labels outside candidate set"
            )
        n = len(self.candidate_ids)
        expected = {
            QuestionType.SIMPLE: (1, 0),
            QuestionType.DISJUNCTIVE: (n, 0),
            QuestionType.AND: (1, n - 1),
            QuestionType.OR: (2, n - 2),
            QuestionType.NOT: (n - 1, 1),
        }[self.qtype]
        actual = (len(self.positives), len(self.negatives))
        if actual != expected:
            raise GenerationError(
                f"question {self.question_id!r} ({self.qtype.value}, n={n}): "
                f"expected {expected[0]} positives and {expected[1]} negatives, "
                f"got {actual[0]} and {actual[1]}"
            )


# ---------------------------------------------------------------------------
# Dimensionality reduction and clustering


def reduce_dims(
    embeddings: np.ndarray, rank: int, sample_cap: int = 100_000, seed: int = 0
) -> np.ndarray:
    """Project rows onto a truncated SVD basis fit on a sampled subset.

    The basis comes from a seeded randomized range finder with two power
    iterations, so the output is deterministic under (input, rank, seed).
    When the matrix rank falls short of the request, the output width is
    reduced to the effective rank with a warning.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    if matrix.ndim != 2:
        raise GenerationError("embeddings must be a 2-D matrix")
    if not np.isfinite(matrix).all():
        raise GenerationError("cannot reduce non-finite embeddings")
    n, dim = matrix.shape
    if rank < 1 or rank >= dim:
        raise GenerationError(f"rank must be in [1, dim); got rank={rank}, dim={dim}")
    if sample_cap < rank:
        raise GenerationError("sample_cap must be at least the requested rank")
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if n > sample_cap:
        sample = matrix[rng.choice(n, size=sample_cap, replace=False)]
    else:
        sample = matrix
    basis = _randomized_row_basis(sample, rank, rng)
    return matrix @ basis.T


def _randomized_row_basis(sample: np.ndarray, rank: int, rng) -> np.ndarray:
    m, dim = sample.shape
    sketch = min(rank + 8, m, dim)
    omega = rng.standard_normal((dim, sketch))
    q, _ = np.linalg.qr(sample @ omega)
    for _ in range(2):
        z, _ = np.linalg.qr(sample.T @ q)
        q, _ = np.linalg.qr(sample @ z)
    projected = q.T @ sample
    _, singulars, vt = np.linalg.svd(projected, full_matrices=False)
    if singulars[0] == 0.0:
        raise GenerationError("cannot reduce an all-zero embedding matrix")
    tol = singulars[0] * max(m, dim) * np.finfo(np.float64).eps
    effective = min(rank, int(np.sum(singulars > tol)))
    if effective < rank:
        logger.warning(
            "embedding matrix rank %d is below the requested rank %d; reducing",
            effective,
            rank,
        )
    return vt[:effective]


def cosine_distances(rows: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cosine similarity; zero rows are treated as maximally
    distant (distance 1) from everything."""
    unit = normalize_rows(rows)
    sims = unit @ unit.T  # a zero row's similarities are zeros: distance 1
    return np.subtract(1.0, sims, out=sims)


def _check_cluster_rows(n: int) -> None:
    if n > MAX_CLUSTER_ROWS:
        raise GenerationError(
            f"clustering {n} rows needs a {8 * n * n:,}-byte distance matrix; "
            f"at most {MAX_CLUSTER_ROWS:,} rows can be clustered"
        )


def cluster_passages(
    reduced: np.ndarray,
    passage_ids: Sequence[str],
    *,
    distance_threshold: float | None = None,
    target_count: int | None = None,
) -> list[Cluster]:
    """Bottom-up agglomerative clustering, average linkage, cosine distance.

    Merging stops when the minimum inter-cluster distance exceeds the
    threshold, or when the cluster count reaches target_count. Ties on
    distance are broken by the smallest (i, j) position pair, so the
    result is fully deterministic.

    Every row r keeps the minimum of distances[r, r+1:] and the first column
    holding it, so the pair to merge is the first row with the smallest
    minimum and that row's column. A merge of (i, j) changes row i and
    columns i and j only: row i is rescanned, as are the rows whose minimum
    sat in column i or j, and every other row before i compares its old
    minimum with its new entry in column i. A merge costs O(n) plus O(n)
    per rescanned row, so the worst case stays O(n^3) but is never worse
    than scanning the whole matrix per merge. Inputs above MAX_CLUSTER_ROWS
    rows and non-finite inputs are rejected before the n x n matrix exists.
    """
    rows = np.asarray(reduced, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        raise GenerationError("clustering needs at least 2 rows")
    if len(passage_ids) != n:
        raise GenerationError("passage_ids length must match the matrix rows")
    if (distance_threshold is None) == (target_count is None):
        raise GenerationError(
            "exactly one of distance_threshold and target_count must be given"
        )
    if distance_threshold is not None and not (
        math.isfinite(distance_threshold) and distance_threshold >= 0.0
    ):
        raise GenerationError(f"invalid distance threshold {distance_threshold!r}")
    if target_count is not None and not 1 <= target_count <= n:
        raise GenerationError(f"target_count must be in [1, {n}]")
    _check_cluster_rows(n)
    if not np.isfinite(rows).all():
        raise GenerationError("cannot cluster non-finite embeddings")

    distances = cosine_distances(rows)
    np.fill_diagonal(distances, np.inf)
    row_min = np.full(n, np.inf)
    row_arg = np.full(n, -1, dtype=np.intp)  # -1 marks a merged-away row

    def rescan(r: int) -> None:
        tail = distances[r, r + 1 :]
        c = int(np.argmin(tail))
        row_min[r] = tail[c]
        row_arg[r] = r + 1 + c

    for r in range(n - 1):
        rescan(r)
    members: list[list[int] | None] = [[i] for i in range(n)]
    active = n

    while active > 1:
        if target_count is not None and active <= target_count:
            break
        i = int(np.argmin(row_min))
        j = int(row_arg[i])
        best = row_min[i]
        if distance_threshold is not None and best > distance_threshold:
            break
        # Lance-Williams update for average linkage
        size_i, size_j = len(members[i]), len(members[j])
        merged_row = (size_i * distances[i] + size_j * distances[j]) / (size_i + size_j)
        distances[i, :] = merged_row
        distances[:, i] = merged_row
        distances[i, i] = np.inf
        distances[j, :] = np.inf
        distances[:, j] = np.inf
        members[i] = members[i] + members[j]
        members[j] = None
        active -= 1

        row_min[j] = np.inf
        row_arg[j] = -1
        stale = np.flatnonzero((row_arg[:j] == i) | (row_arg[:j] == j))
        new_col = merged_row[:i]
        won = (new_col < row_min[:i]) | ((new_col == row_min[:i]) & (i < row_arg[:i]))
        row_min[:i][won] = new_col[won]
        row_arg[:i][won] = i
        for r in stale:
            rescan(int(r))
        rescan(i)

    clusters = []
    groups = sorted(
        (sorted(member) for member in members if member is not None),
        key=lambda g: g[0],
    )
    for cluster_id, group in enumerate(groups):
        clusters.append(
            Cluster(
                cluster_id=cluster_id,
                passage_ids=tuple(passage_ids[row] for row in group),
            )
        )
    return clusters


def cluster_corpus(
    corpus: Corpus,
    embedder: EmbedderSpec,
    *,
    svd_rank: int = 128,
    sample_cap: int = 100_000,
    seed: int = 0,
    distance_threshold: float | None = None,
    target_count: int | None = None,
) -> list[Cluster]:
    """Embed, reduce, and cluster a corpus in one step."""
    _check_cluster_rows(len(corpus))  # fail before the embedding and SVD work
    matrix = embed_texts(embedder, list(corpus.texts))
    rank = min(svd_rank, matrix.shape[1] - 1)
    reduced = reduce_dims(matrix, rank=rank, sample_cap=sample_cap, seed=seed)
    return cluster_passages(
        reduced,
        corpus.ids,
        distance_threshold=distance_threshold,
        target_count=target_count,
    )


# ---------------------------------------------------------------------------
# Candidate sampling and question generation


def sample_candidates(cluster: Cluster, seed) -> list[str]:
    """Draw 2 or 3 distinct passages from a cluster, uniformly, seeded.

    Clusters smaller than 2 cannot host a Boolean question and are
    skipped with a log line (empty result).
    """
    size = len(cluster.passage_ids)
    if size < 2:
        logger.info("skipping cluster %d: only %d passage(s)", cluster.cluster_id, size)
        return []
    rng = np.random.default_rng(seed)
    n = min(int(rng.integers(2, 4)), size)
    chosen = rng.choice(size, size=n, replace=False)
    return [cluster.passage_ids[i] for i in chosen]


def distinctive_tokens(
    passage: Passage, peers: Sequence[Passage], limit: int = 2
) -> tuple[str, ...]:
    """The passage's most characteristic tokens among its peers: tokens no
    peer contains come first, then by descending count, then alphabetical."""
    counts = Counter(tokenize(passage.text))
    if not counts:
        raise GenerationError(f"passage {passage.id!r} has no tokens")
    peer_tokens: set[str] = set()
    for peer in peers:
        if peer.id != passage.id:
            peer_tokens.update(tokenize(peer.text))
    ordered = sorted(counts, key=lambda tok: (tok in peer_tokens, -counts[tok], tok))
    return tuple(ordered[:limit])


def _question(client: ChatClient | None, groups, **fields) -> GeneratedQuestion:
    """A question with its backend's provenance; only template questions
    keep their answer token groups, which the offline proxy needs."""
    if client is None:
        return GeneratedQuestion(answer_token_groups=groups, **fields)
    return GeneratedQuestion(provenance="chat-model", **fields)


def _ask_questioner(client: ChatClient, template: str, **fields: str) -> str:
    user = template.format(**fields)
    text = client.complete(DEFAULT_PROMPTS.questioner_system, user).strip()
    if not text:
        raise GenerationError("chat model returned an empty question")
    return text


def gen_atomic(
    candidates: Sequence[Passage],
    *,
    cluster_id: int = 0,
    id_stem: str = "q0",
    client: ChatClient | None = None,
) -> tuple[list[GeneratedQuestion], GeneratedQuestion]:
    """One simple question per candidate plus one disjunctive question
    answerable by any candidate individually. Every step asks client, the
    chat backend, or with None builds its text from templates."""
    if not 2 <= len(candidates) <= 3:
        raise GenerationError("atomic generation needs 2 or 3 candidates")
    ids = tuple(p.id for p in candidates)
    topics = [distinctive_tokens(p, candidates) for p in candidates]

    if client is None:
        phrases = [" ".join(t) for t in topics]
        simple_texts = [f"What does the passage about {p} say?" for p in phrases]
        disj_text = f"What does the passage about {' or '.join(phrases)} say?"
    else:
        simple_texts = [
            _ask_questioner(client, DEFAULT_PROMPTS.simple, paragraph=p.text)
            for p in candidates
        ]
        block = "\n\n".join(p.text for p in candidates)
        disj_text = _ask_questioner(client, DEFAULT_PROMPTS.disjunctive, paragraphs=block)

    simples = [
        _question(
            client,
            (topics[i],),
            question_id=f"{id_stem}-simple-{i}",
            qtype=QuestionType.SIMPLE,
            text=text,
            source_cluster=cluster_id,
            candidate_ids=ids,
            positives=frozenset({candidates[i].id}),
            negatives=frozenset(),
        )
        for i, text in enumerate(simple_texts)
    ]
    disjunctive = _question(
        client,
        tuple(topics),
        question_id=f"{id_stem}-disj",
        qtype=QuestionType.DISJUNCTIVE,
        text=disj_text,
        source_cluster=cluster_id,
        candidate_ids=ids,
        positives=frozenset(ids),
        negatives=frozenset(),
    )
    return simples, disjunctive


def gen_and(
    q_disj: GeneratedQuestion,
    candidates: Sequence[Passage],
    *,
    rng: np.random.Generator,
    id_stem: str = "q0",
    client: ChatClient | None = None,
) -> GeneratedQuestion:
    """Constrain the disjunctive question so a single random candidate
    remains answerable; the rest become explicit negatives."""
    positive = candidates[int(rng.integers(len(candidates)))]
    negatives = [p for p in candidates if p.id != positive.id]
    topic = distinctive_tokens(positive, candidates)
    phrase = " ".join(topic)

    if client is None:
        text = q_disj.text.rstrip("?") + f" and what is specific to {phrase}?"
    else:
        text = _ask_questioner(
            client,
            DEFAULT_PROMPTS.and_converter,
            question=q_disj.text,
            positive_paragraphs=f"[positive] {positive.text}",
            negative_paragraphs="\n\n".join(f"[negative] {p.text}" for p in negatives),
        )

    return _question(
        client,
        (topic,),
        question_id=f"{id_stem}-and",
        qtype=QuestionType.AND,
        text=text,
        source_cluster=q_disj.source_cluster,
        candidate_ids=q_disj.candidate_ids,
        positives=frozenset({positive.id}),
        negatives=frozenset(p.id for p in negatives),
        expression=render(And(Atom(q_disj.text), Atom(f"What is specific to {phrase}?"))),
    )


def gen_or(
    simple_questions: Sequence[GeneratedQuestion],
    candidates: Sequence[Passage],
    *,
    rng: np.random.Generator,
    id_stem: str = "q0",
    client: ChatClient | None = None,
) -> GeneratedQuestion:
    """Join two randomly chosen simple questions; their source passages are
    the positives, the remaining candidates the negatives."""
    if len(simple_questions) < 2:
        raise GenerationError("OR generation needs at least 2 simple questions")
    picked = sorted(rng.choice(len(simple_questions), size=2, replace=False).tolist())
    first, second = (simple_questions[i] for i in picked)
    positives = frozenset(next(iter(q.positives)) for q in (first, second))
    expression = render(Or(Atom(first.text), Atom(second.text)))

    if client is None:
        tail = second.text[0].lower() + second.text[1:]
        text = f"{first.text.rstrip('?')} or {tail.rstrip('?')}?"
    else:
        text = _ask_questioner(client, DEFAULT_PROMPTS.or_converter, expression=expression)

    return _question(
        client,
        first.answer_token_groups + second.answer_token_groups,
        question_id=f"{id_stem}-or",
        qtype=QuestionType.OR,
        text=text,
        source_cluster=first.source_cluster,
        candidate_ids=first.candidate_ids,
        positives=positives,
        negatives=frozenset(p.id for p in candidates) - positives,
        expression=expression,
    )


def gen_not(
    q_disj: GeneratedQuestion,
    simple_questions: Sequence[GeneratedQuestion],
    candidates: Sequence[Passage],
    *,
    rng: np.random.Generator,
    id_stem: str = "q0",
    client: ChatClient | None = None,
) -> GeneratedQuestion:
    """Exclude one randomly chosen simple question's topic from the
    disjunctive question; its source passage becomes the sole negative."""
    if not simple_questions:
        raise GenerationError("NOT generation needs at least 1 simple question")
    excluded = simple_questions[int(rng.integers(len(simple_questions)))]
    negative_id = next(iter(excluded.positives))
    positives = frozenset(p.id for p in candidates) - {negative_id}
    expression = render(Not(Atom(q_disj.text), Atom(excluded.text)))

    if client is None:
        negative = next(p for p in candidates if p.id == negative_id)
        topic = " ".join(distinctive_tokens(negative, candidates))
        text = q_disj.text.rstrip("?") + f" but not related to {topic}?"
    else:
        text = _ask_questioner(
            client, DEFAULT_PROMPTS.not_converter, expression=expression
        )

    groups = tuple(
        g
        for question in simple_questions
        if next(iter(question.positives)) in positives
        for g in question.answer_token_groups
    )
    return _question(
        client,
        groups,
        question_id=f"{id_stem}-not",
        qtype=QuestionType.NOT,
        text=text,
        source_cluster=q_disj.source_cluster,
        candidate_ids=q_disj.candidate_ids,
        positives=positives,
        negatives=frozenset({negative_id}),
        expression=expression,
    )


# ---------------------------------------------------------------------------
# Cyclic consistency filtering


def _proxy_answers(passage: Passage, groups: Sequence[Sequence[str]]) -> bool:
    tokens = set(tokenize(passage.text))
    return any(all(t in tokens for t in group) for group in groups)


def _chat_answers(client: ChatClient, question: str, passage: Passage) -> bool:
    response = client.complete(
        DEFAULT_PROMPTS.answerer_system,
        DEFAULT_PROMPTS.answerer.format(question=question, paragraphs=passage.text),
    )
    normalized = response.strip().strip('."').lower()
    return not normalized.startswith(CANNOT_ANSWER.lower())


def cyclic_filter(
    question: GeneratedQuestion, corpus: Corpus, client: ChatClient | None = None
) -> bool:
    """Keep a question iff every positive answers it and every explicit
    negative does not.

    With no client, answerability is token containment against the
    question's answer_token_groups; a chat client asks the answerer model per
    passage. Chat transport failures mark the question unfiltered.
    """
    if client is None:
        if not question.answer_token_groups:
            raise GenerationError(
                f"question {question.question_id!r} lacks answer token groups; "
                "the offline proxy cannot judge it"
            )
        answers = lambda p: _proxy_answers(p, question.answer_token_groups)
    else:
        answers = lambda p: _chat_answers(client, question.text, p)

    try:
        for passage_id in sorted(question.positives):
            if not answers(corpus[passage_id]):
                return False
        for passage_id in sorted(question.negatives):
            if answers(corpus[passage_id]):
                return False
    except ChatError as exc:
        logger.warning(
            "excluding question %s: consistency check failed (%s)",
            question.question_id,
            exc,
        )
        return False
    return True


def apply_cyclic_filter(
    questions: Sequence[GeneratedQuestion],
    corpus: Corpus,
    spec: GeneratorSpec,
) -> list[GeneratedQuestion]:
    """Run cyclic_filter over all questions, with the spec's chat client,
    and set their filtered flags."""
    client = spec.make_client()
    if client is not None and len(questions) > 1:
        with ThreadPoolExecutor(max_workers=spec.max_concurrent) as pool:
            verdicts = list(pool.map(lambda q: cyclic_filter(q, corpus, client), questions))
    else:
        verdicts = [cyclic_filter(q, corpus, client) for q in questions]
    return [replace(q, filtered=kept) for q, kept in zip(questions, verdicts)]


# ---------------------------------------------------------------------------
# Orchestration and assembly


def generate_questions(
    corpus: Corpus,
    clusters: Sequence[Cluster],
    spec: GeneratorSpec,
) -> list[GeneratedQuestion]:
    """Visit clusters round-robin until n_per_type AND, OR, and NOT
    questions exist; every visit also yields the atomic questions, all
    written with the spec's chat client."""
    unknown = [pid for c in clusters for pid in c.passage_ids if pid not in corpus]
    if unknown:
        raise GenerationError(
            f"clusters name {len(unknown)} passage id(s) not in the corpus, "
            f"such as {unknown[0]!r}"
        )
    eligible = [c for c in clusters if len(c.passage_ids) >= 2]
    if not eligible:
        raise GenerationError("no cluster has 2 or more passages")
    client = spec.make_client()
    questions: list[GeneratedQuestion] = []
    visits = 0
    round_idx = 0
    while visits < spec.n_per_type:
        for cluster in eligible:
            if visits >= spec.n_per_type:
                break
            seed_key = [spec.seed, round_idx, cluster.cluster_id]
            candidate_ids = sample_candidates(cluster, seed_key)
            candidates = [corpus[pid] for pid in candidate_ids]
            rng = np.random.default_rng(seed_key + [1])
            id_stem = f"c{cluster.cluster_id:04d}r{round_idx:03d}"
            simples, disj = gen_atomic(
                candidates, cluster_id=cluster.cluster_id, id_stem=id_stem, client=client
            )
            questions.extend(simples)
            questions.append(disj)
            questions.append(
                gen_and(disj, candidates, rng=rng, id_stem=id_stem, client=client)
            )
            questions.append(
                gen_or(simples, candidates, rng=rng, id_stem=id_stem, client=client)
            )
            questions.append(
                gen_not(disj, simples, candidates, rng=rng, id_stem=id_stem, client=client)
            )
            visits += 1
        round_idx += 1
    return questions


def assemble_dataset(
    questions: Sequence[GeneratedQuestion], corpus: Corpus
) -> tuple[list[Judgment], DatasetStats]:
    """Turn filtered questions into judgment records plus their stats.

    Questions are emitted in question_id order; any invariant violation
    aborts with the offending question id in the message.
    """
    kept = sorted(
        (q for q in questions if q.filtered), key=lambda q: q.question_id
    )
    judgments = []
    for question in kept:
        unknown = [
            pid for pid in question.positives | question.negatives if pid not in corpus
        ]
        if unknown:
            raise GenerationError(
                f"question {question.question_id!r} references unknown "
                f"passage ids {sorted(unknown)}"
            )
        judgments.append(
            Judgment(
                question_id=question.question_id,
                question=question.text,
                qtype=question.qtype,
                positives=question.positives,
                negatives=question.negatives,
            )
        )
    return judgments, compute_stats(judgments)


# ---------------------------------------------------------------------------
# Question file I/O (JSONL), used to hand results between pipeline stages


def save_questions(questions: Sequence[GeneratedQuestion], path: str | Path) -> None:
    write_records(path, map(to_record, questions))


def load_questions(path: str | Path) -> list[GeneratedQuestion]:
    return [q for _, q in read_records(path, GenerationError, _question_from_record)]


def _question_from_record(raw: dict) -> GeneratedQuestion:
    return GeneratedQuestion(
        question_id=raw["question_id"],
        qtype=QuestionType.parse(raw["qtype"]),
        text=raw["text"],
        source_cluster=raw["source_cluster"],
        candidate_ids=record_ids(raw["candidate_ids"], "candidate_ids", GenerationError),
        positives=frozenset(record_ids(raw["positives"], "positives", GenerationError)),
        negatives=frozenset(record_ids(raw["negatives"], "negatives", GenerationError)),
        provenance=raw["provenance"],
        filtered=raw["filtered"],
        expression=raw.get("expression"),
        answer_token_groups=_token_groups(raw.get("answer_token_groups", [])),
    )


def _token_groups(value) -> tuple[tuple[str, ...], ...]:
    if not (isinstance(value, list) and all(
        isinstance(group, list) and all(isinstance(token, str) for token in group)
        for group in value
    )):
        raise GenerationError("answer_token_groups must be a list of lists of strings")
    return tuple(map(tuple, value))


def save_clusters(clusters: Sequence[Cluster], path: str | Path) -> None:
    with atomic_write(path) as f:
        f.write(json.dumps(list(map(to_record, clusters)), indent=2))


def load_clusters(path: str | Path) -> list[Cluster]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return [
            Cluster(
                cluster_id=raw["cluster_id"],
                passage_ids=record_ids(raw["passage_ids"], "passage_ids", GenerationError),
            )
            for raw in payload
        ]
    except (ValueError, KeyError, TypeError, RecursionError, GenerationError) as exc:
        raise GenerationError(f"{path}: malformed clusters file: {exc!r}") from None
