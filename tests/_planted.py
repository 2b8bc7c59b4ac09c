"""Shared test fixtures: planted-topic corpora and brute-force oracles.

A planted corpus has fully disjoint token vocabularies per cluster: every
passage repeats its cluster's shared topic tokens plus its own subtopic
tokens, so ground-truth cluster structure and answerability are known by
construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np
from hypothesis import strategies as st

from boolsearch.data import Corpus, Passage, atomic_write
from boolsearch.embed import embed_texts
from boolsearch.errors import BoolSearchError, GenerationError
from boolsearch.generate import Cluster, cosine_distances
from boolsearch.index import MAGIC, SIMILARITIES, Index, embed_query
from boolsearch.query import And, Atom, Not, Or


def planted_corpus(n_clusters: int = 20, per_cluster: int = 5):
    """Corpus plus the planted ground truth (shared tokens, member ids)."""
    passages = []
    truth = []
    for c in range(n_clusters):
        shared = (f"core{c:02d}a", f"core{c:02d}b")
        ids = []
        for p in range(per_cluster):
            sub = (f"sub{c:02d}p{p}x", f"sub{c:02d}p{p}y")
            # shared-topic weight keeps clusters tight; subtopic weight keeps
            # question tokens retrievable over stray hash-bucket collisions
            words = list(shared) * 4 + list(sub) * 3
            pid = f"c{c:02d}p{p}"
            passages.append(Passage(pid, " ".join(words)))
            ids.append(pid)
        truth.append({"shared": shared, "ids": tuple(ids)})
    return Corpus(passages), truth


def random_corpus(rng: np.random.Generator, n_docs: int, vocab: int = 40) -> Corpus:
    """Random short token-soup passages; small vocab makes score ties common."""
    words = [f"w{v}" for v in range(vocab)]
    passages = []
    for d in range(n_docs):
        length = int(rng.integers(2, 9))
        text = " ".join(rng.choice(words, size=length))
        passages.append(Passage(f"d{d:04d}", text))
    return Corpus(passages)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus as JSONL records that load_corpus reads back."""
    with atomic_write(path) as f:
        for p in corpus:
            f.write(json.dumps({"id": p.id, "text": p.text}, ensure_ascii=False))
            f.write("\n")


def random_query(rng: np.random.Generator, vocab: int = 40) -> str:
    words = [f"w{v}" for v in range(vocab)]
    return " ".join(rng.choice(words, size=int(rng.integers(1, 5))))


TOKEN_RE = re.compile(r"[a-z0-9]+")


def oracle_tokenize(text: str) -> list[str]:
    """The regular-expression tokenizer that embed.tokenize replaced."""
    return TOKEN_RE.findall(text.lower())


def oracle_hashed_bow_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """One fresh keyed blake2b per token occurrence, added into the vector
    one token at a time: hashed_bow_embed before the per-call token table."""
    key = seed.to_bytes(8, "little")
    vec = np.zeros(dim, dtype=np.float64)
    for token in oracle_tokenize(text):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        vec[h % dim] += 1.0 if (h >> 63) & 1 else -1.0
    return vec


def oracle_embed_query(index: Index, query_text: str) -> np.ndarray:
    """embed_query through the batch path it replaced: embed_texts of the one
    text, normalized with the rows of a batch, then the cosine division."""
    vec = embed_texts(index.spec, [query_text])[0]
    if index.similarity == "cosine" and np.count_nonzero(vec):
        vec = vec / math.sqrt(vec.dot(vec))
    return vec


def oracle_top_k(index: Index, query_text: str, k: int):
    """Full sort of every per-row similarity, ties by ascending doc id."""
    vec = embed_query(index, query_text)
    rows = index.matrix.astype(np.float64)
    scored = [
        (index.doc_ids[i], float(np.sum(rows[i] * vec)))
        for i in range(len(index.doc_ids))
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def oracle_screen(index: Index, nz: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The screen before its float32 scatter: the postings' products formed
    and summed in float64 by one bincount, rounded to float32 once, then
    the dense columns added in float32 a column at a time."""
    dense = index._dense[nz]
    if dense.all():
        screen = np.zeros(len(index.matrix), dtype=np.float32)
    else:
        sparse = ~dense
        posted = [index._postings[j] for j in nz[sparse].tolist()]
        rows = np.concatenate([rows for rows, _ in posted])
        values = np.concatenate([values for _, values in posted])
        weights = values * np.repeat(terms[sparse], [len(rows) for rows, _ in posted])
        screen = np.bincount(rows, weights, minlength=len(index.matrix)).astype(np.float32)
    for j, term in zip(nz[dense].tolist(), terms[dense].astype(np.float32)):
        screen += index.matrix[:, j] * term
    return screen


def save_index_v1(index: Index, path) -> None:
    """Write an index file of format version 1: the version 2 layout with
    the matrix row-major and no CRC32 after it."""
    spec_json = json.dumps(asdict(index.spec), sort_keys=True).encode("utf-8")
    parts = [
        MAGIC,
        struct.pack("<IBIQ", 1, SIMILARITIES.index(index.similarity), index.dim,
                    len(index.doc_ids)),
        struct.pack("<I", len(spec_json)),
        spec_json,
        index.spec.fingerprint().encode("ascii")[:16].ljust(16, b"\0"),
    ]
    for doc_id in index.doc_ids:
        encoded = doc_id.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded]
    parts.append(np.ascontiguousarray(index.matrix, dtype="<f4").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def oracle_evaluate_full_depth(index: Index, expr, not_mode: str, final_k: int):
    """Evaluate the merge algebra over untruncated per-atom score maps.

    Matches evaluate_expr whenever the policy depth covers the corpus.
    """

    def full_scores(atom_text: str) -> dict[str, float]:
        vec = embed_query(index, atom_text)
        rows = index.matrix.astype(np.float64)
        return {
            index.doc_ids[i]: float(np.sum(rows[i] * vec))
            for i in range(len(index.doc_ids))
        }

    def walk(node) -> dict[str, float]:
        if isinstance(node, Atom):
            return full_scores(node.text)
        left, right = walk(node.left), walk(node.right)
        if isinstance(node, And):
            return {d: s + right[d] for d, s in left.items() if d in right}
        if isinstance(node, Or):
            merged = dict(left)
            for d, s in right.items():
                merged[d] = max(merged.get(d, s), s)
            return merged
        if isinstance(node, Not):
            if not_mode == "hard":
                return {d: s for d, s in left.items() if d not in right}
            return {d: s - right.get(d, 0.0) for d, s in left.items()}
        raise TypeError(node)

    scored = sorted(walk(expr).items(), key=lambda pair: (-pair[1], pair[0]))
    return scored[:final_k]


def oracle_cluster_passages(
    reduced: np.ndarray,
    passage_ids: Sequence[str],
    *,
    distance_threshold: float | None = None,
    target_count: int | None = None,
) -> list[Cluster]:
    """The clustering loop that scans the whole masked matrix on every merge.

    Kept verbatim as the oracle for generate.cluster_passages, which must
    make exactly the same merges. Average linkage, cosine distance.

    Merging stops when the minimum inter-cluster distance exceeds the
    threshold, or when the cluster count reaches target_count. Ties on
    distance are broken by the smallest (i, j) position pair, so the
    result is fully deterministic.
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

    distances = cosine_distances(rows)
    np.fill_diagonal(distances, np.inf)
    members: list[list[int] | None] = [[i] for i in range(n)]
    active = n

    while active > 1:
        if target_count is not None and active <= target_count:
            break
        masked = distances.copy()
        for i, member in enumerate(members):
            if member is None:
                masked[i, :] = np.inf
                masked[:, i] = np.inf
        masked[np.tril_indices(n)] = np.inf
        flat = int(np.argmin(masked))
        i, j = divmod(flat, n)
        best = masked[i, j]
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


def random_expression(rng: np.random.Generator, max_depth: int = 5):
    """Random expression tree; atoms draw from a small printable alphabet."""
    if max_depth == 0 or rng.random() < 0.35:
        length = int(rng.integers(1, 8))
        alphabet = list("abcxyz ?\"\\'()然")
        text = "".join(rng.choice(alphabet, size=length))
        if not text.strip():
            text = "q"
        return Atom(text)
    node = [And, Or, Not][int(rng.integers(3))]
    return node(
        random_expression(rng, max_depth - 1),
        random_expression(rng, max_depth - 1),
    )


def atoms(expr) -> list[str]:
    """Atom texts in left-to-right order."""
    if isinstance(expr, Atom):
        return [expr.text]
    return atoms(expr.left) + atoms(expr.right)


def marco_replica_judgments():
    """Synthetic judgment set whose per-type marginals land on the
    published MARCO-split statistics within ±0.005.

    354 AND (333 with 1 negative), 469 OR (272 with 2 positives, 164 with
    1 negative), 328 NOT (371 positives and 226 negatives total).
    """
    from boolsearch.data import Judgment, QuestionType

    judgments = []

    def add(qtype, serial, n_pos, n_neg):
        qid = f"{qtype.value.lower()}{serial:04d}"
        judgments.append(
            Judgment(
                question_id=qid,
                question=f"What about topic {qid}?",
                qtype=qtype,
                positives=frozenset(f"{qid}-p{i}" for i in range(n_pos)),
                negatives=frozenset(f"{qid}-n{i}" for i in range(n_neg)),
            )
        )

    for i in range(354):
        add(QuestionType.AND, i, 1, 1 if i < 333 else 0)
    for i in range(469):
        add(QuestionType.OR, i, 2 if i < 272 else 1, 1 if i < 164 else 0)
    for i in range(328):
        add(QuestionType.NOT, i, 2 if i < 43 else 1, 1 if i < 226 else 0)
    return judgments


# ---------------------------------------------------------------------------
# Ranked lists as they were when every item checked its own score and every
# merge rebuilt a scores() dict: the oracle for RankedList's one checker and
# the merges that read lists directly.


@dataclass(frozen=True)
class OracleScoredDoc:
    doc_id: str
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise BoolSearchError(f"non-finite score for doc {self.doc_id!r}")


class OracleRankedList:
    __slots__ = ("items",)

    def __init__(self, items: Iterable[OracleScoredDoc]):
        # items are made one at a time, so the first fault in item order is
        # the one raised: a non-finite score, a repeated id, then the order
        checked: list[OracleScoredDoc] = []
        seen: set[str] = set()
        for item in items:
            if item.doc_id in seen:
                raise BoolSearchError(f"duplicate doc id {item.doc_id!r} in ranked list")
            seen.add(item.doc_id)
            if checked:
                prev = checked[-1]
                if item.score > prev.score:
                    raise BoolSearchError("ranked list scores must be non-increasing")
                if item.score == prev.score and item.doc_id < prev.doc_id:
                    raise BoolSearchError(
                        "ranked list ties must be ordered by ascending doc id"
                    )
            checked.append(item)
        self.items = tuple(checked)

    @classmethod
    def from_scores(cls, pairs: Iterable[tuple[str, float]]) -> "OracleRankedList":
        ordered = sorted(pairs, key=lambda p: (-p[1], p[0]))
        return cls(OracleScoredDoc(doc_id, score) for doc_id, score in ordered)

    def scores(self) -> dict[str, float]:
        return {item.doc_id: item.score for item in self.items}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def oracle_merge_and(a: OracleRankedList, b: OracleRankedList) -> OracleRankedList:
    scores_b = b.scores()
    return OracleRankedList.from_scores(
        (item.doc_id, item.score + scores_b[item.doc_id])
        for item in a
        if item.doc_id in scores_b
    )


def oracle_merge_or(a: OracleRankedList, b: OracleRankedList) -> OracleRankedList:
    merged = a.scores()
    for item in b:
        if item.doc_id in merged:
            merged[item.doc_id] = max(merged[item.doc_id], item.score)
        else:
            merged[item.doc_id] = item.score
    return OracleRankedList.from_scores(merged.items())


def oracle_merge_not(
    a: OracleRankedList, b: OracleRankedList, mode: str = "hard"
) -> OracleRankedList:
    scores_b = b.scores()
    if mode == "hard":
        return OracleRankedList(item for item in a if item.doc_id not in scores_b)
    return OracleRankedList.from_scores(
        (item.doc_id, item.score - scores_b.get(item.doc_id, 0.0)) for item in a
    )


def oracle_min_max_normalize(ranked: OracleRankedList) -> OracleRankedList:
    if len(ranked) == 0:
        return ranked
    values = [item.score for item in ranked]
    low, high = min(values), max(values)
    if low == high:
        return OracleRankedList(OracleScoredDoc(item.doc_id, 1.0) for item in ranked)
    # a range beyond float64 is scaled by 1/2, exact at its magnitudes, and
    # any other by 1, which changes no bit
    scale = 0.5 if math.isinf(high - low) else 1.0
    return OracleRankedList.from_scores(
        (item.doc_id, (item.score * scale - low * scale) / (high * scale - low * scale))
        for item in ranked
    )


def scored_pairs(merge_inputs: bool = False):
    """Hypothesis strategy: (doc_id, score) lists heavy in ties, signed
    zeros and ids ending in NUL. Lists for the merges hold distinct ids and
    finite scores; the others also repeat ids and hold NaN and infinities."""
    ids = st.sampled_from(["a", "a\x00", "b", "b\x00", "c", "", "\x00"])
    ties = [0.0, -0.0, 1.0, -1.0, 0.5, 5.0, 1e308, -1e308, 5e-324]
    if merge_inputs:
        scores = st.sampled_from(ties) | st.floats(allow_nan=False, allow_infinity=False)
        return st.lists(st.tuples(ids, scores), max_size=8, unique_by=lambda p: p[0])
    scores = st.sampled_from(ties + [math.nan, math.inf, -math.inf]) | st.floats()
    return st.lists(st.tuples(ids, scores), max_size=8)


def ranked_outcome(make):
    """A built list as (doc_id, score repr) pairs, or "rejected: " and the
    error's message."""
    try:
        return [(item.doc_id, repr(item.score)) for item in make()]
    except BoolSearchError as exc:
        return f"rejected: {exc}"
