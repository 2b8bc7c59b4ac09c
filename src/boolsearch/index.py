"""Exact top-k dense retrieval over an embedded corpus, with persistence.

Scoring is exact: every query is compared against every row, so retrieval
quality depends only on the embedding and the similarity function. Ties are
always broken by ascending doc id for total determinism.

The index keeps its float32 matrix column-major and read-only, and builds
once the postings (ascending row ids and values of the nonzero entries) of
every column with at most n // 8 nonzero rows, which take at most a quarter
of the matrix's bytes. top_k runs in two stages. A float32 screen scores
every row over only the columns where the query is nonzero, term at a
time, with the query rounded to float32 once: the float32 products of its
sparse columns' postings are scattered with one np.add.at, and its dense
columns are added one contiguous column at a time. A rigorous bound on the
screen's rounding error (Higham, Accuracy and Stability of Numerical
Algorithms, section 3.1) keeps every row that could still belong to the
top k, measured from the k-th largest screen, which one sort of every
screen gives. Survivors are scored again from the query's columns alone:
the other products are zeros, which change a float64 sum only in the sign
of a zero result, and that result is -0.0 only if every product is -0.0
(IEEE 754-2019 section 6.3). So a row with a nonzero product is summed
with +0.0 in place of those zeros, in the per-row reduction order that
defines a score. Rows of zero products score +0.0 or -0.0 and tie, so only
the k of them with the smallest ids are scored: +0.0 with no arithmetic if
one of their products is +0.0, else by a sum of the whole row. Ties are
ordered by a rank of the ids in Python string order, one key sort per
index. Results are bit-identical to scoring and fully sorting every row.

Index file layout (little-endian): magic "BDIX", u32 version, u8 similarity
(0=dot, 1=cosine), u32 dim, u64 row count, u32-length-prefixed embedder-spec
JSON, 16-byte fingerprint, u32-length-prefixed UTF-8 doc ids, then the
float32 matrix. Version 2 stores the matrix column-major followed by the
u32 CRC32 of those payload bytes; version 1 (still read) stores it
row-major with no checksum.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .data import Corpus, atomic_write
from .embed import EmbedderSpec, embed_chunks, embed_text, normalize_rows
from .errors import BoolSearchError, EmbeddingError, IndexFormatError

logger = logging.getLogger(__name__)

MAGIC = b"BDIX"
FORMAT_VERSION = 2  # version 1 files still load
SIMILARITIES = ("dot", "cosine")

# rows per embedding batch, per read of a version 1 payload and per block of
# zero-band rows read whole
_CHUNK_ROWS = 1024

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


class RankedList:
    """Ordered retrieval result as parallel tuples of doc ids and scores:
    scores finite and non-increasing, ids distinct, equal scores ordered by
    ascending doc id. The constructor is the one place these are checked."""

    __slots__ = ("ids", "scores")

    def __init__(self, items: Iterable[tuple[str, float]], _columns: tuple | None = None):
        ids, scores = self.ids, self.scores = _columns or tuple(zip(*items)) or ((), ())
        # three C-level passes accept a valid list; the loop names a bad one's first fault
        if all(map(math.isfinite, scores)) and len(set(ids)) == len(ids):
            keys = list(zip(map(operator.neg, scores), ids))
            if all(map(operator.lt, keys, keys[1:])):
                return
        seen: set[str] = set()
        prev_id, prev_score = "", math.inf
        for doc_id, score in zip(ids, scores):
            if not math.isfinite(score):
                raise BoolSearchError(f"non-finite score for doc {doc_id!r}")
            if doc_id in seen:
                raise BoolSearchError(f"duplicate doc id {doc_id!r} in ranked list")
            seen.add(doc_id)
            if score > prev_score:
                raise BoolSearchError("ranked list scores must be non-increasing")
            if score == prev_score and doc_id < prev_id:
                raise BoolSearchError("ranked list ties must be ordered by ascending doc id")
            prev_id, prev_score = doc_id, score

    @classmethod
    def from_scores(cls, pairs: Iterable[tuple[str, float]]) -> "RankedList":
        """Sort (doc_id, score) pairs by descending score, breaking ties
        by ascending doc id (two stable sorts)."""
        ordered = sorted(pairs, key=operator.itemgetter(0))
        ordered.sort(key=operator.itemgetter(1), reverse=True)
        return cls(ordered)

    @classmethod
    def _from_columns(cls, ids: tuple[str, ...], scores: tuple[float, ...]) -> "RankedList":
        """The list of ids[i] scored scores[i], for two tuples of one length,
        checked as pairs are: the columns are not zipped to be split again."""
        return cls((), (ids, scores))

    @property
    def items(self) -> tuple[ScoredDoc, ...]:
        return tuple(self)

    def truncate(self, k: int) -> "RankedList":
        return RankedList._from_columns(self.ids[:k], self.scores[:k])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(ScoredDoc, self.ids, self.scores)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankedList) and self.ids == other.ids
                and self.scores == other.scores)

    def __repr__(self) -> str:
        return f"RankedList({list(self)!r})"


@dataclass(frozen=True)
class Index:
    """Embedded corpus matrix plus everything needed to score queries."""

    doc_ids: tuple[str, ...]
    matrix: np.ndarray  # float32, len(doc_ids) x dim, column-major, read-only
    similarity: str
    spec: EmbedderSpec
    # derived once here, never lazily: one Index is shared across threads
    _id_rank: np.ndarray = field(init=False, repr=False, compare=False)
    _row_norm_bound: float = field(init=False, repr=False, compare=False)
    # per column: (row ids, values) of its nonzero entries, or None if dense
    _postings: tuple = field(init=False, repr=False, compare=False)
    _dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.similarity not in SIMILARITIES:
            raise BoolSearchError(f"unknown similarity {self.similarity!r}")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.doc_ids):
            raise BoolSearchError("index matrix row count must match doc id count")
        if not self.doc_ids:
            raise BoolSearchError("an index must hold at least one row")
        if self.matrix.dtype != np.float32:
            raise BoolSearchError(f"index matrix must be float32, got {self.matrix.dtype}")
        if self.matrix.shape[1] != self.spec.dim:
            raise BoolSearchError(
                f"index matrix dim {self.matrix.shape[1]} does not match the "
                f"embedder spec dim {self.spec.dim}"
            )
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise BoolSearchError("index doc ids must be distinct")
        # ranks in Python string order (a numpy str_ array drops trailing
        # NULs): the inverse of the permutation that sorts the ids, whose
        # Python ints are freed before the postings are made
        n = len(self.doc_ids)
        order = sorted(range(n), key=self.doc_ids.__getitem__)
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[order] = np.arange(n)
        del order
        object.__setattr__(self, "_id_rank", id_rank)
        matrix = self.matrix
        if (matrix.flags.writeable or not matrix.flags.owndata
                or not matrix.flags.f_contiguous):
            # a read-only copy of its own, not a view of a writable base: no
            # later write can skip the finiteness check or leave the row norm
            # bound stale
            matrix = np.array(matrix, order="F")
            matrix.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)
        # float64 squared row norms, a column at a time; a float32 square
        # cannot overflow float64, so a non-finite sum means a non-finite entry
        sq_norms = np.zeros(n)
        # a column with at most n // 8 nonzero rows gets postings: their
        # ascending ids (int32 while they fit) and float32 values, so all
        # postings together take at most a quarter of the matrix's bytes
        row_type = np.int32 if n < 2**31 else np.intp
        postings = []
        with np.errstate(invalid="ignore"):  # casting a signalling NaN warns
            for column in matrix.T:
                nonzero = column != 0  # a bool mask is cheaper to scan twice
                if np.count_nonzero(nonzero) <= n // 8:
                    rows = np.flatnonzero(nonzero)
                    postings.append((rows.astype(row_type), column[rows]))
                else:
                    postings.append(None)
                sq_norms += np.square(column, dtype=np.float64)
        if not np.isfinite(sq_norms).all():
            raise BoolSearchError("index matrix holds non-finite values")
        dense = np.array([posting is None for posting in postings])
        dense.flags.writeable = False
        for posting in filter(None, postings):
            for array in posting:
                array.flags.writeable = False
        object.__setattr__(self, "_row_norm_bound", math.sqrt(float(sq_norms.max())))
        object.__setattr__(self, "_postings", tuple(postings))
        object.__setattr__(self, "_dense", dense)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Index)
            and self.doc_ids == other.doc_ids
            and self.similarity == other.similarity
            and self.spec == other.spec
            and np.array_equal(self.matrix, other.matrix)
        )


def build_index(
    corpus: Corpus, spec: EmbedderSpec, similarity: str = "cosine"
) -> Index:
    """Embed every passage once and assemble the scoring matrix.

    Passages are embedded, normalized and cast to float32 one chunk at a
    time into the column-major matrix, so only one chunk's float64 rows are
    alive beside it; the hashed embedder's token table spans every chunk
    of the call.
    Cosine indexes store unit-normalized rows (zero rows stay zero).
    """
    if similarity not in SIMILARITIES:
        raise BoolSearchError(f"unknown similarity {similarity!r}")
    if len(corpus) == 0:
        raise BoolSearchError("cannot build an index over an empty corpus")
    ids = corpus.ids
    texts = list(corpus.texts)
    matrix = np.empty((len(texts), spec.dim), dtype=np.float32, order="F")
    start = 0
    try:
        for rows in embed_chunks(spec, texts, _CHUNK_ROWS):
            if similarity == "cosine":
                rows = normalize_rows(rows)
            matrix[start : start + len(rows)] = rows
            start += len(rows)
    except EmbeddingError as exc:
        last = min(start + _CHUNK_ROWS, len(texts)) - 1
        raise EmbeddingError(
            f"embedding failed for passages {ids[start]!r}..{ids[last]!r}: {exc}"
        ) from exc
    matrix.flags.writeable = False
    return Index(
        doc_ids=ids,
        matrix=matrix,
        similarity=similarity,
        spec=spec,
    )


def embed_query(index: Index, query: str) -> np.ndarray:
    vec = embed_text(index.spec, query)
    if index.similarity == "cosine" and np.count_nonzero(vec):
        # np.linalg.norm of a vector, without its Python-level dispatch
        vec = vec / math.sqrt(vec.dot(vec))
    return vec


def top_k(index: Index, query: str, k: int) -> RankedList:
    """Exact top-k by similarity; fewer than k returned iff the corpus
    is smaller than k."""
    if k < 1:
        raise BoolSearchError(f"k must be >= 1, got {k}")
    vec = embed_query(index, query)
    matrix = index.matrix
    n = len(matrix)
    eps = _screen_error(index.dim, index._row_norm_bound, math.sqrt(vec.dot(vec)))
    nz = np.flatnonzero(vec)
    terms = vec[nz]
    if math.isinf(eps):  # the screen could overflow float32: keep every row
        cand = np.arange(n)
    else:
        screen = _screen(index, nz, terms)
        t = float(np.sort(screen)[n - min(k, n)])  # the k-th largest screen
        # each of those k rows screened >= t scores >= t - eps, so every row
        # of the true top k scores >= t - eps and screens >= t - 2 eps; the
        # test is inclusive, so rows tied at the boundary all survive
        cand = np.flatnonzero(screen >= _round_down_f32(t - 2.0 * eps))
    # a score is the pairwise float64 sum of a row's products with vec: an
    # elementwise multiply and a sum over a C-ordered row, not a BLAS matmul,
    # so its order is the same however many rows are scored. Off the query's
    # columns the products are zeros, which change a sum only in the sign of
    # a zero result, and that is -0.0 only if every product is -0.0 (IEEE
    # 754-2019 section 6.3)
    prods = matrix[cand[:, None], nz].astype(np.float64) * terms
    hit = prods.any(axis=1)
    band = not hit.all()  # a zero band: some survivor has no nonzero product
    if band:
        # a row of zero products scores +0.0 or -0.0, which tie, so only
        # the k such rows of smallest id can place
        miss = np.flatnonzero(~hit)
        if len(miss) > k:
            miss = miss[np.argpartition(index._id_rank[cand[miss]], k - 1)[:k]]
        zero = cand[miss]
        # every product of such a row is a zero whose sign is its factors'
        # signs xor-ed, and one +0.0 product makes any sum of them +0.0; a
        # row of -0.0 products only is summed whole, so the sign of its zero
        # never rests on the sum's start value. Rows of -0.0 products in the
        # query's columns are read whole _CHUNK_ROWS at a time
        zero_scores = np.zeros(len(zero))
        maybe = np.flatnonzero(np.signbit(prods[miss]).all(axis=1))
        for start in range(0, len(maybe), _CHUNK_ROWS):
            part = maybe[start : start + _CHUNK_ROWS]
            rows = matrix[zero[part]]
            minus = (np.signbit(rows) != np.signbit(vec)).all(axis=1)
            rows = rows[minus].astype(np.float64, order="C")
            zero_scores[part[minus]] = (rows * vec).sum(axis=1)
        cand, prods = cand[hit], prods[hit]
    # a row with a nonzero product thus sums to the same bits with +0.0 in
    # place of its other products
    block = np.zeros((len(cand), index.dim))  # C-ordered
    block[:, nz] = prods
    scores = block.sum(axis=1)
    if band:
        cand = np.concatenate((cand, zero))
        scores = np.concatenate((scores, zero_scores))
    # lexsort: last key is primary, so descending score then ascending id
    order = np.lexsort((index._id_rank[cand], -scores))[:k]
    # Python floats, not numpy scalars: a score's repr is part of the output
    ids = tuple(map(index.doc_ids.__getitem__, cand[order].tolist()))
    return RankedList._from_columns(ids, tuple(scores[order].tolist()))


def _screen(index: Index, nz: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """float32 scores of every row over the query's nonzero columns nz, with
    their query entries terms rounded to float32 once: the products of the
    sparse columns' postings scattered by one unbuffered np.add.at, so a row
    posted in several columns gets each, then the dense columns added one at
    a time. A row's screen is thus a float32 dot product of at most d terms
    in some order, within _screen_error's eps of its float64 score; with
    finite eps no partial sum reaches 2^121 (Cauchy-Schwarz), so none overflows."""
    screen = np.zeros(len(index.matrix), dtype=np.float32)
    terms = terms.astype(np.float32)
    dense = index._dense[nz]
    if not dense.all():
        posted = [index._postings[j] for j in nz[~dense].tolist()]
        rows, values = map(np.concatenate, zip(*posted))  # values: a new array
        values *= np.repeat(terms[~dense], [len(r) for r, _ in posted])
        np.add.at(screen, rows, values)
    for j, term in zip(nz[dense].tolist(), terms[dense]):
        screen += index.matrix[:, j] * term
    return screen


def _screen_error(dim: int, row_norm_bound: float, vec_norm: float) -> float:
    """Bound on |float32 screen - float64 score| for any row, any summation
    order, FMA or not (Higham section 3.1, gamma_n = n u / (1 - n u)).

    Rounding the query to float32 costs u32 |m||v|, the float32 dot product
    gamma_d(32) |m|(1+u32)|v|, the float64 reference gamma_d(64) |m||v|, and
    sum |m_i v_i| <= R |v|. The 2^-20 slack covers the float64 rounding of
    R, |v| and this expression; the last term covers gradual underflow.
    Returns inf where the screen could overflow float32, so all rows survive.
    """
    if dim * _U32 >= 0.5 or max(row_norm_bound, 1.0) * vec_norm >= 2.0**120:
        return math.inf
    g32 = dim * _U32 / (1.0 - dim * _U32)
    g64 = dim * _U64 / (1.0 - dim * _U64)
    coef = (_U32 + g32 * (1.0 + _U32) + g64) * (1.0 + 2.0**-20)
    return coef * row_norm_bound * vec_norm + dim * 2.0**-149 * (1.0 + row_norm_bound)


def _round_down_f32(x: float) -> np.float32:
    """Largest float32 <= x, so a float32 comparison loses no margin."""
    down = np.float32(x)
    if float(down) > x:
        down = np.nextafter(down, np.float32(-np.inf))
    return down


def save_index(index: Index, path: str | Path) -> None:
    spec_json = json.dumps(asdict(index.spec), sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IBIQ", FORMAT_VERSION, SIMILARITIES.index(index.similarity),
                            index.dim, len(index.doc_ids)))
        f.write(struct.pack("<I", len(spec_json)))
        f.write(spec_json)
        f.write(index.spec.fingerprint().encode("ascii")[:16].ljust(16, b"\0"))
        for doc_id in index.doc_ids:
            encoded = doc_id.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
        # the matrix's own column-major layout: written without a transpose
        payload = np.ascontiguousarray(index.matrix.T, dtype="<f4")
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def load_index(path: str | Path, expected_spec: EmbedderSpec | None = None) -> Index:
    """Read an index file back; bit-for-bit inverse of save_index.

    Reads format versions 1 and 2. Fails closed with IndexFormatError on a
    bad header, a truncated file, a payload failing its CRC32 check, an
    embedder spec that is not exactly EmbedderSpec's fields or disagrees
    with the stored fingerprint or the header's dim, duplicate doc ids, or
    a non-finite matrix entry.

    A fingerprint differing from expected_spec is not an error (the file
    is self-describing) but is logged as a warning.
    """
    header = 4 + struct.calcsize("<IBIQ")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        data = f.read(header)
        if data[:4] != MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic header)")
        try:
            version, sim_code, dim, count = struct.unpack_from("<IBIQ", data, 4)
            if version not in (1, FORMAT_VERSION):
                raise IndexFormatError(
                    f"{path}: unsupported index version {version} "
                    f"(expected 1 or {FORMAT_VERSION})"
                )
            if sim_code >= len(SIMILARITIES):
                raise IndexFormatError(f"{path}: unknown similarity code {sim_code}")
            payload_bytes = count * dim * 4
            expected_bytes = payload_bytes + (4 if version == FORMAT_VERSION else 0)
            if size - header < expected_bytes:
                raise IndexFormatError(
                    f"{path}: {size} bytes are too few for a {count} x {dim} "
                    "matrix payload (truncated)"
                )
            # the spec, fingerprint and doc ids fill the file up to the payload
            data += f.read(size - header - expected_bytes)
            offset = header
            (spec_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            spec_raw = json.loads(data[offset : offset + spec_len].decode("utf-8"))
            offset += spec_len
            fingerprint = data[offset : offset + 16].rstrip(b"\0").decode("ascii")
            offset += 16
            doc_ids = []
            for _ in range(count):
                (id_len,) = struct.unpack_from("<I", data, offset)
                offset += 4
                doc_ids.append(data[offset : offset + id_len].decode("utf-8"))
                offset += id_len
            if size - offset != expected_bytes:
                raise IndexFormatError(
                    f"{path}: matrix payload holds {size - offset} bytes, "
                    f"expected {expected_bytes} (truncated or trailing data)"
                )
            # read straight into the column-major matrix: its columns one after
            # another in version 2, and in version 1, whose rows follow one
            # another, a chunk of rows at a time
            matrix = np.empty((count, dim), dtype="<f4", order="F")
            if version == 1:
                chunk = np.empty((min(_CHUNK_ROWS, count), dim), dtype="<f4")
                for start in range(0, count, _CHUNK_ROWS):
                    rows = chunk[: count - start]
                    if f.readinto(rows) != rows.nbytes:
                        raise IndexFormatError(f"{path}: matrix payload is truncated")
                    matrix[start : start + len(rows)] = rows
            else:
                if f.readinto(matrix.T) != payload_bytes:
                    raise IndexFormatError(f"{path}: matrix payload is truncated")
                (stored,) = struct.unpack("<I", f.read(4))
                computed = zlib.crc32(matrix.T)
                if computed != stored:
                    raise IndexFormatError(
                        f"{path}: matrix payload fails its CRC32 check "
                        f"(stored {stored:08x}, computed {computed:08x})"
                    )
            matrix.flags.writeable = False
        # ValueError covers undecodable UTF-8 and JSON, and integers too long to read
        except (struct.error, ValueError, RecursionError) as exc:
            raise IndexFormatError(f"{path}: corrupt index file: {exc}") from None
    if expected_spec is not None and expected_spec.fingerprint() != fingerprint:
        logger.warning(
            "index fingerprint %s does not match the configured embedder spec (%s); "
            "queries will use the spec stored in the index",
            fingerprint,
            expected_spec.fingerprint(),
        )
    try:
        index = Index(
            doc_ids=tuple(doc_ids),
            matrix=matrix,
            similarity=SIMILARITIES[sim_code],
            spec=_spec_from_json(spec_raw),
        )
    # covers the spec's own checks and Index's: dim against the header's,
    # distinct ids, finite float32 entries
    except BoolSearchError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
    if index.spec.fingerprint() != fingerprint:
        raise IndexFormatError(
            f"{path}: index fingerprint {fingerprint!r} does not match its "
            f"embedder spec ({index.spec.fingerprint()})"
        )
    return index


def _spec_from_json(raw) -> EmbedderSpec:
    """Rebuild the stored embedder spec: exactly its fields, each of the
    type of its default (so a bool is never taken for an int)."""
    types = {f.name: type(f.default) for f in fields(EmbedderSpec)}
    if not isinstance(raw, dict) or set(raw) != set(types):
        keys = sorted(raw) if isinstance(raw, dict) else type(raw).__name__
        raise IndexFormatError(
            f"embedder spec must hold exactly the fields {sorted(types)}, got {keys}"
        )
    wrong = sorted(name for name, kind in types.items() if type(raw[name]) is not kind)
    if wrong:
        raise IndexFormatError(f"embedder spec fields {wrong} have the wrong type")
    return EmbedderSpec(**raw)
