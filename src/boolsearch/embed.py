"""Text embedders: a deterministic hashed bag-of-words and a remote HTTP client.

The hashed bag-of-words embedder is the corpus-free reference model: it is
reproducible across processes (keyed blake2b, no Python hash randomization)
and token overlap between texts maps directly to dot-product similarity.
The remote client speaks a minimal POST /embed protocol for real encoders.
"""

from __future__ import annotations

import hashlib
import math
import os
import reprlib
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .errors import EmbeddingError, EmbeddingServiceError
from .remote import post_json

# every byte but a-z and 0-9 becomes a space
TOKEN_TABLE = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32
                    for b in range(256))

_U64 = struct.Struct("<Q")  # a digest as one unsigned little-endian integer

REMOTE_BATCH_SIZE = 64
REMOTE_WORKERS = 4
TIMEOUT_S = 30.0
BACKOFF_S = 0.5
TOKEN_ENV_VAR = "BOOLSEARCH_EMBED_TOKEN"
EMBEDDER_KINDS = ("hashed-bow", "remote")


@dataclass(frozen=True)
class EmbedderSpec:
    """Configuration identifying one embedder; hashing it fingerprints indexes."""

    kind: str = "hashed-bow"
    dim: int = 256
    normalize: bool = True
    seed: int = 0
    endpoint: str = ""

    def __post_init__(self):
        if self.kind not in EMBEDDER_KINDS:
            raise EmbeddingError(f"unknown embedder kind {self.kind!r}")
        if self.dim < 8:
            raise EmbeddingError(f"embedder dim must be >= 8, got {self.dim}")
        if (self.kind == "remote") != bool(self.endpoint):
            raise EmbeddingError("endpoint must be set iff kind is 'remote'")

    def fingerprint(self) -> str:
        payload = f"{self.kind}|{self.dim}|{int(self.normalize)}|{self.seed}|{self.endpoint}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def tokenize(text: str) -> list[str]:
    """Lowercase, then split on runs of anything but ASCII a-z and 0-9.

    Lowering comes first, so a character that lowers to ASCII (the Kelvin
    sign to "k") counts as one; any other non-ASCII character is encoded as
    "?" and becomes a space with the other separators.
    """
    ascii_text = text.lower().encode("ascii", "replace")
    return ascii_text.translate(TOKEN_TABLE).decode("ascii").split()


def hashed_bow_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Signed hashed bag-of-words vector, unnormalized.

    Each token's 64-bit keyed hash picks bucket = hash mod dim from the
    low end and the sign from the top bit (+1 if set, else -1), so the
    two choices stay decorrelated. Tokens accumulate, so the raw vector
    is additive over text concatenation and order-invariant.
    """
    return embed_text(EmbedderSpec(dim=dim, normalize=False, seed=seed), text)


def embed_text(spec: EmbedderSpec, text: str) -> np.ndarray:
    """embed_texts(spec, [text])[0]; a hashed text skips the batch path: its
    signed bucket counts are small integers, so math.sqrt of the exact sum
    of their squares is the norm np.sqrt(np.vecdot(...)) gives that path."""
    if spec.kind != "hashed-bow":
        return embed_texts(spec, [text])[0]
    keyed = _keyed_hash(spec.seed)
    counts: dict[int, int] = {}
    for token in tokenize(text):
        h = keyed.copy()
        h.update(token.encode())  # tokens are ASCII
        (value,) = _U64.unpack(h.digest())
        bucket = value % spec.dim
        counts[bucket] = counts.get(bucket, 0) + (1 if value >> 63 else -1)
    vec = np.zeros(spec.dim)
    vec[list(counts)] = list(counts.values())
    square = sum(count * count for count in counts.values())
    if spec.normalize and square:
        vec /= math.sqrt(square)
    return vec


def _keyed_hash(seed: int):
    """The keyed blake2b that every token digest of one seed copies."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return hashlib.blake2b(digest_size=8, key=key)


def _hashed_bow_rows(
    texts: list[str], dim: int, seed: int, codes: dict[str, int]
) -> np.ndarray:
    """hashed_bow_embed of every text, one row each.

    codes is the token table of one embed_texts or embed_chunks call: it
    maps each token hashed so far to its signed code, bucket << 1 | top
    bit, and gains the tokens of texts it lacks, so a token is hashed once
    however many of the call's chunks it recurs in. The ±1.0 signs sum to
    small integers, exact in any order, so one bincount adds up many texts.
    """
    keyed = _keyed_hash(seed)
    n = len(texts)
    token_lists = [tokenize(text) for text in texts]
    for token in set(chain.from_iterable(token_lists)).difference(codes):
        h = keyed.copy()
        h.update(token.encode())  # tokens are ASCII
        (value,) = _U64.unpack(h.digest())
        codes[token] = value % dim << 1 | value >> 63
    lengths = list(map(len, token_lists))
    tokens = chain.from_iterable(token_lists)
    flat = np.fromiter(map(codes.__getitem__, tokens), np.intp, sum(lengths))
    weights = (flat & 1) * 2.0 - 1.0
    flat >>= 1
    flat += np.repeat(np.arange(0, n * dim, dim), lengths)
    rows = np.bincount(flat, weights=weights, minlength=n * dim).reshape(n, dim)
    return rows.astype(np.float64, copy=False)  # bincount gives int64 without tokens


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows stay zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return matrix / safe


def embed_texts(spec: EmbedderSpec, texts: list[str]) -> np.ndarray:
    """Embed texts in order: one float64 (len(texts), spec.dim) array."""
    return _embed(spec, texts, {})


def embed_chunks(spec: EmbedderSpec, texts: list[str], size: int) -> Iterator[np.ndarray]:
    """embed_texts of each run of size texts, in order.

    The hashed embedder keeps one token table for every chunk of the
    call; the remote one sends a chunk's batches when the chunk is reached.
    """
    codes: dict[str, int] = {}
    for start in range(0, len(texts), size):
        yield _embed(spec, texts[start : start + size], codes)


def _embed(spec: EmbedderSpec, texts: list[str], codes: dict[str, int]) -> np.ndarray:
    """The spec's rows of texts, normalized if it says so; codes is the
    call's token table."""
    if spec.kind == "hashed-bow":
        rows = _hashed_bow_rows(texts, spec.dim, spec.seed, codes)
    else:
        rows = _remote_embed(spec, texts)
    if spec.normalize:
        # np.vecdot takes each row's dot product with itself as
        # np.linalg.norm of one row does (BLAS ddot), so the quotients are
        # those of v / np.linalg.norm(v); a row with no nonzero entry stays,
        # and only such a row has norm 0 (_remote_embed refuses the others)
        norms = np.sqrt(np.vecdot(rows, rows))[:, None]
        np.divide(rows, norms, out=rows, where=norms != 0.0)
    return rows


def _remote_embed(spec: EmbedderSpec, texts: list[str]) -> np.ndarray:
    """Embed texts through a POST {endpoint}/embed service.

    Requests carry {"texts": [...]} bodies of at most REMOTE_BATCH_SIZE
    texts and expect {"vectors": [[...]]} back, one finite spec.dim row per
    text whose norm neither overflows nor, unless it is a zero row,
    underflows to 0. Batches run on REMOTE_WORKERS threads. A bearer token
    is read from BOOLSEARCH_EMBED_TOKEN if set.
    """
    url = spec.endpoint.rstrip("/") + "/embed"
    token = os.environ.get(TOKEN_ENV_VAR)

    def embed_batch(batch: list[str]) -> list[np.ndarray]:
        reply = post_json(
            url,
            {"texts": batch},
            token=token,
            timeout=TIMEOUT_S,
            backoff=BACKOFF_S,
            error=EmbeddingServiceError,
        )
        rows = reply.get("vectors") if isinstance(reply, dict) else None
        if not isinstance(rows, list):
            raise EmbeddingServiceError(
                'malformed embed response: expected {"vectors": [[...], ...]}'
            )
        if len(rows) != len(batch):
            raise EmbeddingServiceError(
                f"embed service returned {len(rows)} vectors for {len(batch)} texts"
            )
        vectors = []
        for row in rows:
            try:
                vec = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise EmbeddingServiceError(f"malformed embed response: {exc}") from None
            if vec.shape != (spec.dim,):
                raise EmbeddingServiceError(
                    f"embed service returned dimension {vec.shape}, "
                    f"expected ({spec.dim},)"
                )
            if not np.all(np.isfinite(vec)):
                raise EmbeddingServiceError("embed service returned non-finite values")
            vectors.append(vec)
        return vectors

    batches = [
        texts[i : i + REMOTE_BATCH_SIZE] for i in range(0, len(texts), REMOTE_BATCH_SIZE)
    ]
    if len(batches) <= 1:
        results = [embed_batch(batch) for batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=REMOTE_WORKERS) as pool:
            results = list(pool.map(embed_batch, batches))
    vectors = [vec for batch in results for vec in batch]
    rows = np.array(vectors, dtype=np.float64).reshape(len(texts), spec.dim)
    # a nonzero row whose norm underflows to 0 or overflows: no division
    # makes a unit row of it, and float32 would store zeros or infinities
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        squares = np.vecdot(rows, rows)
    bad = np.flatnonzero((squares == math.inf) | (squares == 0.0) & rows.any(axis=1))
    if len(bad):
        i = int(bad[0])
        fault = "overflows" if squares[i] else "underflows to 0"
        raise EmbeddingServiceError(f"row {i}'s norm {fault} (text {reprlib.repr(texts[i])})")
    return rows
