import json
import logging
import math
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsearch.data import Corpus, Passage
from boolsearch.embed import EmbedderSpec, hashed_bow_embed, normalize_rows
from boolsearch.errors import BoolSearchError, EmbeddingServiceError, IndexFormatError
from boolsearch.index import (
    SIMILARITIES,
    Index,
    RankedList,
    ScoredDoc,
    _screen,
    _screen_error,
    build_index,
    embed_query,
    load_index,
    save_index,
    top_k,
)

from _planted import (
    OracleRankedList,
    OracleScoredDoc,
    oracle_top_k,
    random_corpus,
    random_query,
    ranked_outcome,
    save_index_v1,
    scored_pairs,
)
from _server import ScriptedServer

SPEC = EmbedderSpec(kind="hashed-bow", dim=64, normalize=False, seed=9)
SPEC_JSON_AT = 4 + struct.calcsize("<IBIQ")  # u32 length, then the JSON


def rewrite_spec_json(path, edit):
    """Replace the embedder-spec JSON of a saved index with edit(spec_dict)."""
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, SPEC_JSON_AT)
    start = SPEC_JSON_AT + 4
    spec = json.loads(blob[start : start + length])
    new = json.dumps(edit(spec)).encode("utf-8")
    path.write_bytes(
        blob[:SPEC_JSON_AT] + struct.pack("<I", len(new)) + new + blob[start + length :]
    )


def rewrite_payload(path, index, edit):
    """Apply edit(bytearray) to a saved index's matrix payload and store the
    edited payload's CRC32 after it."""
    blob = path.read_bytes()
    size = len(index.doc_ids) * index.dim * 4
    payload = bytearray(blob[-4 - size : -4])
    edit(payload)
    path.write_bytes(blob[: -4 - size] + payload + struct.pack("<I", zlib.crc32(payload)))


def exact(pairs):
    """(doc id, repr(score)) pairs: repr tells -0.0 from 0.0, == does not."""
    return [(doc_id, repr(score)) for doc_id, score in pairs]


def assert_matches_oracle(index, query, k):
    got = exact((d.doc_id, d.score) for d in top_k(index, query, k))
    assert got == exact(oracle_top_k(index, query, k))


def load_peak(tmp_path, save):
    """A 4000 x 256 index saved by save, and the tracemalloc peak of loading
    it back, which must give the same index."""
    rng = np.random.default_rng(71)
    spec = EmbedderSpec(dim=256)
    matrix = rng.standard_normal((4000, 256)).astype(np.float32)
    index = Index(tuple(f"d{i}" for i in range(4000)), matrix, "dot", spec)
    save(index, tmp_path / "x.idx")
    tracemalloc.start()
    try:
        loaded = load_index(tmp_path / "x.idx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == index
    return index, peak


def assert_screen_within_bound(index, query):
    """Every row's float32 screen lies within _screen_error of its float64
    score, the per-row sum the oracle takes."""
    vec = embed_query(index, query)
    nz = np.flatnonzero(vec)
    eps = _screen_error(index.dim, index._row_norm_bound, float(np.linalg.norm(vec)))
    scores = (np.ascontiguousarray(index.matrix, dtype=np.float64) * vec).sum(axis=1)
    screen = _screen(index, nz, vec[nz]).astype(np.float64)
    assert 0.0 < eps < np.inf
    assert (np.abs(screen - scores) <= eps).all()


def zero_band_split(index, query, k):
    """The rows whose products with the query are all zeros, in ascending id
    order and split after the k-th. Per row: are its products in the
    query's nonzero columns all -0.0, and is one of its entries there
    nonzero (a product that underflowed)?"""
    vec = embed_query(index, query)
    nz = np.flatnonzero(vec)
    rows = index.matrix[:, nz].astype(np.float64)
    prods = rows * vec[nz]
    band = sorted(np.flatnonzero(~prods.any(axis=1)).tolist(), key=index.doc_ids.__getitem__)
    minus = np.signbit(prods[band]).all(axis=1)
    split = list(zip(minus.tolist(), rows[band].any(axis=1).tolist()))
    return split[:k], split[k:]


def top_k_peak(index, query, k):
    """top_k(index, query, k) and the tracemalloc peak of that call."""
    top_k(index, query, k)  # the embedding client's first-call state
    tracemalloc.start()
    try:
        return top_k(index, query, k), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class FirstTermSums(np.ndarray):
    """An array whose sums of zeros start from their first term, as a
    sequential IEEE 754 sum does: -0.0 terms only sum to -0.0, where numpy
    2.4's pairwise sum starts from +0.0 and gives +0.0. Its other sums are
    numpy's. It stands for a numpy whose sums of -0.0 keep the sign."""

    def sum(self, axis=None, out=None, **kwargs):
        plain = self.view(np.ndarray)
        negative_zeros = (np.signbit(plain) & (plain == 0)).all(axis=axis)
        return np.where(negative_zeros, -0.0, plain.sum(axis=axis, out=out, **kwargs))


def with_first_term_sums(index):
    """index over a FirstTermSums copy of its matrix, so that top_k's sums
    of the matrix's rows and the oracle's are FirstTermSums sums."""
    matrix = FirstTermSums(index.matrix.shape, np.float32, order="F")
    matrix[...] = index.matrix
    matrix.flags.writeable = False
    return Index(index.doc_ids, matrix, index.similarity, index.spec)


class ScriptedEmbedder:
    """Indexes whose queries a scripted remote embedding service embeds as
    vectors[text], so a test picks dense vectors and signed zeros."""

    def __init__(self, url):
        self.url = url
        self.vectors = {}

    def index(self, matrix, similarity):
        spec = EmbedderSpec(kind="remote", dim=matrix.shape[1], normalize=False,
                            endpoint=self.url)
        # ids in a fixed shuffled order, so a row's id rank is not its position
        order = np.random.default_rng(len(matrix)).permutation(len(matrix))
        ids = tuple(f"r{i:06d}" for i in order)
        return Index(ids, matrix.astype(np.float32), similarity, spec)


@pytest.fixture
def scripted():
    def respond(path, body, headers):
        return 200, {"vectors": [embedder.vectors[text] for text in body["texts"]]}

    with ScriptedServer(respond) as server:
        embedder = ScriptedEmbedder(server.url)
        yield embedder


def small_corpus():
    return Corpus([
        Passage("p1", "alpha alpha beta"),
        Passage("p2", "beta gamma"),
        Passage("p3", "delta"),
    ])


class TestRankedList:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(BoolSearchError, match="duplicate"):
            RankedList([ScoredDoc("a", 1.0), ScoredDoc("a", 0.5)])

    def test_rejects_increasing_scores(self):
        with pytest.raises(BoolSearchError, match="non-increasing"):
            RankedList([ScoredDoc("a", 0.5), ScoredDoc("b", 1.0)])

    def test_rejects_misordered_ties(self):
        with pytest.raises(BoolSearchError, match="ties"):
            RankedList([ScoredDoc("b", 1.0), ScoredDoc("a", 1.0)])

    def test_from_scores_applies_tie_rule(self):
        ranked = RankedList.from_scores([("b", 1.0), ("c", 2.0), ("a", 1.0)])
        assert ranked.ids == ("c", "a", "b")

    def test_non_finite_score_rejected(self):
        with pytest.raises(BoolSearchError, match="non-finite"):
            RankedList([ScoredDoc("a", float("nan"))])

    @settings(max_examples=500, deadline=None)
    @given(pairs=scored_pairs(), presort=st.booleans())
    # several faults in one list: the first in item order names the error
    @example(pairs=[("a", math.nan), ("a", 1.0)], presort=False)
    @example(pairs=[("b", 1.0), ("a", 1.0), ("a", 0.5)], presort=False)
    @example(pairs=[("a", 1.0), ("a", 1.0), ("b", 2.0)], presort=False)
    @example(pairs=[("a", 0.5), ("b", 1.0), ("c", math.inf)], presort=False)
    @example(pairs=[("a", 1.0), ("b", math.inf), ("b", 2.0)], presort=False)
    @example(pairs=[("b", 0.0), ("a", -0.0), ("a", 0.0)], presort=False)
    @example(pairs=[("a", 1.0), ("b", 0.5), ("a", 0.25)], presort=False)
    def test_accepts_exactly_what_the_oracle_accepts(self, pairs, presort):
        if presort:  # most unsorted lists are rejected on order alone
            pairs.sort(key=lambda p: (-p[1], p[0]))
        got = ranked_outcome(lambda: RankedList(ScoredDoc(*p) for p in pairs))
        want = ranked_outcome(
            lambda: OracleRankedList(OracleScoredDoc(*p) for p in pairs)
        )
        assert got == want

    def test_scored_doc_checks_nothing_itself(self):
        assert ScoredDoc("a", float("inf")) == ("a", float("inf"))
        assert repr(ScoredDoc("a", 1.0)) == "ScoredDoc(doc_id='a', score=1.0)"

    def test_items_are_scored_docs_with_the_same_bits(self):
        pairs = [("a", 1.0), ("b", 0.0), ("c", -0.0), ("d", -5e-324)]
        ranked = RankedList(pairs)
        assert ranked.ids == ("a", "b", "c", "d")
        bits = [(doc_id, struct.pack("<d", score)) for doc_id, score in pairs]
        for items in (list(ranked), ranked.items):
            assert all(type(item) is ScoredDoc for item in items)
            assert [(d, struct.pack("<d", s)) for d, s in items] == bits
        assert [struct.pack("<d", s) for s in ranked.scores] == [b for _, b in bits]

    def test_equality_equates_signed_zeros(self):
        assert RankedList([("a", 0.0)]) == RankedList([("a", -0.0)])
        assert RankedList([("a", 0.0)]) != RankedList([("b", 0.0)])
        assert RankedList([("a", 1.0)]) != RankedList([("a", 1.0), ("b", 0.5)])
        assert RankedList([("a", 1.0)]) != [ScoredDoc("a", 1.0)]

    def test_truncate_keeps_a_prefix(self):
        ranked = RankedList.from_scores([("b", 1.0), ("c", 2.0), ("a", 1.0)])
        assert ranked.truncate(2) == RankedList([("c", 2.0), ("a", 1.0)])
        assert ranked.truncate(5) == ranked and len(ranked.truncate(1)) == 1


class TestBuildIndex:
    def test_non_float32_matrix_rejected(self):
        index = build_index(small_corpus(), SPEC, "dot")
        with pytest.raises(BoolSearchError, match="float32"):
            Index(index.doc_ids, index.matrix.astype(np.float64), "dot", SPEC)

    def test_non_finite_matrix_rejected(self):
        matrix = build_index(small_corpus(), SPEC, "dot").matrix.copy()
        matrix[1, 5] = np.inf
        with pytest.raises(BoolSearchError, match="non-finite"):
            Index(("p1", "p2", "p3"), matrix, "dot", SPEC)

    def test_matrix_is_column_major_and_read_only(self, tmp_path):
        built = build_index(small_corpus(), SPEC, "dot")
        save_index(built, tmp_path / "x.idx")
        loaded = load_index(tmp_path / "x.idx")
        mine = built.matrix.copy()
        given = Index(built.doc_ids, mine, "dot", SPEC)
        mine[0, 0] = 5.0  # the index holds a copy of a caller's writable array
        assert given == built
        for index in (built, loaded, given):
            assert index.matrix.flags.f_contiguous
            with pytest.raises(ValueError, match="read-only"):
                index.matrix[0, 0] = 1.0

    def test_read_only_view_of_a_writable_array_is_copied(self):
        built = build_index(small_corpus(), SPEC, "dot")
        base = np.array(built.matrix, order="F")
        view = base.view()
        view.flags.writeable = False
        given = Index(built.doc_ids, view, "dot", SPEC)
        base[0, 0] = 5.0  # a write through the base must not reach the index
        assert given == built

    def test_row_per_passage(self):
        index = build_index(small_corpus(), EmbedderSpec(dim=256), "dot")
        assert index.matrix.shape == (3, 256)
        assert index.doc_ids == ("p1", "p2", "p3")

    def test_cosine_rows_unit_norm(self):
        index = build_index(small_corpus(), SPEC, "cosine")
        norms = np.linalg.norm(index.matrix.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)
        # more rows than one build chunk: the chunked build equals stacking,
        # normalizing and casting the whole corpus at once, bit for bit
        corpus = random_corpus(np.random.default_rng(5), 2500)
        stacked = np.vstack([hashed_bow_embed(t, SPEC.dim, SPEC.seed) for t in corpus.texts])
        for sim, expected in (("cosine", normalize_rows(stacked)), ("dot", stacked)):
            matrix = build_index(corpus, SPEC, sim).matrix
            assert matrix.dtype == np.float32
            assert matrix.tobytes() == expected.astype(np.float32).tobytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(BoolSearchError, match="empty"):
            build_index(Corpus([]), SPEC, "dot")

    def test_unknown_similarity_rejected(self):
        with pytest.raises(BoolSearchError, match="similarity"):
            build_index(small_corpus(), SPEC, "euclid")


class TestTopK:
    def test_lexical_overlap_wins(self):
        corpus = Corpus([Passage("p1", "alpha"), Passage("p2", "beta")])
        index = build_index(corpus, SPEC, "cosine")
        ranked = top_k(index, "alpha", 1)
        # cross-check by hand: alpha matches p1's vector exactly
        assert ranked.ids == ("p1",)
        assert ranked.items[0].score == pytest.approx(1.0)

    def test_k_larger_than_corpus_truncates(self):
        index = build_index(small_corpus(), SPEC, "dot")
        assert len(top_k(index, "alpha", 50)) == 3

    def test_identical_texts_tie_by_id(self):
        corpus = Corpus([Passage("pb", "same text"), Passage("pa", "same text")])
        index = build_index(corpus, SPEC, "dot")
        ranked = top_k(index, "same", 2)
        assert ranked.ids == ("pa", "pb")
        assert ranked.items[0].score == ranked.items[1].score

    @pytest.mark.parametrize("ids", [("a\x00", "b"), ("a\x00", "a")])
    def test_ids_ending_in_nul_tie_in_python_order(self, ids):
        # a numpy str_ array drops trailing NULs, reading "a\x00" as "a"
        corpus = Corpus([Passage(pid, "same text") for pid in ids])
        index = build_index(corpus, SPEC, "dot")
        ranked = top_k(index, "same", 2)
        assert ranked.ids == tuple(sorted(ids))
        assert [(d.doc_id, d.score) for d in ranked] == oracle_top_k(index, "same", 2)

    def test_k_below_one_rejected(self):
        index = build_index(small_corpus(), SPEC, "dot")
        with pytest.raises(BoolSearchError, match="k must be"):
            top_k(index, "alpha", 0)

    def test_monotone_prefix(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 60)
        index = build_index(corpus, SPEC, "dot")
        for k in range(1, 12):
            shorter = top_k(index, "w1 w2", k)
            longer = top_k(index, "w1 w2", k + 1)
            assert longer.items[:k] == shorter.items

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            corpus = random_corpus(rng, int(rng.integers(5, 120)))
            sim = "dot" if trial % 2 == 0 else "cosine"
            index = build_index(corpus, SPEC, sim)
            for _ in range(5):
                assert_matches_oracle(index, random_query(rng), int(rng.integers(1, 15)))
            # a query with no tokens (zero vector) and k beyond the corpus:
            # every row survives the screen and the order is by id alone
            n = len(corpus)
            for query, k in (("", 1), ("", n), ("?!", n + 7), (random_query(rng), n + 1)):
                assert_matches_oracle(index, query, k)

    def test_matches_oracle_on_100k_tie_heavy_rows(self):
        # rows are sums of 2-8 of 40 word vectors: many exact duplicates,
        # so large tie groups straddle the k-th score
        spec = EmbedderSpec(kind="hashed-bow", dim=256, normalize=False, seed=5)
        rng = np.random.default_rng(8)
        words = np.stack([hashed_bow_embed(f"w{v}", 256, seed=5) for v in range(40)])
        lengths = rng.integers(2, 9, size=100_000)
        counts = np.zeros((len(lengths), 40), dtype=np.float32)
        for j in range(8):
            rows = np.flatnonzero(lengths > j)
            np.add.at(counts, (rows, rng.integers(0, 40, size=len(rows))), 1.0)
        matrix = counts @ words.astype(np.float32)  # small integers: exact
        for similarity in ("dot", "cosine"):
            if similarity == "cosine":
                matrix = normalize_rows(matrix)
            index = Index(
                doc_ids=tuple(f"d{i:06d}" for i in rng.permutation(len(matrix))),
                matrix=matrix,
                similarity=similarity,
                spec=spec,
            )
            for query, k in (("w1 w2", 20), ("w7", 50)):
                got = [(d.doc_id, d.score) for d in top_k(index, query, k)]
                assert got == oracle_top_k(index, query, k)

    def test_matches_oracle_on_near_ties_below_float32_resolution(self):
        # large-norm unnormalized rows that differ from one base row by a
        # few float32 ulps per entry: their float64 scores differ far below
        # the float32 resolution of a score, so the screen's order among
        # them is rounding noise and only the error margin keeps the true
        # top k among the survivors
        rng = np.random.default_rng(31)
        dim = SPEC.dim
        base = rng.choice([-1.0, 1.0], size=dim) * rng.uniform(1e3, 4e3, size=dim)
        base = base.astype(np.float32)
        steps = rng.integers(-2, 3, size=(3000, dim))
        matrix = base + steps * np.spacing(np.abs(base))
        matrix = matrix.astype(np.float32)
        query = " ".join(f"t{i}" for i in range(60))
        ids = tuple(f"r{i:05d}" for i in range(len(matrix)))
        index = Index(ids, matrix, "dot", SPEC)
        vec = embed_query(index, query)
        scores = matrix.astype(np.float64) @ vec
        # over a hundred distinct float64 scores round to under a dozen float32s
        assert len(np.unique(scores)) > 10 * len(np.unique(scores.astype(np.float32)))
        for k in (1, 3, 10):
            got = [(d.doc_id, d.score) for d in top_k(index, query, k)]
            assert got == oracle_top_k(index, query, k)
        assert index._dense.all()
        assert_screen_within_bound(index, query)
        # the same rows with every other column cut down to n // 8 nonzero
        # rows, so those columns are screened from their postings
        for j in range(0, dim, 2):
            matrix[rng.permutation(len(matrix))[len(matrix) // 8 :], j] = 0.0
        index = Index(ids, matrix, "dot", SPEC)
        assert index._dense.tolist() == [j % 2 == 1 for j in range(dim)]
        assert_screen_within_bound(index, query)
        for k in (1, 3, 10):
            assert_matches_oracle(index, query, k)

    def test_rows_beyond_float32_screen_range_match_oracle(self):
        # scores near the float32 maximum overflow the screen: the bound is
        # then infinite, every row is rescored, and no warning escapes
        rng = np.random.default_rng(2)
        matrix = rng.choice([-1.0, 1.0], size=(500, SPEC.dim)) * rng.uniform(
            1e36, 3e37, size=(500, SPEC.dim))
        matrix[:50] = np.abs(matrix[:50])
        ids = tuple(f"d{i:03d}" for i in range(len(matrix)))
        index = Index(ids, matrix.astype(np.float32), "dot", SPEC)
        query = " ".join(f"t{i}" for i in range(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 5, 30):
                got = [(d.doc_id, d.score) for d in top_k(index, query, k)]
                assert got == oracle_top_k(index, query, k)

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_zero_band_matches_oracle(self, similarity):
        # one- and two-word queries over token soup: most rows share no
        # bucket with the query, so from k = overlapping + 1 on the k-th
        # screen is at most 0, the threshold is <= 0 and the rows disjoint
        # from the query place without arithmetic
        rng = np.random.default_rng(23)
        corpus = random_corpus(rng, 400)
        index = build_index(corpus, SPEC, similarity)
        for query in ("w3", "w11 w29", "w0 w39"):
            nz = np.flatnonzero(embed_query(index, query))
            overlapping = 400 - int((index.matrix[:, nz] == 0).all(axis=1).sum())
            assert overlapping < 200
            for k in (10, 40, overlapping + 1, 200, 401):
                assert_matches_oracle(index, query, k)
            assert oracle_top_k(index, query, 200)[-1][1] == 0.0

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_rescoring_with_and_without_a_zero_band_matches_oracle(self, similarity):
        # one query, two k: at k = 3 the k-th screen clears 2 eps, so every
        # survivor has a nonzero product and no zero band is built; at k = n
        # the threshold is <= 0 and rows of zero products survive with them
        index = build_index(random_corpus(np.random.default_rng(41), 300), SPEC, similarity)
        for query in ("w5", "w2 w17"):
            vec = embed_query(index, query)
            nz = np.flatnonzero(vec)
            screen = np.sort(_screen(index, nz, vec[nz]))[::-1]
            eps = _screen_error(index.dim, index._row_norm_bound, float(np.linalg.norm(vec)))
            assert screen[2] > 2.0 * eps and screen[-1] <= 0.0
            assert (index.matrix[:, nz] == 0).all(axis=1).any()
            for k in (3, len(screen)):
                assert_matches_oracle(index, query, k)

    def test_ids_ending_in_nul_inside_the_zero_band(self):
        # "x" < "x\x00" < "x0" in Python; a numpy str_ array reads "x\x00" as "x"
        words = ["alpha", "beta gamma", "delta", "beta"]
        passages = []
        for i in range(60):
            stem = f"d{i // 2:02d}" + ("\x00" if i % 2 else "")
            passages.append(Passage(stem, words[i % len(words)]))
        passages += [Passage("d05\x00\x00", "delta"), Passage("d050", "delta")]
        index = build_index(Corpus(passages), SPEC, "dot")
        for k in (3, 17, 31, 62, 70):
            assert_matches_oracle(index, "alpha", k)
        ids = [d.doc_id for d in top_k(index, "alpha", 40)]
        zero_band = ids[15:]  # the 15 "alpha" rows score above 0
        assert zero_band == sorted(zero_band) and "d05\x00\x00" in zero_band

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_dense_rows_and_queries_match_oracle(self, scripted, similarity):
        # a remote embedder's vectors: every entry nonzero, so the screen
        # runs over every column (nnz = dim); then queries nonzero in a few
        # scattered columns, whose products are rescored from those columns
        # alone and must still be summed in the whole row's order
        rng = np.random.default_rng(41)
        matrix = rng.standard_normal((3000, 48))
        if similarity == "cosine":
            matrix = normalize_rows(matrix)
        index = scripted.index(matrix, similarity)
        # every column is dense, so no postings: the screen adds columns only
        assert index._dense.all() and set(index._postings) == {None}
        for q in range(12):
            vec = rng.standard_normal(48)
            if q >= 6:
                vec[rng.permutation(48)[: 48 - q]] = 0.0
            scripted.vectors[f"q{q}"] = vec.tolist()
            for k in (1, 10, 250, 3000, 3001):
                assert_matches_oracle(index, f"q{q}", k)

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_sparse_and_dense_columns_match_oracle(self, scripted, similarity):
        # columns of n // 8 nonzero rows get postings, of n // 8 + 1 do not;
        # queries touch posted columns, dense ones, both, columns no row
        # uses (every product zero: the zero band), or none
        rng = np.random.default_rng(47)
        n, dim = 800, 24
        counts = [n // 8, n // 8 + 1] + [int(c) for c in rng.integers(1, n // 8, 8)]
        counts += [int(c) for c in rng.integers(n // 8 + 1, n, 6)] + [0] * 8
        matrix = np.zeros((n, dim))
        for j, count in enumerate(counts):
            rows = rng.permutation(n)[:count]
            matrix[rows, j] = rng.integers(1, 4, count) * rng.choice([-0.5, 0.25, 1.0], count)
        zeros = (matrix == 0) & (rng.random((n, dim)) < 0.3)
        matrix[zeros] = -0.0  # -0.0 entries inside posted columns too
        # float32 subnormal entries, which count as nonzero rows, also after
        # a cosine row norm of at most sqrt(dim * 9) divides them
        tiny = (matrix != 0) & (rng.random((n, dim)) < 0.1)
        matrix[tiny] = np.sign(matrix[tiny]) * rng.choice([2.0**-127, 2.0**-130], tiny.sum())
        if similarity == "cosine":
            matrix = normalize_rows(matrix)
        index = scripted.index(matrix, similarity)
        subnormal = (index.matrix != 0) & (np.abs(index.matrix) < np.finfo(np.float32).tiny)
        assert subnormal[:, :2].any(axis=0).all()
        assert (np.count_nonzero(index.matrix, axis=0) == counts).all()
        assert (np.signbit(index.matrix) & (index.matrix == 0))[:, :2].any(axis=0).all()
        assert index._dense.tolist() == [count > n // 8 for count in counts]
        for j, count in enumerate(counts):
            if count <= n // 8:
                rows, values = index._postings[j]
                assert rows.tolist() == np.flatnonzero(index.matrix[:, j]).tolist()
                assert values.tobytes() == index.matrix[rows, j].tobytes()
                assert not rows.flags.writeable and not values.flags.writeable
            else:
                assert index._postings[j] is None
        queries = {
            "posted": [0] + list(range(2, 10)),
            "dense": [1] + list(range(10, 16)),
            "both": [0, 1, 3, 5, 11, 14],
            "unused": list(range(16, 24)),
            "unused-and-posted": [0, 17, 20],
            "none": [],
        }
        for name, columns in queries.items():
            vec = np.zeros(dim)
            vec[columns] = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], len(columns))
            scripted.vectors[name] = vec.tolist()
            for k in (1, 10, 100, 300, n, n + 5):
                assert_matches_oracle(index, name, k)
            assert_screen_within_bound(index, name)

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_signed_zeros_match_oracle(self, scripted, similarity):
        # sparse small-integer rows and queries whose zeros are +0.0 or -0.0,
        # as a remote embedder may return them: a row of -0.0 against a
        # positive query entry proves no +0.0 product and is rescored
        rng = np.random.default_rng(43)
        n, dim = 2000, 32
        matrix = rng.integers(-2, 3, size=(n, dim)) * (rng.random((n, dim)) < 0.08)
        matrix = matrix.astype(np.float64)
        negative_zero = (matrix == 0) & (rng.random((n, dim)) < 0.5)
        matrix[negative_zero] = -0.0
        matrix[: n // 4][matrix[: n // 4] == 0] = -0.0  # rows of -0.0 wherever 0
        if similarity == "cosine":
            matrix = normalize_rows(matrix)
        index = scripted.index(matrix, similarity)
        queries = {
            "positive": [3.0, 0.0, 1.0] + [-0.0] * (dim - 3),
            "negative": [-0.0] * (dim - 2) + [-1.0, -2.0],
            "mixed": [1.0, -1.0] + [0.0, -0.0] * ((dim - 2) // 2),
            # nonzero in a quarter of the columns
            "wide": [1.0, -2.0] * 4 + [-0.0] * (dim - 8),
            "negative-zero": [-0.0] * dim,
            "zero": [0.0] * dim,
        }
        scripted.vectors.update(queries)
        for query in queries:
            for k in (5, 300, n - 1, n + 3):
                assert_matches_oracle(index, query, k)

    def test_rows_cancelling_to_a_zero_screen_are_rescored(self, scripted):
        # a + 1 - a is 1 in float64 but 0 in float32 when 1 is absorbed into
        # a first: such rows screen 0 without being disjoint from the query,
        # and must be rescored even in the zero band
        a = 2.0**26
        assert np.float32(a) + np.float32(1.0) - np.float32(a) == 0
        planted = [[a, 1.0, -a], [a, -a, 1.0], [1.0, a, -a],
                   [-a, 1.0, a], [-a, a, 1.0], [1.0, -a, a]]
        rng = np.random.default_rng(59)
        matrix = np.zeros((206, 16))
        matrix[:6, :3] = planted
        matrix[6:, 3:] = rng.integers(1, 4, size=(200, 13))
        index = scripted.index(matrix, "dot")
        scripted.vectors["q"] = [1.0, 1.0, 1.0] + [0.0] * 13
        for k in (1, 6, 10, 206):
            assert_matches_oracle(index, "q", k)

    @pytest.mark.parametrize("zeros", ["+0.0", "-0.0", "mixed", "none", "underflow", "all"])
    def test_zero_products_match_oracle(self, scripted, zeros):
        # planted rows against a query nonzero in columns 0-2, whose other
        # entries are zeros of one sign, of both, absent, or so small that
        # their products with subnormal row entries underflow to zeros of
        # either sign; or a query of zeros only. Products that cancel
        # exactly to +0.0 beside nonzero entries elsewhere, rows of -0.0
        # products with and without a +0.0 product off the query's columns,
        # and heavily tied screens with fewer than k positive. Also with
        # first-term sums, where a row of -0.0 products only scores -0.0, so
        # a top_k that scored it +0.0 without summing it would differ
        rng = np.random.default_rng(61)
        n, dim = 600, 16
        fill = {"+0.0": [0.0], "-0.0": [-0.0], "mixed": [0.0, -0.0], "none": [0.5, -0.25],
                "underflow": [2.0**-1000, -(2.0**-1000)], "all": [0.0]}
        head = [0.0] * 3 if zeros == "all" else [1.0, -1.0, 2.0]
        scripted.vectors["q"] = head + [fill[zeros][i % len(fill[zeros])]
                                        for i in range(dim - 3)]
        in_query = [
            [3.0, 1.0, -1.0],  # products 3, -1, -2: cancel to +0.0
            [-2.0, 0.0, 1.0],  # -2, -0.0, 2: cancel to +0.0
            [-0.0, 0.0, -0.0],  # only -0.0 products
            [0.0, 0.0, -0.0],  # one +0.0 product among them
            [0.0, 1.0, 0.0],  # -1: a negative screen
            [1.0, -0.0, 1.0],  # 3: one of few positive screens
        ]
        off_query = {
            "positive": lambda size: rng.integers(1, 4, size),
            "negative": lambda size: -rng.integers(1, 4, size),
            "+0.0": lambda size: np.zeros(size),
            "-0.0": lambda size: np.full(size, -0.0),
            "any": lambda size: rng.choice([2.0, -2.0, 0.0, -0.0], size),
            "subnormal": lambda size: rng.choice([2.0**-140, -(2.0**-140)], size),
        }
        kinds = list(off_query)
        matrix = np.empty((n, dim))
        for i in range(n):
            pattern = 5 if i < 8 else int(rng.integers(0, 5))
            matrix[i, :3] = in_query[pattern]
            matrix[i, 3:] = off_query[kinds[int(rng.integers(0, len(kinds)))]](dim - 3)
        index = scripted.index(matrix, "dot")
        for scored in index, with_first_term_sums(index):
            for k in (1, 8, 9, 40, 300, n, n + 2):
                assert_matches_oracle(scored, "q", k)
        if zeros != "none":
            # the zero band holds more than k = 40 rows, and on both sides of
            # its cut there are rows of -0.0 products only in the query's
            # columns, rows with a +0.0 product there, or rows whose products
            # there underflowed; a query of zeros puts every row in the band
            kept, cut = zero_band_split(index, "q", 40)
            assert len(kept) == 40 and cut
            for side in kept, cut:
                if zeros == "underflow":
                    assert any(underflowed for _, underflowed in side)
                elif zeros != "all":
                    assert {minus for minus, _ in side} == {True, False}
            assert zeros != "all" or len(kept) + len(cut) == n

    def test_zero_band_of_negative_zero_products_reads_no_full_rows(self, scripted):
        # a one-word query of negative sign whose bucket no row uses: every
        # product in its column is -0.0, and every row survives the screen;
        # only the k of smallest id are read whole, so the call allocates
        # far less than the matrix
        rng = np.random.default_rng(67)
        n, dim = 20_000, 64
        matrix = rng.integers(0, 3, size=(n, dim)) * (rng.random((n, dim)) < 0.1)
        matrix = matrix.astype(np.float64)
        matrix[:, 0] = 0.0
        matrix[:50, 1:] = -rng.integers(0, 3, size=(50, dim - 1))  # no +0.0 product
        matrix[:50][matrix[:50] == 0] = -0.0
        index = scripted.index(matrix, "dot")
        scripted.vectors["q"] = [-1.0] + [0.0] * (dim - 1)
        for k in (10, 60, n):
            assert_matches_oracle(index, "q", k)
        _, peak = top_k_peak(index, "q", 10)
        assert peak < index.matrix.nbytes

    @pytest.mark.parametrize("sums", ["numpy", "first-term"])
    def test_zero_query_at_k_n_reads_rows_in_blocks(self, sums):
        # a query of no tokens embeds to zeros, so every row is in the zero
        # band and, at k = n, kept; the rows whose products could all be
        # -0.0, half of them here, are read whole a block at a time, so the
        # call allocates less than the matrix however many there are. With
        # first-term sums those rows score -0.0 only if every block is summed
        rng = np.random.default_rng(73)
        n, dim = 20_000, 256
        spec = EmbedderSpec(dim=dim, normalize=False)
        matrix = (rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.1)).astype(np.float32)
        minus = rng.random(n) < 0.5
        matrix[minus] = np.copysign(matrix[minus], -1.0)  # zeros become -0.0
        ids = tuple(f"d{i:05d}" for i in rng.permutation(n))
        index = Index(ids, matrix, "dot", spec)
        if sums == "first-term":
            index = with_first_term_sums(index)
        assert not embed_query(index, "!?").any()
        ranked, peak = top_k_peak(index, "!?", n)
        negative = {ids[i] for i in np.flatnonzero(minus)} if sums == "first-term" else set()
        expected = sorted((doc_id, "-0.0" if doc_id in negative else "0.0") for doc_id in ids)
        assert exact((d.doc_id, d.score) for d in ranked) == expected
        assert peak < index.matrix.nbytes

    def test_zero_band_on_100k_rows(self):
        # 100k rows of 1-3 words of 400: a one-word query shares a bucket
        # with a few thousand rows, so the k-th screen score is 0 and tens
        # of thousands of rows tie there
        spec = EmbedderSpec(kind="hashed-bow", dim=256, normalize=False, seed=5)
        rng = np.random.default_rng(53)
        words = np.stack([hashed_bow_embed(f"w{v}", 256, seed=5) for v in range(400)])
        counts = np.zeros((100_000, 400), dtype=np.float32)
        for j in range(3):
            rows = np.flatnonzero(rng.integers(1, 4, size=100_000) > j)
            np.add.at(counts, (rows, rng.integers(0, 400, size=len(rows))), 1.0)
        counts[:, 0] += 1.0  # every row holds one shared word
        matrix = counts @ words.astype(np.float32)  # small integers: exact
        del counts
        index = Index(tuple(f"d{i:06d}" for i in rng.permutation(len(matrix))), matrix,
                      "dot", spec)
        del matrix
        for query, k in (("w7", 5_000), ("w7 w8", 40_000), ("w0", 20)):
            assert_matches_oracle(index, query, k)
        assert oracle_top_k(index, "w7", 5_000)[-1][1] == 0.0

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    @pytest.mark.parametrize("value,fault", [(5e-324, "underflows to 0"), (1e200, "overflows")],
                             ids=["underflow", "overflow"])
    def test_remote_query_with_no_unit_norm_is_refused(self, scripted, value, fault, similarity):
        # normalize off, so the service's vector would reach top_k as it is:
        # on a cosine index a zero norm gives inf and NaN and no rows, an
        # infinite one a query of zeros; on a dot index an infinite norm
        # overflows the screen's error bound
        index = scripted.index(np.eye(2, 8), similarity)
        scripted.vectors["q"] = [value] + [0.0] * 7
        with pytest.raises(EmbeddingServiceError, match=rf"row 0's norm {fault} \(text 'q'\)"):
            top_k(index, "q", 2)

    def test_dot_similarity_symmetric(self):
        a = hashed_bow_embed("alpha beta", 64, seed=9)
        b = hashed_bow_embed("beta gamma", 64, seed=9)
        assert float(np.dot(a, b)) == float(np.dot(b, a))

    def test_concurrent_queries_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(12)
        index = build_index(random_corpus(rng, 200), SPEC, "cosine")
        queries = [random_query(rng) for _ in range(40)]
        expected = [top_k(index, q, 10) for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda q: top_k(index, q, 10), queries))
        assert got == expected


class TestPersistence:
    def test_round_trip_bit_for_bit(self, tmp_path):
        index = build_index(small_corpus(), SPEC, "cosine")
        path = tmp_path / "x.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index

    def test_round_trip_preserves_rankings(self, tmp_path):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 80)
        index = build_index(corpus, SPEC, "dot")
        path = tmp_path / "x.idx"
        save_index(index, path)
        loaded = load_index(path)
        for _ in range(100):
            query = random_query(rng)
            assert top_k(loaded, query, 10) == top_k(index, query, 10)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.idx"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path)

    def test_truncated_file_rejected(self, tmp_path):
        index = build_index(small_corpus(), SPEC, "dot")
        path = tmp_path / "x.idx"
        save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        index = build_index(small_corpus(), SPEC, "dot")
        path = tmp_path / "x.idx"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(IndexFormatError, match="trailing"):
            load_index(path)

    def test_fingerprint_mismatch_logs_a_warning(self, tmp_path, caplog):
        index = build_index(small_corpus(), SPEC, "dot")
        path = tmp_path / "x.idx"
        save_index(index, path)
        other_spec = EmbedderSpec(kind="hashed-bow", dim=64, normalize=False, seed=10)
        with caplog.at_level(logging.WARNING, logger="boolsearch.index"):
            assert load_index(path, expected_spec=other_spec) == index
        (record,) = caplog.records
        assert record.name == "boolsearch.index" and record.levelno == logging.WARNING
        assert "fingerprint" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="boolsearch.index"):
            load_index(path, expected_spec=SPEC)
        assert not caplog.records

    @pytest.mark.parametrize(
        "edit",
        [
            lambda spec: {("sead" if k == "seed" else k): v for k, v in spec.items()},
            lambda spec: {**spec, "extra": 1},
            lambda spec: {k: v for k, v in spec.items() if k != "endpoint"},
            lambda spec: {**spec, "dim": "64"},
            lambda spec: {**spec, "normalize": 0},
            lambda spec: {**spec, "kind": "word2vec"},
            lambda spec: {**spec, "dim": 4},
            lambda spec: [spec],
        ],
        ids=["renamed", "extra", "missing", "dim-str", "normalize-int", "kind", "dim-4",
             "list"],
    )
    def test_spec_json_not_the_spec_fields_rejected(self, tmp_path, edit):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        rewrite_spec_json(path, edit)
        with pytest.raises(IndexFormatError, match="embedder"):
            load_index(path)

    def test_spec_json_nested_too_deep_rejected(self, tmp_path):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        blob = path.read_bytes()
        (length,) = struct.unpack_from("<I", blob, SPEC_JSON_AT)
        start = SPEC_JSON_AT + 4
        deep = b"[" * 100_000  # json.loads raises RecursionError
        path.write_bytes(
            blob[:SPEC_JSON_AT] + struct.pack("<I", len(deep)) + deep + blob[start + length :]
        )
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_spec_disagreeing_with_stored_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        rewrite_spec_json(path, lambda spec: {**spec, "seed": 7})
        with pytest.raises(IndexFormatError,
                           match="index fingerprint '.*' does not match its embedder spec"):
            load_index(path)

    def test_spec_dim_disagreeing_with_header_rejected(self, tmp_path):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        rewrite_spec_json(path, lambda spec: {**spec, "dim": 32})
        with pytest.raises(IndexFormatError,
                           match="dim 64 does not match the embedder spec dim 32"):
            load_index(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "x.idx"
        index = build_index(small_corpus(), SPEC, "dot")
        save_index(index, path)

        def plant_nan(payload):
            payload[-4:] = struct.pack("<f", float("nan"))

        # the CRC32 is valid, so the finiteness check is what rejects it
        rewrite_payload(path, index, plant_nan)
        with pytest.raises(IndexFormatError, match="non-finite"):
            load_index(path)

    def test_payload_is_column_major_with_crc32(self, tmp_path):
        index = build_index(random_corpus(np.random.default_rng(6), 50), SPEC, "cosine")
        path = tmp_path / "x.idx"
        save_index(index, path)
        blob = path.read_bytes()
        size = len(index.doc_ids) * index.dim * 4
        assert struct.unpack_from("<I", blob, 4) == (2,)
        assert blob[-4 - size : -4] == index.matrix.T.tobytes()
        assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[-4 - size : -4]))

    def test_flipped_payload_byte_fails_crc32(self, tmp_path):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="CRC32"):
            load_index(path)

    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_version_1_file_loads_bit_identically(self, tmp_path, similarity):
        index = build_index(random_corpus(np.random.default_rng(7), 70), SPEC, similarity)
        save_index_v1(index, tmp_path / "v1.idx")
        loaded = load_index(tmp_path / "v1.idx")
        assert loaded == index
        assert loaded.matrix.tobytes() == index.matrix.tobytes()
        assert loaded.matrix.flags.f_contiguous and not loaded.matrix.flags.writeable
        # saved again, it becomes a version 2 file of the same index
        save_index(loaded, tmp_path / "v2.idx")
        assert struct.unpack_from("<I", (tmp_path / "v2.idx").read_bytes(), 4) == (2,)
        assert load_index(tmp_path / "v2.idx") == index

    def test_version_3_rejected(self, tmp_path):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="unsupported index version 3"):
            load_index(path)

    def test_load_reads_the_payload_straight_into_the_matrix(self, tmp_path):
        # the payload is not held as bytes beside the matrix, so loading
        # peaks near the matrix's own size
        index, peak = load_peak(tmp_path, save_index)
        assert peak < 1.5 * index.matrix.nbytes

    def test_version_1_load_reads_rows_straight_into_the_matrix(self, tmp_path):
        # a version 1 payload is read a chunk of rows at a time into the
        # column-major matrix, not whole and then copied
        index, peak = load_peak(tmp_path, save_index_v1)
        assert peak < 1.5 * index.matrix.nbytes

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.idx"
        save_index(build_index(small_corpus(), SPEC, "dot"), path)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded: the save fails mid-file
        broken = Corpus([Passage("ok", "alpha"), Passage("bad\ud800", "beta")])
        with pytest.raises(UnicodeEncodeError):
            save_index(build_index(broken, SPEC, "dot"), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.idx"]
