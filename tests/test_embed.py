import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsearch import embed
from boolsearch.data import Corpus, Passage
from boolsearch.embed import (
    EmbedderSpec,
    TOKEN_ENV_VAR,
    embed_texts,
    hashed_bow_embed,
    tokenize,
)
from boolsearch.errors import EmbeddingError, EmbeddingServiceError
from boolsearch.index import Index, build_index, embed_query

from _planted import oracle_embed_query, oracle_hashed_bow_embed, oracle_tokenize
from _server import ScriptedServer


class TestEmbedderSpec:
    def test_dim_floor(self):
        with pytest.raises(EmbeddingError):
            EmbedderSpec(dim=4)

    def test_endpoint_iff_remote(self):
        with pytest.raises(EmbeddingError):
            EmbedderSpec(kind="remote", endpoint="")
        with pytest.raises(EmbeddingError):
            EmbedderSpec(kind="hashed-bow", endpoint="http://x")
        EmbedderSpec(kind="remote", endpoint="http://x")  # valid

    def test_fingerprint_distinguishes_seeds(self):
        a = EmbedderSpec(seed=1).fingerprint()
        b = EmbedderSpec(seed=2).fingerprint()
        assert a != b and len(a) == 16


class TestHashedBow:
    def test_bucket_and_sign_match_recomputed_hash(self):
        # independent recomputation of the keyed 64-bit hash for token "a"
        seed, dim = 7, 16
        digest = hashlib.blake2b(
            b"a", digest_size=8, key=(seed).to_bytes(8, "little")
        ).digest()
        h = int.from_bytes(digest, "little")
        bucket = h % dim
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vec = hashed_bow_embed("a a", dim=dim, seed=seed)
        expected = np.zeros(dim)
        expected[bucket] = 2 * sign
        np.testing.assert_array_equal(vec, expected)

    def test_empty_text_is_zero_vector(self):
        assert not hashed_bow_embed("", dim=16).any()
        assert not hashed_bow_embed("?!...", dim=16).any()

    def test_case_and_split_invariance(self):
        a = hashed_bow_embed("Cat dog", dim=64, seed=3)
        b = hashed_bow_embed("cat DOG", dim=64, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_token_order_invariance(self):
        a = hashed_bow_embed("x y z", dim=64, seed=3)
        b = hashed_bow_embed("z x y", dim=64, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_determinism_same_spec(self):
        spec = EmbedderSpec(dim=32, normalize=True, seed=11)
        one, two = embed_texts(spec, ["same text here"] * 2)
        np.testing.assert_array_equal(one, two)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30), st.text(max_size=30))
    def test_raw_additivity_over_concatenation(self, s1, s2):
        left = hashed_bow_embed(s1, dim=32, seed=5)
        right = hashed_bow_embed(s2, dim=32, seed=5)
        joint = hashed_bow_embed(s1 + " " + s2, dim=32, seed=5)
        np.testing.assert_allclose(joint, left + right)

    def test_normalized_unit_norm(self):
        spec = EmbedderSpec(dim=32, normalize=True, seed=0)
        (vec,) = embed_texts(spec, ["some tokens in here"])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_normalized_zero_vector_stays_zero(self):
        spec = EmbedderSpec(dim=32, normalize=True, seed=0)
        (vec,) = embed_texts(spec, ["???"])
        assert not vec.any()

    def test_dim_floor(self):
        with pytest.raises(EmbeddingError):
            hashed_bow_embed("x", dim=2)

    def test_tokenize(self):
        assert tokenize("Al-pha, beta9 GAMMA??") == ["al", "pha", "beta9", "gamma"]

    def test_tokenize_matches_oracle_on_every_code_point(self):
        # each code point alone, and between ASCII letters, so one that
        # lowers to ASCII joins or splits tokens as the oracle's does
        for start in range(0, 0x110000, 0x10000):
            points = [chr(c) for c in range(start, start + 0x10000)]
            text = " ".join(f"a{c}b {c}" for c in points)
            assert tokenize(text) == oracle_tokenize(text)

    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(
        st.text(st.characters(exclude_categories=())),
        st.text(alphabet="aAzZ09 _\t\n\x00\x7f\x80\u00e9\u0130\u212a\u03a3\ud800"),
    ))
    @example(text="\u212aelvin \u0130stanbul")
    def test_tokenize_matches_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)


# arbitrary Unicode; a small mixed-case alphabet that repeats tokens (with
# characters that lowercase to ASCII: U+0130 and the Kelvin sign U+212A);
# empty and punctuation-only texts
TEXTS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="aAbBkK09 \t.,!?-\u00e9\u0130\u212a", max_size=40),
    st.sampled_from(["", "?!...", "--- ,,,", "Cat cat CAT", "a a a a"]),
)
DIMS = st.sampled_from([8, 13, 256, 1000])
SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, -1, -(2**63), 2**63, 2**64 - 1, 2**64, 2**64 + 7]),
)


# few tokens over few buckets: repeats, and signs that cancel in a bucket
WORD_SOUP = st.lists(st.sampled_from([f"w{i}" for i in range(16)]), max_size=10).map(" ".join)


def one_row_index(spec: EmbedderSpec, similarity: str) -> Index:
    return Index(("p",), np.ones((1, spec.dim), np.float32), similarity, spec)


def cancelling_pair(dim: int, seed: int) -> tuple[str, str, int]:
    """Two tokens that hash to one bucket with opposite signs, and the bucket."""
    first = {}
    for i in range(1000):
        vec = oracle_hashed_bow_embed(f"t{i}", dim, seed)
        (bucket,) = np.flatnonzero(vec)
        sign = vec[bucket]
        if (bucket, -sign) in first:
            return first[bucket, -sign], f"t{i}", int(bucket)
        first.setdefault((bucket, sign), f"t{i}")
    raise AssertionError("no cancelling pair among 1,000 tokens")


def oracle_embed_texts(spec: EmbedderSpec, texts: list[str]) -> list[np.ndarray]:
    vectors = [oracle_hashed_bow_embed(t, spec.dim, spec.seed) for t in texts]
    if spec.normalize:
        vectors = [v / np.linalg.norm(v) if v.any() else v for v in vectors]
    return vectors


def assert_same_bytes(got, want, dim):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == (dim,)
        assert g.tobytes() == w.tobytes()


class TestHashedBowMatchesOracle:
    """The per-call token table and batched accumulation against one fresh hash
    per token occurrence, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TEXTS, max_size=12), DIMS, SEEDS, st.booleans())
    def test_embed_texts(self, texts, dim, seed, normalize):
        spec = EmbedderSpec(dim=dim, normalize=normalize, seed=seed)
        assert_same_bytes(embed_texts(spec, texts), oracle_embed_texts(spec, texts), dim)

    @settings(max_examples=200, deadline=None)
    @given(TEXTS, DIMS, SEEDS)
    def test_hashed_bow_embed(self, text, dim, seed):
        got = hashed_bow_embed(text, dim, seed)
        assert_same_bytes([got], [oracle_hashed_bow_embed(text, dim, seed)], dim)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(TEXTS, min_size=1, max_size=6),
        DIMS,
        st.lists(SEEDS, min_size=2, max_size=4, unique_by=lambda s: s % 2**64),
    )
    @example(["alpha beta", "beta gamma"], 256, [1, 2])
    def test_back_to_back_calls_with_other_seeds(self, texts, dim, seeds):
        # a table that outlived its call would hand the next seed stale codes
        for seed in seeds:
            spec = EmbedderSpec(dim=dim, normalize=False, seed=seed)
            assert_same_bytes(embed_texts(spec, texts), oracle_embed_texts(spec, texts), dim)

    @settings(max_examples=300, deadline=None)
    @given(TEXTS | WORD_SOUP, st.sampled_from([8, 13, 256]), SEEDS, st.booleans(),
           st.sampled_from(["dot", "cosine"]))
    @example("Cat cat CAT", 8, -1, True, "cosine")
    @example("w1 w2 w3 w1 w1", 8, 2**64 + 7, False, "dot")
    def test_embed_query_matches_batch_path(self, text, dim, seed, normalize, similarity):
        # one text skips the batch path; its bytes must be the batch path's
        index = one_row_index(EmbedderSpec(dim=dim, normalize=normalize, seed=seed),
                              similarity)
        got = embed_query(index, text)
        assert_same_bytes([got], [oracle_embed_query(index, text)], dim)

    @pytest.mark.parametrize("seed", [0, -5, 2**64 + 7])
    @pytest.mark.parametrize("dim", [8, 13, 256])
    def test_embed_query_where_signs_cancel(self, dim, seed):
        # two tokens of one bucket and opposite signs: "a b" leaves +0.0
        # there and nothing else, "a b a" and "b a b" a count of one
        a, b, bucket = cancelling_pair(dim, seed)
        for text in (f"{a} {b}", f"{a} {b} {a}", f"{b} {a} {b}"):
            raw = hashed_bow_embed(text, dim, seed)
            assert abs(raw[bucket]) == len(text.split()) - 2
            for normalize in (True, False):
                for similarity in ("dot", "cosine"):
                    index = one_row_index(
                        EmbedderSpec(dim=dim, normalize=normalize, seed=seed), similarity
                    )
                    got = embed_query(index, text)
                    assert_same_bytes([got], [oracle_embed_query(index, text)], dim)
        assert hashed_bow_embed(f"{a} {b}", dim, seed).tobytes() == bytes(8 * dim)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_build_index_matrix(self, similarity, normalize):
        # 2,500 passages span three build chunks, the last one partial, and
        # share their words; built back to back with other seeds, so a token
        # table that outlived its build would hand the next one stale codes
        rng = np.random.default_rng(17)
        words = ["Alpha", "beta", "GAMMA", "d3lta", "\u00e9t\u00e9", "x", "?!", "k\u212a"]
        corpus = Corpus(
            Passage(f"p{i:05d}", " ".join(rng.choice(words, size=int(rng.integers(1, 30)))))
            for i in range(2500)
        )
        for seed in (-3, 4, -3):
            spec = EmbedderSpec(dim=64, normalize=normalize, seed=seed)
            expected = np.vstack(oracle_embed_texts(spec, list(corpus.texts)))
            if similarity == "cosine":
                expected = embed.normalize_rows(expected)
            matrix = build_index(corpus, spec, similarity).matrix
            assert matrix.tobytes() == expected.astype(np.float32).tobytes()

    @pytest.mark.parametrize("kind", ["hashed-bow", "remote"])
    def test_no_texts_give_no_rows(self, kind):
        with ScriptedServer(_echo_embedder(16)) as server:
            endpoint = server.url if kind == "remote" else ""
            rows = embed_texts(EmbedderSpec(kind=kind, dim=16, endpoint=endpoint), [])
        assert rows.shape == (0, 16) and rows.dtype == np.float64
        assert not server.requests

    def test_remote_rows_normalize_as_each_row_alone(self):
        rows = remote_rows()
        with ScriptedServer(_serve_rows(rows)) as server:
            spec = EmbedderSpec(kind="remote", dim=24, endpoint=server.url)
            got = embed_texts(spec, [f"t{i}" for i in range(len(rows))])
        want = [v / np.linalg.norm(v) if v.any() else v for v in rows]
        assert_same_bytes(got, want, 24)
        assert got[4].tobytes() == rows[4].tobytes()  # -0.0 entries stay

    @pytest.mark.parametrize("normalize", [True, False])
    def test_cosine_query_divides_as_np_linalg_norm(self, normalize):
        rows = remote_rows()
        with ScriptedServer(_serve_rows(rows)) as server:
            spec = EmbedderSpec(kind="remote", dim=24, normalize=normalize,
                                endpoint=server.url)
            index = Index(("p",), np.ones((1, 24), np.float32), "cosine", spec)
            for i, v in enumerate(rows):
                if normalize and v.any():
                    v = v / np.linalg.norm(v)
                want = v / np.linalg.norm(v) if v.any() else v
                assert embed_query(index, f"t{i}").tobytes() == want.tobytes()


def remote_rows():
    """Non-integer rows over a wide range of magnitudes, with -0.0 entries
    and zero rows of either sign."""
    rng = np.random.default_rng(29)
    rows = rng.standard_normal((150, 24)) * 10.0 ** rng.integers(-150, 150, (150, 1))
    rows[rng.random(rows.shape) < 0.3] = -0.0
    rows[3], rows[4] = 0.0, -0.0
    return rows


def _serve_rows(rows):
    # serves rows[i] for text "t{i}"
    def respond(path, body, headers):
        return 200, {"vectors": [rows[int(text[1:])].tolist() for text in body["texts"]]}

    return respond


def _echo_embedder(dim):
    # deterministic fake service: index-scaled constant vectors
    def respond(path, body, headers):
        vectors = [[float(i + 1)] * dim for i, _ in enumerate(body["texts"])]
        return 200, {"vectors": vectors}

    return respond


class TestRemoteEmbedder:
    @pytest.fixture(autouse=True)
    def fast_backoff(self, monkeypatch):
        monkeypatch.setattr(embed, "BACKOFF_S", 0.01)

    def test_build_index_names_the_failing_chunk(self):
        # 2,100 passages make three build chunks; every text of the second
        # one is refused
        second = {f"t{i}" for i in range(1024, 2048)}

        def refuse_second_chunk(path, body, headers):
            if second.intersection(body["texts"]):
                return 400, {"error": "refused"}
            return _echo_embedder(8)(path, body, headers)

        corpus = Corpus(Passage(f"p{i:05d}", f"t{i}") for i in range(2100))
        with ScriptedServer(refuse_second_chunk) as server:
            spec = EmbedderSpec(kind="remote", dim=8, endpoint=server.url)
            with pytest.raises(EmbeddingError, match="400") as info:
                build_index(corpus, spec)
            sent = [text for r in server.requests for text in r["body"]["texts"]]
        assert "passages 'p01024'..'p02047'" in str(info.value)
        assert isinstance(info.value.__cause__, EmbeddingServiceError)
        assert set(sent) >= {f"t{i}" for i in range(1024)}  # the first chunk, whole
        assert not set(sent) & {f"t{i}" for i in range(2048, 2100)}  # never the third

    def test_vectors_in_order(self):
        with ScriptedServer(_echo_embedder(8)) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            vectors = embed_texts(spec, ["first", "second"])
        assert len(vectors) == 2
        assert vectors[0][0] == 1.0 and vectors[1][0] == 2.0

    def test_batches_capped_at_64(self):
        with ScriptedServer(_echo_embedder(8)) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            vectors = embed_texts(spec, [f"t{i}" for i in range(130)])
            sizes = [len(r["body"]["texts"]) for r in server.requests]
        assert len(vectors) == 130
        assert sorted(sizes) == [2, 64, 64]
        assert all(r["path"] == "/embed" for r in server.requests)

    def test_retry_then_success(self):
        state = {"calls": 0}

        def flaky(path, body, headers):
            state["calls"] += 1
            if state["calls"] <= 2:
                return 500, {"error": "boom"}
            return _echo_embedder(8)(path, body, headers)

        with ScriptedServer(flaky) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            vectors = embed_texts(spec, ["a"])
        assert state["calls"] == 3 and len(vectors) == 1

    def test_persistent_failure_surfaces_status(self):
        def failing(path, body, headers):
            return 503, {"error": "down"}

        with ScriptedServer(failing) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="503"):
                embed_texts(spec, ["a"])
        assert len(server.requests) == 3

    def test_client_error_fails_fast(self):
        def bad_request(path, body, headers):
            return 400, {"error": "nope"}

        with ScriptedServer(bad_request) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="400"):
                embed_texts(spec, ["a"])
        assert len(server.requests) == 1

    def test_dimension_mismatch_rejected(self):
        with ScriptedServer(_echo_embedder(5)) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="dimension"):
                embed_texts(spec, ["a"])

    def test_wrong_vector_count_rejected(self):
        def short(path, body, headers):
            return 200, {"vectors": [[0.0] * 8]}

        with ScriptedServer(short) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="1 vectors for 2"):
                embed_texts(spec, ["a", "b"])

    @pytest.mark.parametrize("payload", [
        {"vectors": [["a"] * 8]},
        {"vectors": 5},
        [[0.0] * 8],  # a JSON list, not an object
        {"vectors": [{"x": 1.0}]},
        {"vectors": None},
        b"not json",
    ], ids=["string-entries", "number", "list-body", "object-row", "null", "not-json"])
    def test_malformed_reply_shapes_fail_closed(self, payload):
        with ScriptedServer(lambda *_: (200, payload)) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="malformed"):
                embed_texts(spec, ["a"])
        assert len(server.requests) == 1  # a bad reply is not retried

    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_row_whose_norm_underflows_is_refused(self, similarity):
        # finite and nonzero, but its squared norm rounds to 0: dividing by
        # that norm would put inf and NaN into the index
        rows = np.zeros((3, 24))
        rows[0, 0] = rows[2, 5] = 1.0
        rows[1, 7] = 5e-324
        with ScriptedServer(_serve_rows(rows)) as server:
            spec = EmbedderSpec(kind="remote", dim=24, endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="row 1's norm underflows to 0"):
                embed_texts(spec, ["t0", "t1", "t2"])
            corpus = Corpus(Passage(f"p{i}", f"t{i}") for i in range(3))
            with pytest.raises(EmbeddingError, match="'p0'..'p2'.*row 1") as info:
                build_index(corpus, spec, similarity)
        assert isinstance(info.value.__cause__, EmbeddingServiceError)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("value,fault", [(5e-324, "underflows to 0"), (1e200, "overflows")],
                             ids=["underflow", "overflow"])
    def test_row_with_no_unit_norm_is_refused(self, value, fault, normalize):
        # finite and nonzero, but its squared norm underflows to 0 or
        # overflows: no division makes a unit row of it, and float32 would
        # store it as zeros or infinities, so it is refused as it arrives,
        # normalize on or off, for a dot or a cosine build
        rows = np.zeros((3, 24))
        rows[0, 0] = rows[2, 5] = 1.0
        rows[1, 7] = value
        corpus = Corpus(Passage(f"p{i}", f"t{i}") for i in range(3))
        with ScriptedServer(_serve_rows(rows)) as server:
            spec = EmbedderSpec(kind="remote", dim=24, normalize=normalize,
                                endpoint=server.url)
            message = rf"row 1's norm {fault} \(text 't1'\)"
            with pytest.raises(EmbeddingServiceError, match=message):
                embed_texts(spec, ["t0", "t1", "t2"])
            for similarity in ("dot", "cosine"):
                with pytest.raises(EmbeddingError, match=f"'p0'..'p2'.*{message}") as info:
                    build_index(corpus, spec, similarity)
                assert type(info.value.__cause__) is EmbeddingServiceError

    def test_non_finite_values_rejected(self):
        with ScriptedServer(lambda *_: (200, {"vectors": [[0.0] * 7 + [1e309]]})) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            with pytest.raises(EmbeddingServiceError, match="non-finite"):
                embed_texts(spec, ["a"])

    def test_no_token_no_header(self, monkeypatch):
        monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
        with ScriptedServer(_echo_embedder(8)) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            embed_texts(spec, ["a"])
            assert "Authorization" not in server.requests[0]["headers"]

    def test_bearer_token_attached(self, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        with ScriptedServer(_echo_embedder(8)) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False,
                                endpoint=server.url)
            embed_texts(spec, ["a"])
            auth = server.requests[0]["headers"].get("Authorization")
        assert auth == "Bearer sekrit"
