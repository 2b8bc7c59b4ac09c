import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsearch.chat import ChatClient, request_hash
from boolsearch.data import Corpus, Passage
from boolsearch.embed import EmbedderSpec
from boolsearch.errors import BoolSearchError, DecompositionError, QuerySyntaxError
from boolsearch.index import RankedList, ScoredDoc, build_index, top_k
from boolsearch.query import (
    And,
    Atom,
    DECOMPOSER_SYSTEM,
    MAX_EXPR_DEPTH,
    MergePolicy,
    Not,
    Or,
    decompose_question,
    evaluate_expr,
    fallback_decompose,
    merge_and,
    merge_not,
    merge_or,
    parse_boolean_query,
    render,
    _min_max_normalize,
    retrieve_atom,
    whole_query_retrieve,
)

from _planted import (
    OracleRankedList,
    atoms,
    oracle_evaluate_full_depth,
    oracle_merge_and,
    oracle_merge_not,
    oracle_merge_or,
    oracle_min_max_normalize,
    random_expression,
    ranked_outcome,
    scored_pairs,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestParser:
    def test_single_and(self):
        assert parse_boolean_query('"a" AND "b"') == And(Atom("a"), Atom("b"))

    def test_precedence_and_binds_tighter(self):
        expr = parse_boolean_query('"a" OR "b" AND "c"')
        assert expr == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_parenthesized_not(self):
        expr = parse_boolean_query('("a" OR "b") NOT "c"')
        assert expr == Not(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_left_association(self):
        expr = parse_boolean_query('"a" AND "b" NOT "c"')
        assert expr == Not(And(Atom("a"), Atom("b")), Atom("c"))
        expr = parse_boolean_query('"a" OR "b" OR "c"')
        assert expr == Or(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_keywords_case_insensitive(self):
        assert parse_boolean_query('"a" and "b"') == And(Atom("a"), Atom("b"))
        assert parse_boolean_query('"a" nOt "b"') == Not(Atom("a"), Atom("b"))

    def test_escapes_in_atoms(self):
        expr = parse_boolean_query(r'"say \"hi\"" AND "back\\slash"')
        assert expr == And(Atom('say "hi"'), Atom("back\\slash"))

    def test_empty_atom_rejected(self):
        with pytest.raises(QuerySyntaxError, match="empty atom"):
            parse_boolean_query('"" AND "b"')

    def test_bare_word_rejected_with_offset(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_boolean_query('"a" AND banana')
        assert err.value.offset == 8

    def test_offset_counts_bytes_not_chars(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_boolean_query('"héé" ???')
        assert err.value.offset == len('"héé" '.encode("utf-8"))
        # 4,000 atoms of one- to four-byte characters: lexing fails at the
        # tail, before the parser would refuse the chain as too deep
        head = " OR\t".join(['"été"', '"日本"', '"𝔸x"', '"ascii"'] * 1000) + " AND "
        for tail in ("???", "banana", '"unterminated', '""'):
            with pytest.raises(QuerySyntaxError) as err:
                parse_boolean_query(head + tail)
            assert err.value.offset == len(head.encode("utf-8"))

    @pytest.mark.parametrize("text, offset", [
        ('"\udcff" ???', 6), ('"\udcff" AND', 9), ('"a\udcff\udcfe" )', 10),
    ])
    def test_lone_surrogate_counts_three_bytes(self, text, offset):
        # argv bytes that are not UTF-8 reach the parser as lone surrogates
        with pytest.raises(QuerySyntaxError) as err:
            parse_boolean_query(text)
        assert err.value.offset == offset

    def test_lone_surrogate_in_atom_parses(self):
        assert parse_boolean_query('"\udcff" OR "b"') == Or(Atom("\udcff"), Atom("b"))

    def test_operator_depth_is_bounded(self):
        def chain(operators):
            return " OR ".join(['"é"'] * (operators + 1))

        expr = parse_boolean_query(chain(MAX_EXPR_DEPTH))
        assert len(atoms(expr)) == MAX_EXPR_DEPTH + 1
        assert parse_boolean_query(render(expr)) == expr
        text = chain(MAX_EXPR_DEPTH + 1)
        with pytest.raises(QuerySyntaxError, match="operators nest more than") as err:
            parse_boolean_query(text)
        # at the operator that crosses the bound: the last one
        assert err.value.offset == text.encode("utf-8").rindex(b"OR")
        with pytest.raises(QuerySyntaxError, match="operators nest more than"):
            parse_boolean_query(chain(1500))

    def test_parenthesis_depth_is_bounded(self):
        def nest(parens):
            return "(" * parens + '"a"' + ")" * parens

        assert parse_boolean_query(nest(MAX_EXPR_DEPTH)) == Atom("a")
        with pytest.raises(QuerySyntaxError, match="parentheses nest more than") as err:
            parse_boolean_query(nest(5000))
        assert err.value.offset == MAX_EXPR_DEPTH

    def test_right_nested_expression_at_the_bound_round_trips(self):
        text = '"a" AND (' * (MAX_EXPR_DEPTH - 1) + '"b"' + ")" * (MAX_EXPR_DEPTH - 1)
        expr = parse_boolean_query(text)
        assert parse_boolean_query(render(expr)) == expr
        assert atoms(expr) == ["a"] * (MAX_EXPR_DEPTH - 1) + ["b"]

    def test_unterminated_atom(self):
        with pytest.raises(QuerySyntaxError, match="unterminated"):
            parse_boolean_query('"a" AND "broken')

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QuerySyntaxError, match="trailing"):
            parse_boolean_query('"a" "b"')

    def test_dangling_operator_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_boolean_query('"a" AND')

    def test_missing_close_paren(self):
        with pytest.raises(QuerySyntaxError, match="parenthesis"):
            parse_boolean_query('("a" OR "b"')

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            expr = random_expression(rng, max_depth=5)
            assert parse_boolean_query(render(expr)) == expr

    @settings(max_examples=300, deadline=None)
    @given(st.text(min_size=1, max_size=20).filter(lambda s: s.strip()))
    def test_round_trip_arbitrary_atom_text(self, text):
        expr = Atom(text)
        assert parse_boolean_query(render(expr)) == expr


def ranked(*pairs):
    return RankedList.from_scores(pairs)


EMPTY = RankedList(())


class TestMergeAlgebra:
    def test_and_sums_intersection(self):
        a = ranked(("d1", 0.9), ("d2", 0.8))
        b = ranked(("d2", 0.7), ("d3", 0.6))
        assert merge_and(a, b) == ranked(("d2", 1.5))

    def test_and_disjoint_lists_empty(self):
        assert merge_and(ranked(("d1", 1.0)), ranked(("d2", 1.0))) == EMPTY

    def test_and_self_doubles_scores(self):
        x = ranked(("d1", 0.5), ("d2", 0.25))
        assert merge_and(x, x) == ranked(("d1", 1.0), ("d2", 0.5))

    def test_and_with_empty_annihilates(self):
        x = ranked(("d1", 0.5))
        assert merge_and(x, EMPTY) == EMPTY
        assert merge_and(EMPTY, x) == EMPTY

    def test_or_takes_max(self):
        a = ranked(("d1", 0.9))
        b = ranked(("d1", 0.7), ("d2", 0.6))
        assert merge_or(a, b) == ranked(("d1", 0.9), ("d2", 0.6))

    def test_or_empty_is_identity(self):
        x = ranked(("d1", 0.9), ("d2", 0.1))
        assert merge_or(x, EMPTY) == x
        assert merge_or(EMPTY, x) == x

    def test_or_idempotent(self):
        x = ranked(("d1", 0.9), ("d2", 0.1))
        assert merge_or(x, x) == x

    def test_not_hard_is_set_difference(self):
        a = ranked(("d1", 0.9), ("d2", 0.8))
        b = ranked(("d2", 0.7))
        assert merge_not(a, b, "hard") == ranked(("d1", 0.9))

    def test_not_soft_subtracts(self):
        a = ranked(("d1", 0.9), ("d2", 0.8))
        b = ranked(("d2", 0.7))
        result = merge_not(a, b, "soft")
        assert result.ids == ("d1", "d2")
        assert result.items[1].score == pytest.approx(0.1)

    def test_not_with_empty_is_identity(self):
        x = ranked(("d1", 0.9))
        assert merge_not(x, EMPTY, "hard") == x
        assert merge_not(x, EMPTY, "soft") == x

    def test_not_self_hard_annihilates(self):
        x = ranked(("d1", 0.9), ("d2", 0.1))
        assert merge_not(x, x, "hard") == EMPTY

    def test_unknown_mode_rejected(self):
        with pytest.raises(BoolSearchError, match="not_mode"):
            merge_not(EMPTY, EMPTY, "fuzzy")

    def test_commutativity_on_random_lists(self):
        rng = np.random.default_rng(7)
        pool = [f"d{i}" for i in range(12)]
        for _ in range(200):
            a = _random_ranked(rng, pool)
            b = _random_ranked(rng, pool)
            assert merge_and(a, b) == merge_and(b, a)
            assert merge_or(a, b) == merge_or(b, a)

    @settings(max_examples=500, deadline=None)
    @given(a_pairs=scored_pairs(merge_inputs=True), b_pairs=scored_pairs(merge_inputs=True))
    @example(a_pairs=[("a", 0.0)], b_pairs=[("a", -0.0)])  # OR keeps a's zero
    @example(a_pairs=[("a", 1e308)], b_pairs=[("a", 1e308)])  # AND overflows
    @example(a_pairs=[("a", 1e308), ("b", -1e308)], b_pairs=[])  # a NaN in normalize
    def test_merges_match_oracle(self, a_pairs, b_pairs):
        a, b = RankedList.from_scores(a_pairs), RankedList.from_scores(b_pairs)
        oa, ob = OracleRankedList.from_scores(a_pairs), OracleRankedList.from_scores(b_pairs)
        cases = {
            "and": (lambda: merge_and(a, b), lambda: oracle_merge_and(oa, ob)),
            "or": (lambda: merge_or(a, b), lambda: oracle_merge_or(oa, ob)),
            "hard not": (lambda: merge_not(a, b), lambda: oracle_merge_not(oa, ob)),
            "soft not": (lambda: merge_not(a, b, "soft"),
                         lambda: oracle_merge_not(oa, ob, "soft")),
            "normalize": (lambda: _min_max_normalize(a), lambda: oracle_min_max_normalize(oa)),
        }
        for name, (got, want) in cases.items():
            got, want = ranked_outcome(got), ranked_outcome(want)
            if name == "normalize" and "non-finite" in want:
                # NaNs sort anywhere: which of several NaN docs is named depends
                # on the sort, so only the fault is compared
                got, want = got.partition(" for doc")[0], want.partition(" for doc")[0]
            assert got == want, name


def _random_ranked(rng, pool):
    size = int(rng.integers(0, len(pool) + 1))
    ids = rng.choice(pool, size=size, replace=False)
    # quantized scores make ties common
    scores = rng.integers(-4, 5, size=size) / 4.0
    return RankedList.from_scores(zip(ids.tolist(), scores.tolist()))


def planted_six_doc_index(similarity="dot"):
    corpus = Corpus([
        Passage("d1", "apple apple fruit"),
        Passage("d2", "apple pie dessert"),
        Passage("d3", "pie crust dessert"),
        Passage("d4", "fruit salad apple pie"),
        Passage("d5", "banana fruit"),
        Passage("d6", "crust bakery"),
    ])
    spec = EmbedderSpec(kind="hashed-bow", dim=64, normalize=False, seed=2)
    return build_index(corpus, spec, similarity)


class TestEvaluateExpr:
    def test_atom_only_equals_top_k(self):
        index = planted_six_doc_index()
        policy = MergePolicy(final_k=3)
        assert evaluate_expr(index, Atom("apple"), policy) == top_k(index, "apple", 3)

    def test_retrieve_atom_depth(self):
        index = planted_six_doc_index()
        assert len(retrieve_atom(index, "apple", 2)) == 2
        assert retrieve_atom(index, "apple", 4) == top_k(index, "apple", 4)

    def test_hard_not_excludes_candidates(self):
        index = planted_six_doc_index()
        policy = MergePolicy(final_k=3, candidate_depth_factor=1, not_mode="hard")
        excluded = retrieve_atom(index, "pie", 3).ids
        result = evaluate_expr(index, Not(Atom("apple"), Atom("pie")), policy)
        assert set(result.ids).isdisjoint(excluded)

    def test_nested_expression_matches_full_depth_oracle(self):
        # depth covers the whole corpus, so the truncation caveat is moot
        index = planted_six_doc_index()
        policy = MergePolicy(final_k=3, candidate_depth_factor=2)
        expr = Or(And(Atom("apple"), Atom("pie")), Atom("banana"))
        got = [(d.doc_id, d.score) for d in evaluate_expr(index, expr, policy)]
        assert got == oracle_evaluate_full_depth(index, expr, "hard", 3)

    def test_soft_not_matches_full_depth_oracle(self):
        index = planted_six_doc_index()
        policy = MergePolicy(final_k=3, candidate_depth_factor=2, not_mode="soft")
        expr = Not(Or(Atom("apple"), Atom("fruit")), Atom("pie"))
        got = [(d.doc_id, d.score) for d in evaluate_expr(index, expr, policy)]
        assert got == oracle_evaluate_full_depth(index, expr, "soft", 3)

    def test_deterministic(self):
        index = planted_six_doc_index("cosine")
        policy = MergePolicy(final_k=4)
        expr = Or(Atom("apple pie"), Atom("banana"))
        assert evaluate_expr(index, expr, policy) == evaluate_expr(index, expr, policy)

    def test_normalize_switch_rescales_per_list(self):
        index = planted_six_doc_index()
        expr = Atom("apple")
        plain = evaluate_expr(index, expr, MergePolicy(final_k=6))
        scaled = evaluate_expr(index, expr, MergePolicy(final_k=6, normalize=True))
        assert plain.ids == scaled.ids
        assert max(item.score for item in scaled) == pytest.approx(1.0)

    def test_normalize_orders_scores_that_round_together_by_id(self):
        # c > b before scaling; both scale to the same float, so b goes first
        ranked = RankedList([
            ScoredDoc("a", 74.04306419997323),
            ScoredDoc("c", 40.73831917454259),
            ScoredDoc("b", 40.73831917454258),
            ScoredDoc("z", 1.066357757671799),
        ])
        scaled = _min_max_normalize(ranked)
        assert scaled.ids == ("a", "b", "c", "z")
        scores = dict(scaled.items)
        assert scores["b"] == scores["c"]
        assert (scores["a"], scores["z"]) == (1.0, 0.0)

    def test_normalize_range_that_overflows_is_rejected(self):
        # 1e308 - -1e308 is inf, so the top score scales to inf / inf, a NaN
        ranked = RankedList.from_scores([("a", 1e308), ("b", -1e308)])
        with pytest.raises(BoolSearchError, match="non-finite score for doc 'a'"):
            _min_max_normalize(ranked)

    def test_normalize_subtracts_the_minimum_not_the_last_score(self):
        # min is the first 0.0, not the last item's -0.0, so c stays -0.0
        pairs = [("a", 5.0), ("b", 0.0), ("c", -0.0)]
        got = ranked_outcome(lambda: _min_max_normalize(RankedList.from_scores(pairs)))
        assert got == [("a", "1.0"), ("b", "0.0"), ("c", "-0.0")]
        assert got == ranked_outcome(
            lambda: oracle_min_max_normalize(OracleRankedList.from_scores(pairs))
        )

    def test_whole_query_delegates_to_top_k(self):
        index = planted_six_doc_index()
        assert whole_query_retrieve(index, "apple pie", 4) == top_k(index, "apple pie", 4)

    def test_policy_validation(self):
        with pytest.raises(BoolSearchError):
            MergePolicy(final_k=0)
        with pytest.raises(BoolSearchError):
            MergePolicy(candidate_depth_factor=0)
        with pytest.raises(BoolSearchError):
            MergePolicy(not_mode="maybe")


class TestDecompose:
    def test_replayed_model_transcript(self):
        client = ChatClient(
            model="test-decomposer",
            mode="replay",
            cassette_path=FIXTURES / "decompose_cassette.jsonl",
        )
        expr = decompose_question(
            "What causes upper abdomen pain but is unrelated to liver issues?",
            client,
        )
        assert expr == Not(
            Atom("What causes upper abdomen pain?"),
            Atom("What relates to liver issues?"),
        )

    def test_no_connective_yields_single_atom(self):
        assert fallback_decompose("What flower symbolizes endurance?") == Atom(
            "What flower symbolizes endurance"
        )

    @staticmethod
    def replay_client(tmp_path, question, response):
        """A chat client whose cassette answers the decomposer with response."""
        messages = [
            {"role": "system", "content": DECOMPOSER_SYSTEM},
            {"role": "user", "content": f"Question: {question}"},
        ]
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_text(
            json.dumps({"request_hash": request_hash("m", messages), "response": response})
            + "\n"
        )
        return ChatClient(model="m", mode="replay", cassette_path=cassette)

    def test_malformed_model_output_falls_back(self, tmp_path):
        client = self.replay_client(tmp_path, "cats and dogs", 'not ((( a valid "expr')
        assert decompose_question("cats and dogs", client) == And(Atom("cats"), Atom("dogs"))

    def test_too_deep_model_output_falls_back(self, tmp_path):
        reply = " OR ".join(['"cats"'] * 1500)
        client = self.replay_client(tmp_path, "cats and dogs", reply)
        assert decompose_question("cats and dogs", client) == And(Atom("cats"), Atom("dogs"))

    def test_fallback_splits_or_and_not(self):
        assert fallback_decompose("a and b and c") == And(
            And(Atom("a"), Atom("b")), Atom("c")
        )
        assert fallback_decompose("alpha or beta?") == Or(Atom("alpha"), Atom("beta"))
        expr = fallback_decompose("What causes X but is unrelated to Y?")
        assert expr == Not(Atom("What causes X"), Atom("Y"))

    def test_fallback_splits_text_whose_lowercase_is_longer(self):
        # "İ" lowers to two characters, so offsets found in the lowercase
        # would cut the fragments short
        assert fallback_decompose("İstanbul hotels or Ankara hotels?") == Or(
            Atom("İstanbul hotels"), Atom("Ankara hotels")
        )
        assert fallback_decompose("İİ cats but not dogs") == Not(Atom("İİ cats"), Atom("dogs"))
        assert fallback_decompose("Cats AND dogs But Not birds") == Not(
            Atom("Cats AND dogs"), Atom("birds")
        )

    def test_fallback_connectives_are_bounded(self):
        expr = fallback_decompose(" or ".join(["cats"] * (MAX_EXPR_DEPTH + 1)))
        assert len(atoms(expr)) == MAX_EXPR_DEPTH + 1
        with pytest.raises(DecompositionError, match="more than 100 'or' connectives"):
            fallback_decompose(" or ".join(["cats"] * (MAX_EXPR_DEPTH + 2)))
        with pytest.raises(DecompositionError, match="more than 100 'and' connectives"):
            fallback_decompose(" AND ".join(["cats"] * (MAX_EXPR_DEPTH + 2)))
        with pytest.raises(DecompositionError, match="more than"):
            fallback_decompose(" or ".join(["cats"] * 1500))

    def test_unparseable_after_fallback(self):
        # the right-hand fragment strips to nothing
        with pytest.raises(DecompositionError):
            fallback_decompose("cats and ?")
