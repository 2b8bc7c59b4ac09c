import json

import pytest

from boolsearch.data import (
    Corpus,
    Judgment,
    Passage,
    QuestionType,
    atomic_write,
    compute_stats,
    load_corpus,
    load_judgments,
    question_category,
    render_stats,
    save_judgments,
)
from boolsearch.chat import ChatClient
from boolsearch.cli import load_config
from boolsearch.errors import (
    BoolSearchError,
    ChatError,
    CorpusFormatError,
    GenerationError,
    JudgmentFormatError,
    RunFormatError,
)
from boolsearch.generate import (
    Cluster,
    GeneratedQuestion,
    load_clusters,
    load_questions,
    save_clusters,
    save_questions,
)
from boolsearch.index import RankedList, ScoredDoc
from boolsearch.metrics import load_run, save_run

from _planted import marco_replica_judgments, save_corpus


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


BAD = "bad\ud800"  # a lone surrogate: no UTF-8 encoding, so writing it fails


def _question(qid, text):
    return GeneratedQuestion(qid, QuestionType.AND, text, 0, ("p1",),
                             frozenset({"p1"}), frozenset())


class TestAtomicWrite:
    def test_exception_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as f:
                f.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")
        with atomic_write(path, "wb") as f:
            f.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "save, good, bad",
        [
            (save_corpus, Corpus([Passage("p1", "a")]),
             Corpus([Passage("p1", "a"), Passage("p2", BAD)])),
            (save_judgments,
             [Judgment("q1", "a?", QuestionType.AND, frozenset({"p1"}), frozenset())],
             [Judgment("q1", "a?", QuestionType.AND, frozenset({"p1"}), frozenset()),
              Judgment("q2", BAD, QuestionType.AND, frozenset({"p1"}), frozenset())]),
            (save_questions, [_question("q1", "a?")],
             [_question("q1", "a?"), _question("q2", BAD)]),
            (save_clusters, [Cluster(0, ("p1",))], [Cluster(0, (object(),))]),
            (save_run, {"q1": RankedList([ScoredDoc("p1", 1.0)])},
             {"q1": RankedList([ScoredDoc("p1", 1.0)]),
              "q2": RankedList([ScoredDoc(BAD, 1.0)])}),
        ],
        ids=["corpus", "judgments", "questions", "clusters", "run"],
    )
    def test_failed_save_keeps_previous_file(self, tmp_path, save, good, bad):
        path = tmp_path / "out"
        save(good, path)
        before = path.read_bytes()
        with pytest.raises((UnicodeEncodeError, TypeError)):
            save(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestLoadCorpus:
    def test_jsonl_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"id":"p1","text":"a"}', '{"id":"p2","text":"b"}'])
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.ids == ("p1", "p2")
        assert corpus["p2"].text == "b"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path)) == 0

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"id":"p1","text":"a"}', '{"id":"p1","text":"b"}'])
        with pytest.raises(CorpusFormatError, match=":2: .*p1"):
            load_corpus(path)
        # a blank line counts as a line, and the first id repeated names the
        # line of its second occurrence, not of a later duplicate
        write_lines(path, ["p0\ta", "", "p1\tb", "p0\tc", "p1\td"])
        with pytest.raises(CorpusFormatError, match=r"corpus\.jsonl:4: .*'p0'"):
            load_corpus(path)

    def test_tab_separated_records(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        write_lines(path, ["p1\talpha beta", "p2\tgamma"])
        corpus = load_corpus(path)
        assert corpus["p1"].text == "alpha beta"

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"id":"p1","text":"a"}', '{"id": broken'])
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"id":"p1","text":""}'])
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_order_is_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        ids = [f"p{i}" for i in range(20)]
        write_lines(path, [json.dumps({"id": i, "text": "x"}) for i in ids])
        assert list(load_corpus(path).ids) == ids


class TestCorpusColumns:
    """A corpus keeps ids and texts as two columns and builds a Passage
    when one is asked for."""

    def test_iteration_and_lookup_yield_equal_passages(self, tmp_path):
        passages = [Passage("p1", "alpha"), Passage("p\x00", "\u0130 b"), Passage("7", "c")]
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"id": p.id, "text": p.text}) for p in passages])
        for corpus in (Corpus(passages), load_corpus(path)):
            assert list(corpus) == passages
            assert [corpus[p.id] for p in passages] == passages
            assert corpus.ids == tuple(p.id for p in passages)
            assert corpus.texts == tuple(p.text for p in passages)
            assert "p1" in corpus and "p" not in corpus
            with pytest.raises(KeyError):
                corpus["p"]

    def test_columns_are_read_only_tuples(self):
        corpus = Corpus([Passage("p1", "alpha"), Passage("p2", "beta")])
        assert type(corpus.ids) is tuple and type(corpus.texts) is tuple
        for name in ("ids", "texts"):
            with pytest.raises(AttributeError):
                setattr(corpus, name, ())

    def test_duplicate_passages_refused(self):
        with pytest.raises(CorpusFormatError, match="^duplicate passage id 'a'$"):
            Corpus([Passage("a", "x"), Passage("b", "y"), Passage("a", "z"), Passage("b", "w")])

    @pytest.mark.parametrize("lines, message", [
        (['{"id": "", "text": "x"}'], "1: passage id must be non-empty"),
        (["\tx"], "1: passage id must be non-empty"),
        (['{"id": "a", "text": ""}'], "1: passage 'a' has empty text"),
        (["a\t"], "1: passage 'a' has empty text"),
        (['{"id": "a", "text": "x"}', "", '{"id": "b", "text": "y"}', "b\tz"],
         "4: duplicate passage id 'b'"),
        (['{"id": "a", "text": '], "1: invalid JSON: Expecting value: line 1 column 21 (char 20)"),
        (['{"id": "a", "text": "x"} {}'],
         "1: invalid JSON: Extra data: line 1 column 26 (char 25)"),
        # U+00A0 is whitespace to str.lstrip but not to JSON
        (['\u00a0{"id": "a", "text": "x"}'],
         "1: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (['{"id": ' + "[" * 100_000],
         "1: invalid JSON: maximum recursion depth exceeded while decoding a JSON "
         "array from a unicode string"),
        (['\ufeff{"id": "a", "text": "x"}'],
         "1: expected JSON object or 2 tab-separated columns, got 1 column(s)"),
    ], ids=["empty-id", "tsv-empty-id", "empty-text", "tsv-empty-text", "duplicate",
            "bad-json", "extra-data", "nbsp-led", "nested-too-deep", "bom-led"])
    def test_load_error_text(self, tmp_path, lines, message):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, lines)
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:{message}"

    def test_json_whitespace_around_a_record_is_read(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(' \t{"id": "a", "text": "x"} \r\n{"id": 7, "text": "y"}\t\n',
                        encoding="utf-8")
        assert load_corpus(path).ids == ("a", "7")


class TestLoadJudgments:
    def test_valid_not_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [json.dumps({
            "question_id": "q1", "question": "what is a?", "qtype": "NOT",
            "positives": ["p1"], "negatives": ["p2"],
        })])
        (judgment,) = load_judgments(path)
        assert judgment.qtype is QuestionType.NOT
        assert judgment.positives == {"p1"}

    def test_positive_negative_overlap_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [json.dumps({
            "question_id": "q1", "question": "x", "qtype": "NOT",
            "positives": ["p1"], "negatives": ["p1"],
        })])
        with pytest.raises(JudgmentFormatError, match="both positive and negative"):
            load_judgments(path)

    def test_unknown_qtype_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [json.dumps({
            "question_id": "q1", "question": "x", "qtype": "XOR",
            "positives": ["p1"], "negatives": [],
        })])
        with pytest.raises(JudgmentFormatError, match="XOR"):
            load_judgments(path)

    def test_missing_field_is_schema_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [json.dumps({"question_id": "q1", "qtype": "AND"})])
        with pytest.raises(JudgmentFormatError, match="missing fields"):
            load_judgments(path)

    def test_empty_positives_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [json.dumps({
            "question_id": "q1", "question": "x", "qtype": "OR",
            "positives": [], "negatives": ["p1"],
        })])
        with pytest.raises(JudgmentFormatError, match="no positive"):
            load_judgments(path)

    def test_ids_checked_against_corpus(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [json.dumps({
            "question_id": "q1", "question": "x", "qtype": "AND",
            "positives": ["ghost"], "negatives": [],
        })])
        corpus = Corpus([Passage("p1", "a")])
        with pytest.raises(JudgmentFormatError, match="ghost"):
            load_judgments(path, corpus)

    def test_round_trip_identity(self, tmp_path):
        judgments = [
            Judgment("q1", "what is a?", QuestionType.AND,
                     frozenset({"p1"}), frozenset({"p2", "p3"})),
            Judgment("q2", "is b or c?", QuestionType.OR,
                     frozenset({"p2", "p4"}), frozenset()),
        ]
        path = tmp_path / "j.jsonl"
        save_judgments(judgments, path)
        assert load_judgments(path) == judgments


JUDGMENT = {"question_id": "q1", "question": "a?", "qtype": "AND",
            "positives": ["p1"], "negatives": []}
RUN_ITEM = {"doc_id": "p1", "score": 0.5}


class TestLoaderFieldTypes:
    @pytest.mark.parametrize("load, error, record, message", [
        (load_corpus, CorpusFormatError, {"id": None, "text": "x"},
         "id must be a string or an integer, got NoneType"),
        (load_corpus, CorpusFormatError, {"id": True, "text": "x"},
         "id must be a string or an integer, got bool"),
        (load_corpus, CorpusFormatError, {"id": ["a"], "text": "x"},
         "id must be a string or an integer, got list"),
        (load_corpus, CorpusFormatError, {"id": 1.5, "text": "x"},
         "id must be a string or an integer, got float"),
        (load_corpus, CorpusFormatError, {"id": "p1", "text": None},
         "text must be a string, got NoneType"),
        (load_corpus, CorpusFormatError, {"id": "p1", "text": 7},
         "text must be a string, got int"),
        (load_judgments, JudgmentFormatError, {**JUDGMENT, "question_id": None},
         "question_id must be a string or an integer, got NoneType"),
        (load_judgments, JudgmentFormatError, {**JUDGMENT, "question": ["a?"]},
         "question must be a string, got list"),
        (load_judgments, JudgmentFormatError, {**JUDGMENT, "positives": [False]},
         "a positives entry must be a string or an integer, got bool"),
        (load_judgments, JudgmentFormatError, {**JUDGMENT, "negatives": [None]},
         "a negatives entry must be a string or an integer, got NoneType"),
        (load_run, RunFormatError,
         {"question_id": "q1", "items": [{"doc_id": None, "score": 0.5}]},
         "doc_id must be a string or an integer, got NoneType"),
        (load_run, RunFormatError,
         {"question_id": "q1", "items": [{"doc_id": True, "score": 0.5}]},
         "doc_id must be a string or an integer, got bool"),
        (load_run, RunFormatError,
         {"question_id": "q1", "items": [{"doc_id": "p1", "score": "0.5"}]},
         "score must be a number, got str"),
        (load_run, RunFormatError,
         {"question_id": "q1", "items": [{"doc_id": "p1", "score": False}]},
         "score must be a number, got bool"),
        (load_run, RunFormatError, {"question_id": 1, "items": [RUN_ITEM]},
         "question_id must be a string, got int"),
    ])
    def test_wrong_type_names_path_and_line(self, tmp_path, load, error, record, message):
        path = tmp_path / "input.jsonl"
        write_lines(path, [json.dumps(record)])
        with pytest.raises(error) as err:
            load(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_integer_ids_read_as_decimal_strings(self, tmp_path):
        path = tmp_path / "input.jsonl"
        write_lines(path, [json.dumps({"id": 7, "text": "seven"})])
        assert list(load_corpus(path)) == [Passage("7", "seven")]
        write_lines(path, [json.dumps({**JUDGMENT, "question_id": 3, "positives": [7, "p2"],
                                       "negatives": [-8]})])
        assert load_judgments(path) == [Judgment(
            "3", "a?", QuestionType.AND, frozenset({"7", "p2"}), frozenset({"-8"}))]
        write_lines(path, [json.dumps({"question_id": "q1", "items": [
            {"doc_id": 7, "score": 2}, {"doc_id": "p1", "score": 0.5}]})])
        run = load_run(path)
        assert run == {"q1": RankedList([ScoredDoc("7", 2.0), ScoredDoc("p1", 0.5)])}
        assert [type(score) for score in run["q1"].scores] == [float, float]

    def test_question_without_token_groups(self, tmp_path):
        path = tmp_path / "input.jsonl"
        write_lines(path, [json.dumps({
            "question_id": "q1", "qtype": "AND", "text": "a?", "source_cluster": 0,
            "candidate_ids": ["p1"], "positives": ["p1"], "negatives": [],
            "provenance": "chat-model", "filtered": False,
        })])
        (question,) = load_questions(path)
        assert question.answer_token_groups == ()
        assert (question.source_cluster, question.filtered) == (0, False)


class TestWriterBytes:
    """Every record writer's exact bytes on one fixture: non-ASCII text,
    integer-like ids, a null expression, empty negatives, a chat question
    with no token groups, and the scores -0.0, 1e-300 and 2.5."""

    JUDGMENTS = [
        Judgment("q-ü", "was ist ü? 日本", QuestionType.NOT,
                 frozenset({"7", "p2"}), frozenset({"10"})),
        Judgment("42", "is a?", QuestionType.SIMPLE, frozenset({"p2"})),
    ]
    QUESTIONS = [
        GeneratedQuestion("q-ü", QuestionType.NOT, "was ist ü? 日本", 3, ("7", "p2", "10"),
                          frozenset({"7", "p2"}), frozenset({"10"}),
                          expression='"ü 7" NOT "10"',
                          answer_token_groups=(("ü", "7"), ("p2",))),
        GeneratedQuestion("42", QuestionType.SIMPLE, "is a?", 0, ("p2",),
                          frozenset({"p2"}), frozenset(), provenance="chat-model",
                          filtered=True),
    ]
    CLUSTERS = [Cluster(0, ("7", "p2")), Cluster(3, ("10", "é"))]
    RUN = {"q-ü": RankedList([("10", 2.5), ("7", 1e-300), ("é", -0.0)]),
           "42": RankedList(())}

    FILES = {
        "judgments": (
            save_judgments, load_judgments, JUDGMENTS,
            '{"question_id": "q-ü", "question": "was ist ü? 日本", "qtype": "NOT", '
            '"positives": ["7", "p2"], "negatives": ["10"]}\n'
            '{"question_id": "42", "question": "is a?", "qtype": "SIMPLE", '
            '"positives": ["p2"], "negatives": []}\n'),
        "questions": (
            save_questions, load_questions, QUESTIONS,
            '{"question_id": "q-ü", "qtype": "NOT", "text": "was ist ü? 日本", '
            '"source_cluster": 3, "candidate_ids": ["7", "p2", "10"], '
            '"positives": ["7", "p2"], "negatives": ["10"], "provenance": "template", '
            '"filtered": false, "expression": "\\"ü 7\\" NOT \\"10\\"", '
            '"answer_token_groups": [["ü", "7"], ["p2"]]}\n'
            '{"question_id": "42", "qtype": "SIMPLE", "text": "is a?", "source_cluster": 0, '
            '"candidate_ids": ["p2"], "positives": ["p2"], "negatives": [], '
            '"provenance": "chat-model", "filtered": true, "expression": null, '
            '"answer_token_groups": []}\n'),
        "clusters": (
            save_clusters, load_clusters, CLUSTERS,
            '[\n  {\n    "cluster_id": 0,\n    "passage_ids": [\n      "7",\n      "p2"\n'
            '    ]\n  },\n  {\n    "cluster_id": 3,\n    "passage_ids": [\n      "10",\n'
            '      "\\u00e9"\n    ]\n  }\n]'),
        "run": (
            save_run, load_run, RUN,
            '{"question_id": "q-ü", "items": [{"doc_id": "10", "score": 2.5}, '
            '{"doc_id": "7", "score": 1e-300}, {"doc_id": "é", "score": -0.0}]}\n'
            '{"question_id": "42", "items": []}\n'),
    }

    @pytest.mark.parametrize("name", FILES)
    def test_exact_bytes_and_round_trip(self, tmp_path, name):
        save, load, value, text = self.FILES[name]
        path = tmp_path / name
        save(value, path)
        assert path.read_bytes() == text.encode("utf-8")
        assert load(path) == value


class TestComputeStats:
    def test_single_and_question(self):
        stats = compute_stats([
            Judgment("q1", "what is a?", QuestionType.AND,
                     frozenset({"p1"}), frozenset({"p2"}))
        ])
        s = stats.per_type[QuestionType.AND]
        assert s.n_questions == 1
        assert s.avg_positives == pytest.approx(1.0)
        assert s.avg_negatives == pytest.approx(1.0)
        assert stats.overall.n_questions == 1

    def test_or_mean_positives(self):
        stats = compute_stats([
            Judgment("q1", "a or b?", QuestionType.OR,
                     frozenset({"p1", "p2"}), frozenset()),
            Judgment("q2", "c or d?", QuestionType.OR,
                     frozenset({"p3"}), frozenset()),
        ])
        assert stats.per_type[QuestionType.OR].avg_positives == pytest.approx(1.5)

    def test_permutation_invariance(self):
        judgments = marco_replica_judgments()
        shuffled = list(reversed(judgments))
        assert compute_stats(judgments) == compute_stats(shuffled)

    def test_empty_input_all_zero(self):
        stats = compute_stats([])
        assert stats.overall.n_questions == 0
        assert all(s.n_questions == 0 for s in stats.per_type.values())

    def test_avg_positives_at_least_one(self):
        # positives are required non-empty, so every mean is >= 1
        stats = compute_stats(marco_replica_judgments())
        for s in stats.per_type.values():
            if s.n_questions:
                assert s.avg_positives >= 1.0

    def test_category_buckets(self):
        def judge(qid, question):
            return Judgment(qid, question, QuestionType.SIMPLE,
                            frozenset({"p1"}), frozenset())

        stats = compute_stats([
            judge("q1", "What is calcium?"),
            judge("q2", "did the vote pass?"),
            judge("q3", "What's the plan?"),
            judge("q4", "Name three rivers."),
            judge("q5", "HOW does it work?"),
        ])
        assert stats.categories == {"did": 1, "how": 1, "other": 2, "what": 1}

    def test_category_of_leading_token(self):
        assert question_category("Where is it?") == "where"
        assert question_category("whatever you say") == "other"
        assert question_category("") == "other"

    def test_marco_replica_matches_published_marginals(self):
        stats = compute_stats(marco_replica_judgments())
        a = stats.per_type[QuestionType.AND]
        assert a.n_questions == 354
        assert a.avg_positives == pytest.approx(1.00, abs=0.005)
        assert a.avg_negatives == pytest.approx(0.94, abs=0.005)
        o = stats.per_type[QuestionType.OR]
        assert (o.n_questions, round(o.avg_positives, 2)) == (469, 1.58)
        n = stats.per_type[QuestionType.NOT]
        assert (n.n_questions, round(n.avg_positives, 2)) == (328, 1.13)
        assert stats.overall.n_questions == 1151
        assert stats.overall.avg_positives == pytest.approx(1.27, abs=0.005)
        assert stats.overall.avg_negatives == pytest.approx(0.63, abs=0.005)


class TestRenderStats:
    def test_table_contains_counts(self):
        text = render_stats(compute_stats(marco_replica_judgments()))
        assert "354" in text and "AND" in text

    def test_json_is_parseable(self):
        payload = json.loads(
            render_stats(compute_stats(marco_replica_judgments()), fmt="json")
        )
        assert payload["per_type"]["AND"]["n_questions"] == 354

    def test_unknown_format(self):
        with pytest.raises(BoolSearchError, match="'yaml'"):
            render_stats(compute_stats([]), fmt="yaml")


def _replay_client(path):
    return ChatClient(model="m", mode="replay", cassette_path=path)


class TestNonUtf8Input:
    """A line that is not UTF-8 raises the loader's own error naming
    path:line, wherever the decoder's block boundary falls."""

    LOADERS = [
        (load_corpus, CorpusFormatError),
        (load_judgments, JudgmentFormatError),
        (load_questions, GenerationError),
        (load_run, RunFormatError),
        (_replay_client, ChatError),
        (load_config, BoolSearchError),
    ]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("blank_lines", [0, 3, 20_000])
    @pytest.mark.parametrize("loader,error", LOADERS)
    def test_names_the_line(self, tmp_path, loader, error, blank_lines, newline):
        # every loader skips blank lines, so the bad line is the first record
        path = tmp_path / "input.jsonl"
        path.write_bytes(newline * blank_lines + b"\xff\xfe{}" + newline + b"x" + newline)
        with pytest.raises(error, match=f"{path}:{blank_lines + 1}: not UTF-8") as info:
            loader(path)
        assert type(info.value) is error

    def test_truncated_sequence_at_end_of_file(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes("p1\tcaf\u00e9\np2\tcaf".encode() + b"\xc3")
        with pytest.raises(CorpusFormatError, match=f"{path}:2: not UTF-8"):
            load_corpus(path)


class TestRecordErrors:
    """The four JSON Lines loaders share one reader, so a bad line reads the
    same in each: path:line, then what is wrong with it."""

    LOADERS = {
        "judgments": (load_judgments, JudgmentFormatError),
        "run": (load_run, RunFormatError),
        "questions": (load_questions, GenerationError),
        "cassette": (_replay_client, ChatError),
    }
    MISSING = {
        "judgments": "record is missing fields "
                     "['question_id', 'question', 'qtype', 'positives', 'negatives']",
        "run": "missing field 'question_id'",
        "questions": "missing field 'question_id'",
        "cassette": "missing field 'request_hash'",
    }

    @pytest.mark.parametrize("line, message", [
        ("{bad", "invalid JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)"),
        ("[1, 2]", "record must be an object, got list"),
        ('"text"', "record must be an object, got str"),
        ("null", "record must be an object, got NoneType"),
        ("{}", None),
    ])
    @pytest.mark.parametrize("name", LOADERS)
    def test_bad_line(self, tmp_path, name, line, message):
        load, error = self.LOADERS[name]
        path = tmp_path / "input.jsonl"
        write_lines(path, ["", line])
        with pytest.raises(error) as info:
            load(path)
        assert type(info.value) is error
        assert str(info.value) == f"{path}:2: {message or self.MISSING[name]}"

    def test_question_type_names_path_and_line(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        save_questions([_question("q1", "a?")], path)
        record = json.loads(path.read_text(encoding="utf-8"))
        write_lines(path, [json.dumps({**record, "qtype": "XOR"})])
        with pytest.raises(GenerationError) as info:
            load_questions(path)
        assert str(info.value).startswith(f"{path}:1: unknown question type 'XOR'")
