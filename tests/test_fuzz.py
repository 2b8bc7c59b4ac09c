"""Fuzz targets: loaders and the query parser on arbitrary input.

Whatever the bytes or text, the only exceptions that may escape are
BoolSearchError subclasses, which the CLI turns into exit code 2.
"""

import functools
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boolsearch.data import Corpus, Passage, load_corpus, load_judgments
from boolsearch.embed import EmbedderSpec
from boolsearch.errors import BoolSearchError, IndexFormatError
from boolsearch.generate import load_clusters, load_questions
from boolsearch.index import Index, build_index, load_index, save_index
from boolsearch.metrics import load_run
from boolsearch.query import parse_boolean_query

from _planted import save_index_v1

FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def records(*fields):
    """JSON lines holding the loader's fields with values of any JSON type."""
    return st.fixed_dictionaries({}, optional={f: JSON_VALUES for f in fields}).map(json.dumps)


def lines(record_lines):
    """A file of arbitrary bytes, arbitrary text, or near-valid JSON lines."""
    any_line = st.one_of(record_lines, JSON_VALUES.map(json.dumps), st.text(max_size=40))
    text_lines = st.lists(any_line, max_size=6)
    return st.one_of(
        st.binary(max_size=300),
        text_lines.map(lambda ls: "\n".join(ls).encode("utf-8")),
    )


CORPUS_RECORDS = st.one_of(
    records("id", "text"),
    st.tuples(st.text(max_size=8), st.text(max_size=8)).map("\t".join),
)
JUDGMENT_RECORDS = st.one_of(
    records("question_id", "question", "qtype", "positives", "negatives"),
    st.fixed_dictionaries({
        "question_id": st.text(max_size=4),
        "question": st.text(max_size=8),
        "qtype": st.sampled_from(["AND", "OR", "NOT", "and", "XOR"]),
        "positives": st.lists(JSON_VALUES, max_size=3),
        "negatives": st.lists(JSON_VALUES, max_size=3),
    }).map(json.dumps),
)
RUN_RECORDS = st.one_of(
    records("question_id", "items"),
    st.fixed_dictionaries({
        "question_id": JSON_VALUES,
        "items": st.lists(
            st.fixed_dictionaries({"doc_id": JSON_VALUES, "score": JSON_VALUES}), max_size=3
        ),
    }).map(json.dumps),
)

QUESTION_FIELDS = ("question_id", "qtype", "text", "source_cluster", "candidate_ids",
                   "positives", "negatives", "provenance", "filtered")
QUESTION_RECORDS = st.one_of(
    records(*QUESTION_FIELDS, "expression", "answer_token_groups"),
    st.fixed_dictionaries({
        "question_id": st.text(max_size=4),
        "qtype": st.sampled_from(["AND", "OR", "NOT", "SIMPLE", "XOR"]),
        "text": JSON_VALUES,
        "source_cluster": JSON_VALUES,
        "candidate_ids": st.lists(JSON_VALUES, max_size=3),
        "positives": st.lists(JSON_VALUES, max_size=3),
        "negatives": st.lists(JSON_VALUES, max_size=3),
        "provenance": st.sampled_from(["template", "chat-model", "x"]),
        "filtered": JSON_VALUES,
    }, optional={"answer_token_groups": JSON_VALUES}).map(json.dumps),
)
CLUSTER_RECORDS = st.one_of(
    st.fixed_dictionaries({}, optional={"cluster_id": JSON_VALUES, "passage_ids": JSON_VALUES}),
    st.fixed_dictionaries({
        "cluster_id": st.one_of(st.integers(), JSON_VALUES),
        "passage_ids": st.lists(st.one_of(st.text(max_size=4), JSON_VALUES), max_size=3),
    }),
)

# integers json.loads will not read (more than 4,300 digits), and ones no
# float can hold
LONG_INT = b"1" * 4301
HUGE_INT = b"1" * 401


# a missing field is named as one, not by a bare KeyError text
BARE_KEY_ERROR = re.compile(r".*:\d+: '[^']*'", re.DOTALL)


def only_typed_errors(load, path, blob):
    """load(path) over blob; None if it raised a typed error."""
    path.write_bytes(blob)
    try:
        return load(path)
    except BoolSearchError as exc:
        assert not BARE_KEY_ERROR.fullmatch(str(exc))
        return None


def text_lines(blob: bytes) -> list[str]:
    """The non-blank lines of a file a loader accepted, split as text mode
    splits them."""
    text = blob.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return [line for line in text.split("\n") if line.strip()]


def is_id(value) -> bool:
    """A JSON value a loader reads as an id: a string or an integer."""
    return isinstance(value, str) or type(value) is int


DEEP = b"[" * 100_000  # json.loads raises RecursionError, not JSONDecodeError


@FUZZ
@given(blob=lines(CORPUS_RECORDS))
@example(blob=b'{"id": ' + DEEP)
@example(blob=b'{"id": ' + LONG_INT + b', "text": "x"}')
@example(blob=b'{"id": null, "text": null}')
@example(blob=b'{"id": true, "text": "x"}')
@example(blob=b'{"id": ["a"], "text": "x"}')
@example(blob=b'{"id": "a", "text": ["x"]}')
@example(blob=b'{"id": 7, "text": "x"}')
def test_load_corpus(tmp_path, blob):
    if only_typed_errors(load_corpus, tmp_path / "corpus.jsonl", blob) is None:
        return
    # no JSON value is turned into a string by str(): ids are strings or
    # integers, texts strings
    records = [json.loads(line) for line in text_lines(blob) if line.lstrip().startswith("{")]
    assert all(is_id(r["id"]) and isinstance(r["text"], str) for r in records)


@FUZZ
@given(blob=lines(JUDGMENT_RECORDS))
@example(blob=DEEP)
@example(blob=b"null")
@example(blob=b'{"question_id": ' + LONG_INT + b"}")
@example(blob=json.dumps({"question_id": None, "question": None, "qtype": "AND",
                          "positives": [None], "negatives": [True]}).encode("utf-8"))
@example(blob=json.dumps({"question_id": 3, "question": "q?", "qtype": "OR",
                          "positives": [[]], "negatives": []}).encode("utf-8"))
@example(blob=json.dumps({"question_id": 3, "question": "q?", "qtype": "OR",
                          "positives": [7], "negatives": ["a"]}).encode("utf-8"))
def test_load_judgments(tmp_path, blob):
    if only_typed_errors(load_judgments, tmp_path / "judgments.jsonl", blob) is None:
        return
    for r in map(json.loads, text_lines(blob)):
        assert is_id(r["question_id"]) and isinstance(r["question"], str)
        assert all(map(is_id, r["positives"] + r["negatives"]))


@FUZZ
@given(blob=lines(RUN_RECORDS))
@example(blob=DEEP)
@example(blob=b'{"question_id": [], "items": []}')
@example(blob=b'{"question_id": "q", "items": [{"doc_id": "d", "score": ' + HUGE_INT + b"}]}")
@example(blob=b'{"question_id": "q"}')
@example(blob=b'{"question_id": "q", "items": [{"doc_id": "d"}]}')
@example(blob=b'{"question_id": "q", "items": [{"doc_id": null, "score": "0.5"}]}')
@example(blob=b'{"question_id": "q", "items": [{"doc_id": true, "score": false}]}')
@example(blob=b'{"question_id": "q", "items": [{"doc_id": ["d"], "score": 1}]}')
@example(blob=b'{"question_id": "q", "items": [{"doc_id": 7, "score": 1}]}')
def test_load_run(tmp_path, blob):
    path = tmp_path / "run.jsonl"
    path.write_bytes(blob)
    try:
        load_run(path)
    except BoolSearchError as exc:
        assert not BARE_KEY_ERROR.fullmatch(str(exc))
        return
    items = [item for line in text_lines(blob) for item in json.loads(line)["items"]]
    assert all(is_id(item["doc_id"]) and type(item["score"]) in (int, float)
               for item in items)


@FUZZ
@given(blob=lines(QUESTION_RECORDS))
@example(blob=DEEP)
@example(blob=b'{"question_id": "q", "qtype": "AND", "text": "t", "source_cluster": 1e999}')
@example(blob=json.dumps({
    "question_id": "q", "qtype": "SIMPLE", "text": 5, "source_cluster": 0,
    "candidate_ids": ["a"], "positives": ["a"], "negatives": [],
    "provenance": "template", "filtered": True,
}).encode("utf-8"))
@example(blob=json.dumps({
    "question_id": "q", "qtype": "SIMPLE", "text": "t", "source_cluster": 0,
    "candidate_ids": ["a"], "positives": ["a"], "negatives": [],
    "provenance": "template", "filtered": False, "answer_token_groups": [[1, 2]],
}).encode("utf-8"))
@example(blob=b'{"question_id": "q"}')
@example(blob=b"[]")
def test_load_questions(tmp_path, blob):
    questions = only_typed_errors(load_questions, tmp_path / "questions.jsonl", blob)
    if questions is None:
        return
    # the text is lowercased and tokenized downstream: always a string
    assert all(isinstance(q.text, str) and isinstance(q.question_id, str) for q in questions)
    # passage ids are looked up in a corpus, whose ids are strings
    assert all(type(pid) is str for q in questions
               for pid in (*q.candidate_ids, *q.positives, *q.negatives))
    # no JSON value is cast: a flag is a boolean, a cluster an integer, a
    # token group a tuple of strings
    assert all(type(q.filtered) is bool and type(q.source_cluster) is int for q in questions)
    assert all(type(group) is tuple and all(type(token) is str for token in group)
               for q in questions for group in q.answer_token_groups)


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=300),
    st.lists(CLUSTER_RECORDS, max_size=4).map(lambda c: json.dumps(c).encode("utf-8")),
))
@example(blob=DEEP)
@example(blob=b'[{"cluster_id": "x", "passage_ids": ["a"]}]')
@example(blob=b'[{"cluster_id": 1.5, "passage_ids": ["a"]}]')
@example(blob=b'[{"cluster_id": -3, "passage_ids": ["a"]}]')
@example(blob=b'[{"cluster_id": true, "passage_ids": ["a"]}]')
def test_load_clusters(tmp_path, blob):
    path = tmp_path / "clusters.json"
    path.write_bytes(blob)
    try:
        clusters = load_clusters(path)
    except BoolSearchError:
        return
    # a cluster id names question ids and seeds sampling: a non-negative int
    assert all(type(c.cluster_id) is int and c.cluster_id >= 0 for c in clusters)
    assert all(type(pid) is str for c in clusters for pid in c.passage_ids)


QUERY_PIECES = st.sampled_from(['"', "(", ")", " AND ", " OR ", " NOT ", "AND", "x", " ", "\\"])


@FUZZ
@given(text=st.one_of(st.text(), st.lists(QUERY_PIECES, max_size=12).map("".join)))
def test_parse_boolean_query(text):
    try:
        parse_boolean_query(text)
    except BoolSearchError:
        pass


@functools.cache
def index_files() -> tuple[bytes, ...]:
    """Small valid index files: format versions 1 and 2, dot and cosine."""
    spec = EmbedderSpec(kind="hashed-bow", dim=8, normalize=False, seed=3)
    corpus = Corpus([Passage("a", "alpha beta"), Passage("b\u00e9", "gamma"),
                     Passage("c", "delta delta")])
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.idx"
        for similarity in ("dot", "cosine"):
            for save in (save_index_v1, save_index):
                save(build_index(corpus, spec, similarity), path)
                blobs.append(path.read_bytes())
    return tuple(blobs)


def mutated(args) -> bytes:
    which, at, value = args
    blob = index_files()[which]
    at %= len(blob)
    return blob[:at] + bytes([value]) + blob[at + 1 :]


def truncated(args) -> bytes:
    which, size = args
    blob = index_files()[which]
    return blob[: size % len(blob)]


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda tail: b"BDIX" + tail),
    st.tuples(st.integers(0, 3), st.integers(min_value=0), st.integers(0, 255)).map(mutated),
    st.tuples(st.integers(0, 3), st.integers(min_value=0)).map(truncated),
))
def test_load_index(tmp_path, blob):
    path = tmp_path / "x.idx"
    path.write_bytes(blob)
    try:
        index = load_index(path)
    except IndexFormatError:
        return
    assert isinstance(index, Index) and not index.matrix.flags.writeable
