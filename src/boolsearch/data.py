"""Core data types, dataset file I/O, and dataset statistics.

Corpus files are JSON Lines ({"id": ..., "text": ...}) or two-column
tab-separated records; judgment files are JSON Lines with question_id,
question, qtype, positives, negatives. All types are immutable after
construction and safe to share across threads. Every save_* function of
the package writes through atomic_write.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import BoolSearchError, CorpusFormatError, JudgmentFormatError


class QuestionType(str, Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    SIMPLE = "SIMPLE"
    DISJUNCTIVE = "DISJUNCTIVE"

    @classmethod
    def parse(cls, value: str) -> "QuestionType":
        try:
            return cls(value)
        except ValueError:
            raise JudgmentFormatError(
                f"unknown question type {value!r}; expected one of "
                f"{[t.value for t in cls]}"
            ) from None


@dataclass(frozen=True)
class Passage:
    """One searchable text unit with a corpus-unique id."""

    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise CorpusFormatError("passage id must be non-empty")
        if not self.text:
            raise CorpusFormatError(f"passage {self.id!r} has empty text")


class Corpus:
    """Ordered, id-unique collection of passages."""

    def __init__(self, passages: Iterable[Passage]):
        self._passages = tuple(passages)
        self._by_id: dict[str, Passage] = {}
        for p in self._passages:
            if p.id in self._by_id:
                raise CorpusFormatError(f"duplicate passage id {p.id!r}")
            self._by_id[p.id] = p

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._passages)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id

    def __getitem__(self, passage_id: str) -> Passage:
        return self._by_id[passage_id]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self._passages)

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(p.text for p in self._passages)


@dataclass(frozen=True)
class Judgment:
    """Per-question relevance labels: positives plus explicit negatives."""

    question_id: str
    question: str
    qtype: QuestionType
    positives: frozenset[str]
    negatives: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.question_id:
            raise JudgmentFormatError("question_id must be non-empty")
        if not self.positives:
            raise JudgmentFormatError(
                f"question {self.question_id!r} has no positive passages"
            )
        overlap = self.positives & self.negatives
        if overlap:
            raise JudgmentFormatError(
                f"question {self.question_id!r} labels {sorted(overlap)} as "
                "both positive and negative"
            )


# Buckets for the leading-interrogative-token histogram. The first
# whitespace token of the lowercased question must match exactly;
# anything else lands in "other".
CATEGORY_TOKENS = (
    "what", "how", "who", "where", "when", "why",
    "is", "are", "did", "do", "does", "can",
)


def question_category(question: str) -> str:
    words = question.lower().split()
    if words and words[0] in CATEGORY_TOKENS:
        return words[0]
    return "other"


@dataclass(frozen=True)
class TypeStats:
    n_questions: int
    avg_positives: float
    avg_negatives: float


@dataclass(frozen=True)
class DatasetStats:
    """Question counts, label means, and the category histogram."""

    overall: TypeStats
    per_type: Mapping[QuestionType, TypeStats]
    categories: Mapping[str, int]

    def __post_init__(self):
        total = sum(s.n_questions for s in self.per_type.values())
        if total != self.overall.n_questions:
            raise ValueError("per-type counts do not sum to overall count")


def read_lines(
    path: str | Path, error: type[BoolSearchError]
) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) of a UTF-8 text file.

    Bytes that are not UTF-8 raise `error` naming path:line.
    """
    with open(path, encoding="utf-8") as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError as exc:
            # the decoder works in blocks; a second, binary read finds the line
            with open(path, "rb") as raw:
                lines = raw.read().splitlines()
            lineno = next(n for n, line in enumerate(lines, start=1) if not _is_utf8(line))
            raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _is_utf8(line: bytes) -> bool:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file: JSONL objects or 2-column TSV, one per line.

    Blank lines are skipped. Raises CorpusFormatError with the 1-based
    line number on malformed records and on duplicate ids.
    """
    passages, linenos = [], []
    for lineno, line in read_lines(path, CorpusFormatError):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        try:
            passages.append(_parse_corpus_line(line))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    try:
        return Corpus(passages)  # the one check of the ids
    except CorpusFormatError as exc:  # a duplicate id: name its second line
        first: dict[str, int] = {}
        at = next(i for i, p in enumerate(passages) if first.setdefault(p.id, i) != i)
        raise CorpusFormatError(f"{path}:{linenos[at]}: {exc}") from None


def _parse_corpus_line(line: str) -> Passage:
    if line.lstrip().startswith("{"):
        try:
            record = json.loads(line)
        # ValueError covers JSONDecodeError and integers too long to read;
        # RecursionError, JSON nested too deeply
        except (ValueError, RecursionError) as exc:
            raise CorpusFormatError(f"invalid JSON: {exc}") from None
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise CorpusFormatError('JSON record must have "id" and "text"')
        return Passage(id=str(record["id"]), text=str(record["text"]))
    columns = line.split("\t")
    if len(columns) != 2:
        raise CorpusFormatError(
            f"expected JSON object or 2 tab-separated columns, got "
            f"{len(columns)} column(s)"
        )
    return Passage(id=columns[0], text=columns[1])


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a fresh temp file beside path and move it over path with
    os.replace only once the block completes, so path holds either its
    previous contents or the complete new ones. mode is "w" (UTF-8 text)
    or "wb"."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        # "x" (exclusive create) never reuses a file another writer holds
        encoding = None if "b" in mode else "utf-8"
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with atomic_write(path) as f:
        for p in corpus:
            f.write(json.dumps({"id": p.id, "text": p.text}, ensure_ascii=False))
            f.write("\n")


_JUDGMENT_FIELDS = ("question_id", "question", "qtype", "positives", "negatives")


def load_judgments(path: str | Path, corpus: Corpus | None = None) -> list[Judgment]:
    """Load and validate a judgments JSONL file.

    When a corpus is supplied, every labeled passage id must exist in it.
    """
    judgments = []
    for lineno, line in read_lines(path, JudgmentFormatError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # as in _parse_corpus_line
            raise JudgmentFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        try:
            judgment = judgment_from_record(record)
        except JudgmentFormatError as exc:
            raise JudgmentFormatError(f"{path}:{lineno}: {exc}") from None
        if corpus is not None:
            unknown = [
                pid for pid in judgment.positives | judgment.negatives
                if pid not in corpus
            ]
            if unknown:
                raise JudgmentFormatError(
                    f"{path}:{lineno}: question {judgment.question_id!r} "
                    f"references unknown passage ids {sorted(unknown)}"
                )
        judgments.append(judgment)
    return judgments


def judgment_from_record(record: Mapping) -> Judgment:
    if not isinstance(record, Mapping):
        raise JudgmentFormatError(f"record must be an object, got {type(record).__name__}")
    missing = [k for k in _JUDGMENT_FIELDS if k not in record]
    if missing:
        raise JudgmentFormatError(f"record is missing fields {missing}")
    for key in ("positives", "negatives"):
        if not isinstance(record[key], list):
            raise JudgmentFormatError(f"{key} must be a list of passage ids")
    return Judgment(
        question_id=str(record["question_id"]),
        question=str(record["question"]),
        qtype=QuestionType.parse(str(record["qtype"])),
        positives=frozenset(str(p) for p in record["positives"]),
        negatives=frozenset(str(p) for p in record["negatives"]),
    )


def judgment_to_record(judgment: Judgment) -> dict:
    return {
        "question_id": judgment.question_id,
        "question": judgment.question,
        "qtype": judgment.qtype.value,
        "positives": sorted(judgment.positives),
        "negatives": sorted(judgment.negatives),
    }


def save_judgments(judgments: Sequence[Judgment], path: str | Path) -> None:
    with atomic_write(path) as f:
        for judgment in judgments:
            f.write(json.dumps(judgment_to_record(judgment), ensure_ascii=False))
            f.write("\n")


def compute_stats(judgments: Sequence[Judgment]) -> DatasetStats:
    """Count questions per type and average their label set sizes.

    Empty input yields zero counts; means of empty slices are 0.0.
    Output is independent of the input ordering.
    """
    per_type: dict[QuestionType, TypeStats] = {}
    categories: dict[str, int] = {}
    for qtype in QuestionType:
        subset = [j for j in judgments if j.qtype is qtype]
        per_type[qtype] = _slice_stats(subset)
    for judgment in judgments:
        bucket = question_category(judgment.question)
        categories[bucket] = categories.get(bucket, 0) + 1
    return DatasetStats(
        overall=_slice_stats(judgments),
        per_type=per_type,
        categories=dict(sorted(categories.items())),
    )


def _slice_stats(judgments: Sequence[Judgment]) -> TypeStats:
    n = len(judgments)
    if n == 0:
        return TypeStats(0, 0.0, 0.0)
    return TypeStats(
        n_questions=n,
        avg_positives=sum(len(j.positives) for j in judgments) / n,
        avg_negatives=sum(len(j.negatives) for j in judgments) / n,
    )


def render_stats(stats: DatasetStats, fmt: str = "table") -> str:
    """Render dataset statistics as an aligned text table or JSON."""
    if fmt == "json":
        payload = {
            "overall": asdict(stats.overall),
            "per_type": {
                t.value: asdict(s)
                for t, s in stats.per_type.items()
                if s.n_questions > 0
            },
            "categories": dict(stats.categories),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "table":
        raise BoolSearchError(f"unknown stats format {fmt!r}")
    rows = [("slice", "questions", "avg pos", "avg neg")]
    rows.append(_stats_row("ALL", stats.overall))
    for qtype in QuestionType:
        s = stats.per_type[qtype]
        if s.n_questions:
            rows.append(_stats_row(qtype.value, s))
    lines = [" | ".join(f"{cell:>10}" for cell in row) for row in rows]
    if stats.categories:
        hist = ", ".join(f"{k}={v}" for k, v in stats.categories.items())
        lines.append(f"categories: {hist}")
    return "\n".join(lines)


def _stats_row(label: str, s: TypeStats) -> tuple[str, str, str, str]:
    return (label, str(s.n_questions), f"{s.avg_positives:.2f}", f"{s.avg_negatives:.2f}")
