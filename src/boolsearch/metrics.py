"""Retrieval metrics: MRR@k and NegRecall@k with per-operator breakdowns.

MRR@k is the reciprocal rank of the first positive within the top k (0 on
miss), macro-averaged over questions. NegRecall@k is the fraction of a
question's explicit negatives appearing in the top k, macro-averaged over
questions that have at least one explicit negative; lower is better since
it measures failure to exclude negated content.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import AbstractSet, Mapping, Sequence

from .data import Judgment, QuestionType, read_records, record_string, write_records
from .errors import BoolSearchError, RunFormatError
from .index import RankedList

# A run maps question_id to the system's ranked list for that question.
RunResult = Mapping[str, RankedList]


def mrr_at_k(ranked: RankedList, positives: AbstractSet[str], k: int) -> float:
    """1/rank of the first positive in the top k, else 0.0."""
    if k < 1:
        raise BoolSearchError(f"k must be >= 1, got {k}")
    for rank, doc_id in enumerate(ranked.ids[:k], start=1):
        if doc_id in positives:
            return 1.0 / rank
    return 0.0


def neg_recall_at_k(
    ranked: RankedList, negatives: AbstractSet[str], k: int
) -> float | None:
    """Fraction of explicit negatives retrieved in the top k.

    Returns None when the question has no explicit negatives; such
    questions are excluded from aggregation rather than counted as 0.
    """
    if k < 1:
        raise BoolSearchError(f"k must be >= 1, got {k}")
    if not negatives:
        return None
    retrieved = set(ranked.ids[:k])
    return len(retrieved & negatives) / len(negatives)


@dataclass(frozen=True)
class MetricSlice:
    """Aggregated metrics over one subset of questions."""

    n_questions: int
    n_with_negatives: int
    mrr: float | None
    neg_recall: float | None


@dataclass(frozen=True)
class EvalReport:
    k: int
    overall: MetricSlice
    per_type: Mapping[QuestionType, MetricSlice]
    missing_questions: tuple[str, ...] = ()

    def __post_init__(self):
        total = sum(s.n_questions for s in self.per_type.values())
        if total != self.overall.n_questions:
            raise BoolSearchError("per-type question counts must sum to overall")


def evaluate_run(
    run: RunResult, judgments: Sequence[Judgment], k: int
) -> EvalReport:
    """Score a run against judgments at one fixed k.

    Judged questions missing from the run are scored against an empty
    list and flagged in the report. A ranked list longer than k means the
    run was produced at a different cutoff and is rejected.
    """
    if k < 1:
        raise BoolSearchError(f"k must be >= 1, got {k}")
    for question_id, ranked in run.items():
        if len(ranked) > k:
            raise RunFormatError(
                f"question {question_id!r} has {len(ranked)} results, "
                f"which exceeds k={k}"
            )
    empty = RankedList(())
    missing = []
    rows: list[tuple[QuestionType, float, float | None]] = []
    for judgment in judgments:
        ranked = run.get(judgment.question_id)
        if ranked is None:
            ranked = empty
            missing.append(judgment.question_id)
        rows.append(
            (
                judgment.qtype,
                mrr_at_k(ranked, judgment.positives, k),
                neg_recall_at_k(ranked, judgment.negatives, k),
            )
        )
    per_type = {
        qtype: _aggregate([r for r in rows if r[0] is qtype]) for qtype in QuestionType
    }
    return EvalReport(
        k=k,
        overall=_aggregate(rows),
        per_type=per_type,
        missing_questions=tuple(missing),
    )


def _aggregate(rows: list[tuple[QuestionType, float, float | None]]) -> MetricSlice:
    n = len(rows)
    neg_values = [neg for _, _, neg in rows if neg is not None]
    return MetricSlice(
        n_questions=n,
        n_with_negatives=len(neg_values),
        mrr=sum(mrr for _, mrr, _ in rows) / n if n else None,
        neg_recall=sum(neg_values) / len(neg_values) if neg_values else None,
    )


def render_report(report: EvalReport, fmt: str = "table") -> str:
    """Serialize a report as an aligned text table or as JSON.

    Metric cells are percentages with two decimals; empty slices are
    omitted from the table and carry nulls in JSON.
    """
    if fmt == "json":
        return json.dumps(_report_payload(report), indent=2, sort_keys=True)
    if fmt != "table":
        raise BoolSearchError(f"unknown report format {fmt!r}")
    types = [t for t in QuestionType if report.per_type[t].n_questions > 0]
    header = ["metric", "ALL"] + [t.value for t in types]
    lines = [_table_row(header)]
    if report.overall.n_questions > 0:
        slices = [report.overall] + [report.per_type[t] for t in types]
        lines.append(_table_row(["n"] + [str(s.n_questions) for s in slices]))
        lines.append(
            _table_row([f"MRR@{report.k}"] + [_cell(s.mrr) for s in slices])
        )
        lines.append(
            _table_row(
                [f"NegRecall@{report.k}"] + [_cell(s.neg_recall) for s in slices]
            )
        )
    if report.missing_questions:
        lines.append(f"missing from run: {len(report.missing_questions)} question(s)")
    return "\n".join(lines)


def _cell(value: float | None) -> str:
    return f"{value * 100:.2f}" if value is not None else "-"


def _table_row(cells: list[str]) -> str:
    return " | ".join(f"{cell:>13}" for cell in cells)


def _report_payload(report: EvalReport) -> dict:
    return {
        "k": report.k,
        "overall": asdict(report.overall),
        "per_type": {
            t.value: asdict(s) for t, s in report.per_type.items()
        },
        "missing_questions": list(report.missing_questions),
    }


def save_run(run: RunResult, path: str | Path) -> None:
    write_records(path, (
        {"question_id": question_id,
         "items": [{"doc_id": doc_id, "score": score}
                   for doc_id, score in zip(ranked.ids, ranked.scores)]}
        for question_id, ranked in run.items()
    ))


def load_run(path: str | Path) -> dict[str, RankedList]:
    """Load a run file; each line is {"question_id", "items": [...]}.

    Ranked-list invariants (non-increasing scores, distinct ids, ties by
    ascending id) are enforced on every line.
    """
    run: dict[str, RankedList] = {}
    for lineno, (question_id, ranked) in read_records(path, RunFormatError, _run_entry):
        if question_id in run:
            raise RunFormatError(
                f"{path}:{lineno}: duplicate question id {question_id!r}"
            )
        run[question_id] = ranked
    return run


def _run_entry(record: dict) -> tuple[str, RankedList]:
    question_id = record_string(record["question_id"], "question_id", RunFormatError)
    items = record["items"]
    if not isinstance(items, list):
        raise RunFormatError(f"items must be a list, got {type(items).__name__}")
    return question_id, RankedList(map(_run_item, range(len(items)), items))


def _run_item(position: int, item) -> tuple[str, float]:
    if not isinstance(item, dict):
        raise RunFormatError(f"items[{position}] must be an object, got {type(item).__name__}")
    return (record_string(item["doc_id"], "doc_id", RunFormatError, integer=True),
            _score(item["score"]))


def _score(value) -> float:
    if type(value) not in (int, float):  # a bool is not a score
        raise RunFormatError(f"score must be a number, got {type(value).__name__}")
    return float(value)
