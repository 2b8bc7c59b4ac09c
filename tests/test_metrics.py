import json
from pathlib import Path

import pytest

from boolsearch.data import Judgment, QuestionType, load_judgments
from boolsearch.errors import RunFormatError
from boolsearch.index import RankedList, ScoredDoc
from boolsearch.metrics import (
    EvalReport,
    MetricSlice,
    evaluate_run,
    load_run,
    mrr_at_k,
    neg_recall_at_k,
    render_report,
    save_run,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report_from_json(text):
    """Inverse of render_report(..., fmt="json")."""
    payload = json.loads(text)

    def parse_slice(raw):
        return MetricSlice(
            n_questions=raw["n_questions"],
            n_with_negatives=raw["n_with_negatives"],
            mrr=raw["mrr"],
            neg_recall=raw["neg_recall"],
        )

    return EvalReport(
        k=payload["k"],
        overall=parse_slice(payload["overall"]),
        per_type={
            QuestionType.parse(name): parse_slice(raw)
            for name, raw in payload["per_type"].items()
        },
        missing_questions=tuple(payload["missing_questions"]),
    )


def ranked(*ids):
    return RankedList(
        ScoredDoc(doc_id, float(len(ids) - i)) for i, doc_id in enumerate(ids)
    )


class TestMrr:
    def test_rank_one(self):
        assert mrr_at_k(ranked("p1", "p2"), {"p1"}, 10) == 1.0

    def test_rank_three(self):
        value = mrr_at_k(ranked("x", "y", "p1"), {"p1"}, 10)
        assert value == pytest.approx(1 / 3)

    def test_miss_is_zero(self):
        assert mrr_at_k(ranked("x", "y"), {"p1"}, 10) == 0.0

    def test_positive_outside_k_is_zero(self):
        assert mrr_at_k(ranked("x", "y", "p1"), {"p1"}, 2) == 0.0

    def test_nondecreasing_in_k(self):
        lst = ranked("a", "b", "p1", "c")
        values = [mrr_at_k(lst, {"p1"}, k) for k in range(1, 6)]
        assert values == sorted(values)


class TestNegRecall:
    def test_half_retrieved(self):
        assert neg_recall_at_k(ranked("n1", "x"), {"n1", "n2"}, 10) == 0.5

    def test_no_negatives_skipped(self):
        assert neg_recall_at_k(ranked("x"), set(), 10) is None

    def test_all_retrieved(self):
        assert neg_recall_at_k(ranked("n1", "n2"), {"n1", "n2"}, 10) == 1.0

    def test_nondecreasing_in_k(self):
        lst = ranked("n1", "x", "n2", "y")
        values = [neg_recall_at_k(lst, {"n1", "n2"}, k) for k in range(1, 5)]
        assert values == sorted(values)

    def test_rank_only_invariance(self):
        # metrics read ranks and ids, not score magnitudes
        negatives = {"n1"}
        a = RankedList([ScoredDoc("n1", 100.0), ScoredDoc("x", 1.0)])
        b = RankedList([ScoredDoc("n1", 0.2), ScoredDoc("x", 0.1)])
        assert neg_recall_at_k(a, negatives, 2) == neg_recall_at_k(b, negatives, 2)
        assert mrr_at_k(a, {"x"}, 2) == mrr_at_k(b, {"x"}, 2)


def judge(qid, qtype, positives, negatives=()):
    return Judgment(qid, f"about {qid}?", qtype,
                    frozenset(positives), frozenset(negatives))


class TestEvaluateRun:
    def test_macro_average(self):
        judgments = [
            judge("q1", QuestionType.AND, ["p1"]),
            judge("q2", QuestionType.AND, ["p9"]),
        ]
        run = {"q1": ranked("p1"), "q2": ranked("x")}
        report = evaluate_run(run, judgments, 10)
        assert report.overall.mrr == pytest.approx(0.5)

    def test_empty_slices_have_no_metrics(self):
        judgments = [judge("q1", QuestionType.OR, ["p1"])]
        report = evaluate_run({"q1": ranked("p1")}, judgments, 10)
        for qtype in (QuestionType.AND, QuestionType.NOT):
            s = report.per_type[qtype]
            assert s.n_questions == 0 and s.mrr is None and s.neg_recall is None
        table = render_report(report)
        assert "AND" not in table and "OR" in table

    def test_matches_frozen_golden_fixture(self):
        judgments = load_judgments(FIXTURES / "golden_judgments.jsonl")
        run = load_run(FIXTURES / "golden_run.jsonl")
        expected = json.loads((FIXTURES / "golden_expected.json").read_text())
        report = evaluate_run(run, judgments, expected["k"])
        assert report.overall.mrr == pytest.approx(expected["overall"]["mrr"], abs=1e-9)
        assert report.overall.neg_recall == pytest.approx(
            expected["overall"]["neg_recall"], abs=1e-9
        )
        for name, stats in expected["per_type"].items():
            s = report.per_type[QuestionType.parse(name)]
            assert s.n_questions == stats["n_questions"]
            assert s.mrr == pytest.approx(stats["mrr"], abs=1e-9)
            if stats["neg_recall"] is None:
                assert s.neg_recall is None
            else:
                assert s.neg_recall == pytest.approx(stats["neg_recall"], abs=1e-9)

    def test_missing_question_counts_as_empty_and_flagged(self):
        judgments = [
            judge("q1", QuestionType.NOT, ["p1"], ["n1"]),
            judge("q2", QuestionType.NOT, ["p2"], ["n2"]),
        ]
        run = {"q1": ranked("p1", "n1")}
        report = evaluate_run(run, judgments, 10)
        assert report.missing_questions == ("q2",)
        assert report.overall.mrr == pytest.approx(0.5)
        assert report.overall.neg_recall == pytest.approx(0.5)

    def test_run_longer_than_k_rejected(self):
        judgments = [judge("q1", QuestionType.AND, ["p1"])]
        run = {"q1": ranked(*[f"d{i}" for i in range(11)])}
        with pytest.raises(RunFormatError, match="exceeds k"):
            evaluate_run(run, judgments, 10)


class TestRenderReport:
    def test_percentages_with_two_decimals(self):
        judgments = [judge(f"q{i}", QuestionType.AND, ["p1"]) for i in range(10000)]
        run = {
            # 3761 hits at rank 1 gives MRR .3761 exactly
            f"q{i}": ranked("p1") if i < 3761 else ranked("x")
            for i in range(10000)
        }
        table = render_report(evaluate_run(run, judgments, 10))
        assert "37.61" in table

    def test_json_round_trips(self):
        judgments = [
            judge("q1", QuestionType.AND, ["p1"], ["n1"]),
            judge("q2", QuestionType.OR, ["p2"]),
        ]
        run = {"q1": ranked("p1", "n1"), "q2": ranked("x")}
        report = evaluate_run(run, judgments, 10)
        assert report_from_json(render_report(report, fmt="json")) == report

    def test_empty_report_is_header_only(self):
        report = evaluate_run({}, [], 10)
        assert render_report(report).count("\n") == 0

    def test_unknown_format_rejected(self):
        report = evaluate_run({}, [], 10)
        with pytest.raises(Exception, match="format"):
            render_report(report, fmt="csv")


class TestRunIO:
    def test_round_trip(self, tmp_path):
        run = {"q1": ranked("a", "b"), "q2": ranked("c")}
        path = tmp_path / "run.jsonl"
        save_run(run, path)
        assert load_run(path) == run

    def test_invalid_ordering_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({
            "question_id": "q1",
            "items": [{"doc_id": "a", "score": 1.0}, {"doc_id": "b", "score": 2.0}],
        }) + "\n")
        with pytest.raises(RunFormatError):
            load_run(path)

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({
            "question_id": "q1",
            "items": [{"doc_id": "a", "score": 2.0}, {"doc_id": "a", "score": 1.0}],
        }) + "\n")
        with pytest.raises(RunFormatError, match="duplicate"):
            load_run(path)
