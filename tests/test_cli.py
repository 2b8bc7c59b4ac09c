import argparse
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boolsearch import cli, generate
from boolsearch.cli import dispatch, load_config
from boolsearch.data import load_judgments
from boolsearch.embed import EmbedderSpec
from boolsearch.errors import BoolSearchError
from boolsearch.index import Index, save_index

from _planted import planted_corpus, save_corpus
from _server import ScriptedServer

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def corpus_file(tmp_path):
    corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    return path


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script, *argv):
    """Run a Python script in a fresh interpreter that imports this tree's
    boolsearch."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--run", "r.jsonl")
        assert code == 1

    @pytest.mark.parametrize("argv, choices", [
        (["index", "build", "--corpus", "c", "--out", "o", "--sim", "l2"], "'dot', 'cosine'"),
        (["search", "--index", "i", "--raw", "q", "--not-mode", "fuzzy"], "'hard', 'soft'"),
        (["gen", "filter", "--corpus", "c", "--questions", "q", "--out", "o",
          "--chat-mode", "stream"], "'live', 'record', 'replay'"),
    ], ids=["sim", "not-mode", "chat-mode"])
    def test_bad_flag_value_is_usage_error(self, capsys, argv, choices):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert f"(choose from {choices})" in err

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0

    def test_missing_index_file_is_runtime_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.idx"
        code, out, err = run_cli(
            capsys, "search", "--index", str(missing), "--raw", "anything"
        )
        assert code == 2
        assert str(missing) in err


    def test_corrupt_index_is_runtime_error(self, capsys, tmp_path, corpus_file):
        index_path = tmp_path / "corpus.idx"
        run_cli(capsys, "index", "build", "--corpus", str(corpus_file),
                "--out", str(index_path), "--dim", "64")
        # a valid JSON edit the stored fingerprint no longer matches
        blob = index_path.read_bytes()
        assert blob.count(b'"seed": 0') == 1
        index_path.write_bytes(blob.replace(b'"seed": 0', b'"seed": 7'))
        code, out, err = run_cli(
            capsys, "search", "--index", str(index_path), "--raw", "core00a"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "fingerprint" in err

    @pytest.mark.parametrize("value,fault", [(5e-324, "underflows to 0"), (1e200, "overflows")],
                             ids=["underflow", "overflow"])
    def test_remote_query_with_no_unit_norm_is_runtime_error(self, capsys, tmp_path, value,
                                                              fault):
        vector = [value] + [0.0] * 7
        with ScriptedServer(lambda *_: (200, {"vectors": [vector]})) as server:
            spec = EmbedderSpec(kind="remote", dim=8, normalize=False, endpoint=server.url)
            index = Index(("a", "b"), np.eye(2, 8, dtype=np.float32), "cosine", spec)
            save_index(index, tmp_path / "r.idx")
            code, out, err = run_cli(
                capsys, "search", "--index", str(tmp_path / "r.idx"), "--raw", "tiny"
            )
        assert code == 2 and out == ""
        assert err == f"error: row 0's norm {fault} (text 'tiny')\n"


class TestIndexAndSearch:
    def test_build_search_round_trip(self, capsys, tmp_path, corpus_file):
        index_path = tmp_path / "corpus.idx"
        code, out, err = run_cli(
            capsys, "index", "build", "--corpus", str(corpus_file),
            "--out", str(index_path), "--dim", "64", "--sim", "cosine",
        )
        assert code == 0 and index_path.exists()

        code, out, err = run_cli(
            capsys, "search", "--index", str(index_path),
            "--raw", "core00a core00b", "--k", "3",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert all(row["doc_id"].startswith("c00") for row in rows)

    def test_boolean_query_search(self, capsys, tmp_path, corpus_file):
        index_path = tmp_path / "corpus.idx"
        run_cli(capsys, "index", "build", "--corpus", str(corpus_file),
                "--out", str(index_path), "--dim", "64", "--sim", "dot")
        code, out, err = run_cli(
            capsys, "search", "--index", str(index_path),
            "--query", '"core00a" NOT "sub00p0x"', "--k", "5",
            "--not-mode", "hard", "--depth-factor", "2",
        )
        assert code == 0
        ids = [json.loads(line)["doc_id"] for line in out.splitlines()]
        assert "c00p0" not in ids

    def test_search_output_is_deterministic(self, capsys, tmp_path, corpus_file):
        index_path = tmp_path / "corpus.idx"
        run_cli(capsys, "index", "build", "--corpus", str(corpus_file),
                "--out", str(index_path), "--dim", "64")
        argv = ["search", "--index", str(index_path), "--raw", "core01a", "--k", "4"]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_bad_query_syntax_is_runtime_error(self, capsys, tmp_path, corpus_file):
        index_path = tmp_path / "corpus.idx"
        run_cli(capsys, "index", "build", "--corpus", str(corpus_file),
                "--out", str(index_path), "--dim", "64")
        code, out, err = run_cli(
            capsys, "search", "--index", str(index_path), "--query", "no quotes"
        )
        assert code == 2 and "error" in err


    @pytest.mark.parametrize(
        "query, message",
        [
            (" OR ".join(['"core00a"'] * 1500), "operators nest more than"),
            ("(" * 5000 + '"core00a"' + ")" * 5000, "parentheses nest more than"),
        ],
        ids=["long-chain", "deep-parentheses"],
    )
    def test_too_deep_query_is_runtime_error(self, capsys, tmp_path, corpus_file,
                                             query, message):
        index_path = tmp_path / "corpus.idx"
        run_cli(capsys, "index", "build", "--corpus", str(corpus_file),
                "--out", str(index_path), "--dim", "64")
        code, out, err = run_cli(
            capsys, "search", "--index", str(index_path), "--query", query
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "unexpected" not in err

    @pytest.mark.parametrize("query, message", [
        ('"\udcff" ???', "unexpected character '?' (at byte offset 6)"),
        ('"\udcff" AND', "unexpected end of query (at byte offset 9)"),
    ], ids=["bad-character", "end-of-query"])
    def test_lone_surrogate_in_query_is_syntax_error(self, capsys, tmp_path, corpus_file,
                                                     query, message):
        # how Python decodes argv bytes that are not UTF-8 (b"\xff" here)
        index_path = tmp_path / "corpus.idx"
        run_cli(capsys, "index", "build", "--corpus", str(corpus_file),
                "--out", str(index_path), "--dim", "64")
        code, out, err = run_cli(
            capsys, "search", "--index", str(index_path), "--query", query
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        script = "import sys; from boolsearch.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
        done = run_fresh(script, "search", "--index", str(index_path), "--query",
                         query.encode("utf-8", "surrogateescape"))
        assert (done.returncode, done.stderr) == (2, f"error: {message}\n")

    def test_corpus_field_of_wrong_type_is_runtime_error(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "p1", "text": "x"}\n{"id": null, "text": null}\n')
        code, out, err = run_cli(capsys, "index", "build", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "corpus.idx"))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}:2: id must be a string or an integer, got NoneType\n"
        assert not (tmp_path / "corpus.idx").exists()


class TestEvalCommand:
    def test_table_output(self, capsys):
        code, out, err = run_cli(
            capsys, "eval",
            "--run", str(FIXTURES / "golden_run.jsonl"),
            "--judgments", str(FIXTURES / "golden_judgments.jsonl"),
            "--k", "10",
        )
        assert code == 0
        assert "MRR@10" in out and "41.67" in out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_named(self, capsys, k):
        code, out, err = run_cli(
            capsys, "eval",
            "--run", str(FIXTURES / "golden_run.jsonl"),
            "--judgments", str(FIXTURES / "golden_judgments.jsonl"),
            "--k", k,
        )
        assert code == 2 and out == ""
        assert err == f"error: k must be >= 1, got {k}\n"

    def test_json_output_parses(self, capsys):
        code, out, err = run_cli(
            capsys, "eval",
            "--run", str(FIXTURES / "golden_run.jsonl"),
            "--judgments", str(FIXTURES / "golden_judgments.jsonl"),
            "--k", "10", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["overall"]["neg_recall"] == pytest.approx(0.5)

    @pytest.mark.parametrize("record,field", [
        ({"items": []}, "question_id"),
        ({"question_id": "q1"}, "items"),
        ({"question_id": "q1", "items": [{"score": 1.0}]}, "doc_id"),
        ({"question_id": "q1", "items": [{"doc_id": "p1"}]}, "score"),
    ])
    def test_missing_run_field_is_named(self, capsys, tmp_path, record, field):
        run = tmp_path / "run.jsonl"
        run.write_text(json.dumps(record) + "\n")
        code, out, err = run_cli(
            capsys, "eval", "--run", str(run),
            "--judgments", str(FIXTURES / "golden_judgments.jsonl"),
        )
        assert code == 2 and out == ""
        assert err == f"error: {run}:1: missing field {field!r}\n"

    @pytest.mark.parametrize("item, message", [
        ({"doc_id": None, "score": "0.5"}, "doc_id must be a string or an integer, got NoneType"),
        ({"doc_id": True, "score": False}, "doc_id must be a string or an integer, got bool"),
        ({"doc_id": "p1", "score": "0.5"}, "score must be a number, got str"),
    ])
    def test_run_field_of_wrong_type_is_runtime_error(self, capsys, tmp_path, item, message):
        run = tmp_path / "run.jsonl"
        run.write_text(json.dumps({"question_id": "q1", "items": [item]}) + "\n")
        code, out, err = run_cli(
            capsys, "eval", "--run", str(run),
            "--judgments", str(FIXTURES / "golden_judgments.jsonl"),
        )
        assert (code, out, err) == (2, "", f"error: {run}:1: {message}\n")

    @pytest.mark.parametrize("items, message", [
        ([[1, 2]], "items[0] must be an object, got list"),
        (5, "items must be a list, got int"),
        ("ab", "items must be a list, got str"),
        ([{"doc_id": "p1", "score": 1.0}, None], "items[1] must be an object, got NoneType"),
    ])
    def test_run_items_not_objects_is_runtime_error(self, capsys, tmp_path, items, message):
        run = tmp_path / "run.jsonl"
        run.write_text(json.dumps({"question_id": "q1", "items": items}) + "\n")
        code, out, err = run_cli(
            capsys, "eval", "--run", str(run),
            "--judgments", str(FIXTURES / "golden_judgments.jsonl"),
        )
        assert (code, out, err) == (2, "", f"error: {run}:1: {message}\n")

    def test_judgment_field_of_wrong_type_is_runtime_error(self, capsys, tmp_path):
        judgments = tmp_path / "judgments.jsonl"
        judgments.write_text(json.dumps({
            "question_id": "q1", "question": None, "qtype": "AND",
            "positives": ["p1"], "negatives": [],
        }) + "\n")
        code, out, err = run_cli(
            capsys, "eval", "--run", str(FIXTURES / "golden_run.jsonl"),
            "--judgments", str(judgments),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {judgments}:1: question must be a string, got NoneType\n"


class TestStatsCommand:
    def test_stats_table(self, capsys, tmp_path):
        judgments = tmp_path / "j.jsonl"
        judgments.write_text(json.dumps({
            "question_id": "q1", "question": "What is x?", "qtype": "AND",
            "positives": ["p1"], "negatives": ["p2"],
        }) + "\n")
        code, out, err = run_cli(capsys, "stats", "--judgments", str(judgments))
        assert code == 0 and "AND" in out

    def test_stats_json(self, capsys, tmp_path):
        judgments = tmp_path / "j.jsonl"
        judgments.write_text(json.dumps({
            "question_id": "q1", "question": "What is x?", "qtype": "OR",
            "positives": ["p1", "p2"], "negatives": [],
        }) + "\n")
        code, out, err = run_cli(
            capsys, "stats", "--judgments", str(judgments), "--format", "json"
        )
        assert json.loads(out)["per_type"]["OR"]["avg_positives"] == 2.0

    def test_unknown_format_is_runtime_error(self, capsys, tmp_path):
        judgments = tmp_path / "j.jsonl"
        judgments.write_text(json.dumps({
            "question_id": "q1", "question": "What is x?", "qtype": "AND",
            "positives": ["p1"], "negatives": ["p2"],
        }) + "\n")
        config = tmp_path / "app.cfg"
        config.write_text("stats.format=xml\n")
        code, out, err = run_cli(
            capsys, "--config", str(config), "stats", "--judgments", str(judgments)
        )
        assert code == 2 and not out
        assert err == "error: unknown stats format 'xml'\n"


class TestGenCommands:
    def test_full_generation_chain(self, capsys, tmp_path, corpus_file):
        clusters = tmp_path / "clusters.json"
        code, *_ = run_cli(
            capsys, "gen", "cluster", "--corpus", str(corpus_file),
            "--out", str(clusters), "--clusters", "3",
            "--svd-rank", "16", "--seed", "0", "--dim", "64",
        )
        assert code == 0
        assert len(json.loads(clusters.read_text())) == 3

        questions = tmp_path / "questions.jsonl"
        code, *_ = run_cli(
            capsys, "gen", "questions", "--corpus", str(corpus_file),
            "--clusters", str(clusters), "--out", str(questions),
            "--mode", "template", "--seed", "1", "--per-type", "2",
        )
        assert code == 0

        filtered = tmp_path / "filtered.jsonl"
        code, *_ = run_cli(
            capsys, "gen", "filter", "--corpus", str(corpus_file),
            "--questions", str(questions), "--out", str(filtered),
            "--mode", "template",
        )
        assert code == 0

        dataset = tmp_path / "judgments.jsonl"
        code, out, err = run_cli(
            capsys, "gen", "assemble", "--corpus", str(corpus_file),
            "--questions", str(filtered), "--out", str(dataset),
        )
        assert code == 0
        loaded = load_judgments(dataset)
        assert loaded and "AND" in out

    def test_assemble_unknown_format_writes_nothing(self, capsys, tmp_path, corpus_file):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = [generate.Cluster(0, corpus.ids[:4])]
        spec = generate.GeneratorSpec(seed=1, n_per_type=2)
        questions = tmp_path / "filtered.jsonl"
        generate.save_questions(generate.apply_cyclic_filter(
            generate.generate_questions(corpus, clusters, spec), corpus, spec
        ), questions)
        config = tmp_path / "app.cfg"
        config.write_text("stats.format=xml\n")
        dataset = tmp_path / "judgments.jsonl"
        code, out, err = run_cli(
            capsys, "--config", str(config), "gen", "assemble", "--corpus",
            str(corpus_file), "--questions", str(questions), "--out", str(dataset),
        )
        assert code == 2 and not out
        assert err == "error: unknown stats format 'xml'\n"
        assert not dataset.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("text", 5, "question_id and text must be strings"),
        # read as a truth value, "false" would keep a question the filter rejected
        ("filtered", "false", "filtered must be a boolean, got str"),
        ("filtered", 0.0, "filtered must be a boolean, got float"),
        ("source_cluster", 3.7, "source_cluster must be a non-negative integer, got 3.7"),
        ("source_cluster", True, "source_cluster must be a non-negative integer, got True"),
        ("source_cluster", "2", "source_cluster must be a non-negative integer, got '2'"),
        ("source_cluster", -1, "source_cluster must be a non-negative integer, got -1"),
        ("answer_token_groups", ["abc"], "answer_token_groups must be a list of lists of strings"),
        ("answer_token_groups", "ab", "answer_token_groups must be a list of lists of strings"),
        ("answer_token_groups", [[1, 2]],
         "answer_token_groups must be a list of lists of strings"),
    ])
    def test_assemble_question_field_of_wrong_type_is_typed(
        self, capsys, tmp_path, corpus_file, field, value, message
    ):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = [generate.Cluster(0, corpus.ids[:4])]
        spec = generate.GeneratorSpec(seed=1, n_per_type=2)
        questions = tmp_path / "filtered.jsonl"
        generate.save_questions(generate.generate_questions(corpus, clusters, spec), questions)
        lines = questions.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        questions.write_text("\n".join(lines) + "\n")
        dataset = tmp_path / "judgments.jsonl"
        code, out, err = run_cli(
            capsys, "gen", "assemble", "--corpus", str(corpus_file),
            "--questions", str(questions), "--out", str(dataset),
        )
        assert (code, out, err) == (2, "", f"error: {questions}:2: {message}\n")
        assert not dataset.exists()

    def test_cluster_above_row_cap_is_runtime_error(
        self, capsys, tmp_path, corpus_file, monkeypatch
    ):
        monkeypatch.setattr(generate, "MAX_CLUSTER_ROWS", 11)
        clusters = tmp_path / "clusters.json"
        code, out, err = run_cli(
            capsys, "gen", "cluster", "--corpus", str(corpus_file),
            "--out", str(clusters), "--clusters", "3", "--svd-rank", "16", "--dim", "64",
        )
        assert code == 2
        assert "12 rows" in err and "1,152-byte" in err
        assert not clusters.exists()

    def test_clusters_file_missing_passage_ids_is_runtime_error(
        self, capsys, tmp_path, corpus_file
    ):
        clusters = tmp_path / "clusters.json"
        clusters.write_text('[{"cluster_id": 0}]')
        code, out, err = run_cli(
            capsys, "gen", "questions", "--corpus", str(corpus_file),
            "--clusters", str(clusters), "--out", str(tmp_path / "q.jsonl"),
            "--mode", "template",
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(clusters) in err

    @pytest.mark.parametrize("cluster_id, member", [
        ('"x"', None), ("1.5", None), ("-3", None), ("true", None), ("0", "zz"),
    ])
    def test_malformed_clusters_fail_typed_before_generating(
        self, capsys, tmp_path, corpus_file, cluster_id, member
    ):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        ids = list(corpus.ids[:4]) + ([member] if member else [])
        clusters = tmp_path / "clusters.json"
        clusters.write_text(f'[{{"cluster_id": {cluster_id}, "passage_ids": {json.dumps(ids)}}}]')
        out_path = tmp_path / "q.jsonl"
        code, out, err = run_cli(
            capsys, "gen", "questions", "--corpus", str(corpus_file),
            "--clusters", str(clusters), "--out", str(out_path), "--mode", "template",
        )
        assert code == 2 and not out_path.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "unexpected" not in err
        assert (repr(member) if member else str(clusters)) in err

    @pytest.mark.parametrize("ids, code", [([3, "a"], 0), ([None, "a"], 2)])
    def test_cluster_ids_read_as_corpus_ids(self, capsys, tmp_path, ids, code):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": pid, "text": f"passage {pid} text {pid}"}) + "\n"
            for pid in (3, "a", "b")
        ))
        clusters = tmp_path / "clusters.json"
        clusters.write_text(json.dumps([{"cluster_id": 0, "passage_ids": ids}]))
        result = run_cli(
            capsys, "gen", "questions", "--corpus", str(corpus),
            "--clusters", str(clusters), "--out", str(tmp_path / "q.jsonl"),
            "--per-type", "1",
        )
        assert result[0] == code
        if code:
            err = result[2]
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and str(clusters) in err
            assert "not in the corpus" not in err

    def test_corrupt_cassette_line_is_runtime_error(
        self, capsys, tmp_path, corpus_file
    ):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = tmp_path / "clusters.json"
        generate.save_clusters([generate.Cluster(0, corpus.ids[:4])], clusters)
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_text("{bad\n")
        code, out, err = run_cli(
            capsys, "gen", "questions", "--corpus", str(corpus_file),
            "--clusters", str(clusters), "--out", str(tmp_path / "q.jsonl"),
            "--mode", "chat", "--chat-model", "m", "--chat-mode", "replay",
            "--cassette", str(cassette),
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and f"{cassette}:1" in err

    def test_generation_is_reproducible(self, capsys, tmp_path, corpus_file):
        clusters = tmp_path / "clusters.json"
        run_cli(capsys, "gen", "cluster", "--corpus", str(corpus_file),
                "--out", str(clusters), "--clusters", "3", "--svd-rank", "8",
                "--dim", "64")
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            run_cli(capsys, "gen", "questions", "--corpus", str(corpus_file),
                    "--clusters", str(clusters), "--out", str(out),
                    "--mode", "template", "--seed", "5", "--per-type", "2")
        assert out_a.read_bytes() == out_b.read_bytes()


class TestFailClosed:
    @pytest.mark.parametrize("command", [
        ("index", "build", "--corpus", "{bad}", "--out", "{tmp}/c.idx"),
        ("stats", "--judgments", "{bad}"),
        ("eval", "--run", "{bad}", "--judgments", "{bad}"),
        ("--config", "{bad}", "stats", "--judgments", "{bad}"),
    ])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe{}\n")
        argv = [a.format(bad=bad, tmp=tmp_path) for a in command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {bad}:1: not UTF-8 text (invalid start byte)\n"

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--config", str(tmp_path / "absent.cfg"),
                                 "stats", "--judgments", str(tmp_path / "j.jsonl"))
        assert code == 2
        assert len(err.splitlines()) == 1 and "absent.cfg" in err

    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_stats", broken)
        code, out, err = run_cli(capsys, "stats", "--judgments", "j.jsonl")
        assert code == 2
        assert err == "error: unexpected RuntimeError: boom\n"

    @staticmethod
    def fail_in_fresh_process(level, prelude=""):
        """Run a failing `stats` at `level` in a fresh interpreter, whose root
        logger is not pytest's; `prelude` runs before the command."""
        script = (
            "import logging, sys; from boolsearch import cli\n"
            f"{prelude}"
            "def broken(args, config): raise RuntimeError('boom')\n"
            "cli._cmd_stats = broken\n"
            "sys.exit(cli.dispatch(sys.argv[1:]))\n"
        )
        done = run_fresh(script, "--log-level", level, "stats", "--judgments", "j")
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1] == "error: unexpected RuntimeError: boom"
        return done.stderr

    @pytest.mark.parametrize("level", ["DEBUG", "INFO"])
    def test_traceback_only_at_debug(self, level):
        stderr = self.fail_in_fresh_process(level)
        assert ("Traceback" in stderr) == (level == "DEBUG")

    def test_log_level_applies_when_root_logger_has_a_handler(self):
        # a handler on the root logger makes logging.basicConfig a no-op
        prelude = "logging.getLogger().addHandler(logging.StreamHandler())\n"
        assert "Traceback" in self.fail_in_fresh_process("DEBUG", prelude)

    def test_log_level_does_not_outlive_the_call(self, capsys):
        run_cli(capsys, "--log-level", "ERROR", "stats", "--judgments", "absent.jsonl")
        assert logging.getLogger("boolsearch").level == logging.NOTSET


class TestOffline:
    def test_offline_commands_never_load_requests(self, tmp_path, corpus_file):
        # a fresh interpreter, because this one may already hold requests
        index_path = tmp_path / "corpus.idx"
        commands = [
            ["index", "build", "--corpus", str(corpus_file), "--out", str(index_path)],
            ["search", "--index", str(index_path), "--query", '"core00a" NOT "sub00p0x"'],
            ["search", "--index", str(index_path), "--raw", "core00a"],
            ["eval", "--run", str(FIXTURES / "golden_run.jsonl"),
             "--judgments", str(FIXTURES / "golden_judgments.jsonl")],
        ]
        script = (
            "import json, sys; from boolsearch import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.dispatch(argv) == 0, argv\n"
            "print('requests' in sys.modules)\n"
        )
        done = run_fresh(script, json.dumps(commands))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(
        self, capsys, tmp_path, corpus_file
    ):
        config = tmp_path / "app.cfg"
        config.write_text("embedder.dim=64\nindex.similarity=dot\n# comment\n")
        index_path = tmp_path / "c.idx"
        code, *_ = run_cli(
            capsys, "--config", str(config), "index", "build",
            "--corpus", str(corpus_file), "--out", str(index_path),
        )
        assert code == 0
        from boolsearch.index import load_index

        assert load_index(index_path).dim == 64
        assert load_index(index_path).similarity == "dot"

        # flag wins over file value
        code, *_ = run_cli(
            capsys, "--config", str(config), "index", "build",
            "--corpus", str(corpus_file), "--out", str(index_path),
            "--sim", "cosine",
        )
        assert load_index(index_path).similarity == "cosine"

    def test_verbose_prints_effective_config(self, capsys, tmp_path, corpus_file):
        index_path = tmp_path / "c.idx"
        code, out, err = run_cli(
            capsys, "--verbose", "index", "build",
            "--corpus", str(corpus_file), "--out", str(index_path), "--dim", "64",
        )
        assert code == 0
        assert "embedder.dim=64" in err

    def test_malformed_config_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this has no equals sign\n")
        with pytest.raises(BoolSearchError, match="key=value"):
            load_config(config)

    def test_unknown_key_names_path_and_line(self, capsys, tmp_path, corpus_file):
        config = tmp_path / "app.cfg"
        config.write_text("# typo below\neval.k=3\neval.kk=3\n")
        code, out, err = run_cli(
            capsys, "--config", str(config), "index", "build",
            "--corpus", str(corpus_file), "--out", str(tmp_path / "c.idx"),
        )
        assert code == 2 and not (tmp_path / "c.idx").exists()
        assert err == f"error: {config}:3: unknown config key 'eval.kk'\n"

    @pytest.mark.parametrize("raw", ["ture", "", "2"])
    def test_unparsable_bool_names_the_key(self, capsys, tmp_path, corpus_file, raw):
        config = tmp_path / "app.cfg"
        config.write_text(f"embedder.raw={raw}\n")
        code, out, err = run_cli(
            capsys, "--config", str(config), "index", "build",
            "--corpus", str(corpus_file), "--out", str(tmp_path / "c.idx"),
        )
        assert code == 2
        assert err == f"error: config key embedder.raw: cannot parse {raw!r}\n"

    @pytest.mark.parametrize("raw,normalize", [("Yes", False), ("OFF", True), ("0", True)])
    def test_bool_spellings(self, capsys, tmp_path, corpus_file, raw, normalize):
        from boolsearch.index import load_index

        config = tmp_path / "app.cfg"
        config.write_text(f"embedder.raw={raw}\n")
        code, *_ = run_cli(
            capsys, "--config", str(config), "index", "build",
            "--corpus", str(corpus_file), "--out", str(tmp_path / "c.idx"),
        )
        assert code == 0
        assert load_index(tmp_path / "c.idx").spec.normalize is normalize

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unknown_log_level_is_runtime_error(self, capsys, tmp_path, source):
        config = tmp_path / "app.cfg"
        config.write_text("log_level=bogus\n")
        argv = ["--log-level", "bogus"] if source == "flag" else ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv, "stats", "--judgments", "absent.jsonl")
        assert code == 2 and out == ""
        assert err == (
            "error: unknown log level 'BOGUS'; "
            "expected one of DEBUG, INFO, WARNING, ERROR, CRITICAL\n"
        )

    def test_every_key_has_a_flag(self):
        def dests(parser):
            for action in parser._actions:
                yield action.dest
                if isinstance(action.choices, dict):  # subcommands
                    for sub in action.choices.values():
                        yield from dests(sub)

        flags = set(dests(cli.build_parser()))
        assert {flag for flag, *_ in cli.CONFIG_KEYS.values()} <= flags


def parsers(parser, path=()):
    """(subcommand path, parser) of the top-level parser and each subcommand."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parsers(sub, path + (name,))


def options(parser):
    """The option actions of one parser, --help left out."""
    return [a for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


def describe(action) -> str:
    """An option as its spelling, then its dest where the spelling does not
    give it, then flag, {choices} or the type it is read as."""
    (spelling,) = action.option_strings
    words = [spelling]
    if action.dest != spelling[2:].replace("-", "_"):
        words.append(f"->{action.dest}")
    if action.nargs == 0:
        words.append("flag")
    elif action.choices is not None:
        words.append("{" + ",".join(action.choices) + "}")
    elif action.type not in (None, str):
        words.append(action.type.__name__)
    if action.required:
        words.append("required")
    return " ".join(words)


EMBEDDER_FLAGS = ["--embedder {hashed-bow,remote}", "--dim int", "--endpoint",
                  "--embed-seed int", "--raw-vectors flag"]
GENERATOR_FLAGS = ["--mode {template,chat}", "--chat-endpoint", "--chat-model",
                   "--chat-mode {live,record,replay}", "--cassette", "--max-concurrent int"]

# every option of every subcommand: a dropped, added or misattached flag, or
# one whose dest, type or choices changed, fails test_flag_table
FLAG_TABLE = {
    (): ["--config", "--verbose flag", "--log-level"],
    ("index",): [],
    ("index", "build"): ["--corpus required", "--out required", "--sim {dot,cosine}",
                         *EMBEDDER_FLAGS],
    ("search",): ["--index required", "--query", "--raw", "--k int",
                  "--not-mode {hard,soft}", "--depth-factor int", "--normalize-scores flag"],
    ("eval",): ["--run required", "--judgments required", "--k int", "--format {table,json}"],
    ("gen",): [],
    ("gen", "cluster"): ["--corpus required", "--out required", "--clusters int",
                         "--threshold float", "--svd-rank int", "--sample-cap int",
                         "--seed int", *EMBEDDER_FLAGS],
    ("gen", "questions"): ["--corpus required", "--clusters ->clusters_path required",
                           "--out required", "--seed int", "--per-type int",
                           *GENERATOR_FLAGS],
    ("gen", "filter"): ["--corpus required", "--questions required", "--out required",
                        "--seed int", *GENERATOR_FLAGS],
    ("gen", "assemble"): ["--corpus required", "--questions required", "--out required",
                          "--format {table,json}"],
    ("stats",): ["--judgments required", "--corpus", "--format {table,json}"],
}

CHOICE_FLAGS = [(path, action.option_strings[0])
                for path, parser in parsers(cli.build_parser())
                for action in options(parser) if action.choices is not None]


class TestFlagTable:
    def test_flag_table(self):
        table = {path: sorted(map(describe, options(parser)))
                 for path, parser in parsers(cli.build_parser())}
        assert table == {path: sorted(flags) for path, flags in FLAG_TABLE.items()}

    def test_no_flag_has_a_default(self):
        # a flag left out is None, so a config-file value or the key's default applies
        for _, parser in parsers(cli.build_parser()):
            for action in options(parser):
                assert action.default is (False if action.dest == "verbose" else None)

    @pytest.mark.parametrize("path, flag", CHOICE_FLAGS,
                             ids=[" ".join((*p, f)) for p, f in CHOICE_FLAGS])
    def test_bad_choice_is_usage_error(self, capsys, path, flag):
        # argparse checks a choice as it reads the value, before any required flag
        code, out, err = run_cli(capsys, *path, flag, "bogus")
        assert code == 1 and not out
        assert f"argument {flag}: invalid choice: 'bogus'" in err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A planted corpus and the index, clusters and questions made from it."""
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {name: str(tmp / name) for name in ("corpus", "index", "clusters", "questions")}
    save_corpus(planted_corpus(n_clusters=3, per_cluster=4)[0], paths["corpus"])
    corpus = ["--corpus", paths["corpus"]]
    for argv in (
        ["index", "build", *corpus, "--out", paths["index"], "--dim", "64"],
        ["gen", "cluster", *corpus, "--out", paths["clusters"], "--clusters", "3",
         "--svd-rank", "8", "--dim", "64"],
        ["gen", "questions", *corpus, "--clusters", paths["clusters"],
         "--out", paths["questions"], "--per-type", "2"],
    ):
        assert dispatch(argv) == 0
    return paths


def base_argv(path, flag, inputs, out) -> list[str]:
    """Valid arguments of one subcommand, to which a test adds one flag."""
    corpus = ["--corpus", inputs["corpus"]]
    return {
        ("index", "build"): [*corpus, "--out", out],
        ("search",): ["--index", inputs["index"], "--query", '"core00a" NOT "sub00p0x"'],
        ("eval",): ["--run", str(FIXTURES / "golden_run.jsonl"),
                    "--judgments", str(FIXTURES / "golden_judgments.jsonl")],
        # --threshold and --clusters are exclusive stop rules
        ("gen", "cluster"): [*corpus, "--out", out, "--svd-rank", "8", "--dim", "64",
                             *(["--clusters", "3"] if flag != "--threshold" else [])],
        ("gen", "questions"): [*corpus, "--clusters", inputs["clusters"], "--out", out,
                               "--per-type", "2"],
        ("gen", "filter"): [*corpus, "--questions", inputs["questions"], "--out", out],
    }[path]


# only the stop rule and the seeds take more than 0 and -1: a large value of
# any other flag would size a thread pool or an allocation
EDGE_VALUES = {"threshold": ["0", "-1", "nan", "inf"],
               "seed": ["0", "-1", str(2**80)], "embed_seed": ["0", "-1", str(2**80)]}
CONFIG_FLAGS = {flag for flag, *_ in cli.CONFIG_KEYS.values()}
EDGE_CASES = [(path, action.option_strings[0], value)
              for path, parser in parsers(cli.build_parser())
              for action in options(parser)
              if action.dest in CONFIG_FLAGS and action.type in (int, float)
              for value in EDGE_VALUES.get(action.dest, ["0", "-1"])]


class TestEdgeValues:
    @pytest.mark.parametrize("path, flag, value", EDGE_CASES,
                             ids=[" ".join((*p, f, v)) for p, f, v in EDGE_CASES])
    def test_numeric_flag_at_its_edges(self, capsys, tmp_path, inputs, path, flag, value):
        argv = [*path, *base_argv(path, flag, inputs, str(tmp_path / "out")), flag, value]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2)
        assert "error: unexpected" not in err

    @pytest.mark.parametrize("command, seed", [
        ("cluster", "-1"), ("questions", "-1"), ("filter", "-1"), ("questions", "config"),
    ])
    def test_negative_seed_is_refused(self, capsys, tmp_path, inputs, command, seed):
        path = ("gen", command)
        argv = [*path, *base_argv(path, "--seed", inputs, str(tmp_path / "out"))]
        if seed == "config":
            config = tmp_path / "app.cfg"
            config.write_text("seed = -3\n")
            argv, seed = ["--config", str(config), *argv], "-3"
        else:
            argv += ["--seed", seed]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_sample_cap_below_the_rank_is_refused(self, capsys, tmp_path, inputs, cap):
        # reduce_dims refuses the cap itself: nothing raises it to the rank
        path = ("gen", "cluster")
        out_path = tmp_path / "out"
        argv = [*path, *base_argv(path, "--sample-cap", inputs, str(out_path)),
                "--sample-cap", cap]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: sample_cap must be at least the requested rank\n"
        assert not out_path.exists()
