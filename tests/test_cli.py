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
from boolsearch.data import load_judgments, save_corpus
from boolsearch.embed import EmbedderSpec
from boolsearch.errors import BoolSearchError
from boolsearch.index import Index, save_index

from _planted import planted_corpus
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


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--run", "r.jsonl")
        assert code == 1

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
            index = Index(("a", "b"), np.eye(2, 8, dtype=np.float32), "cosine", spec,
                          spec.fingerprint())
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

    def test_assemble_question_text_not_a_string_is_typed(self, capsys, tmp_path,
                                                          corpus_file):
        corpus, _ = planted_corpus(n_clusters=3, per_cluster=4)
        clusters = [generate.Cluster(0, corpus.ids[:4])]
        spec = generate.GeneratorSpec(seed=1, n_per_type=2)
        questions = tmp_path / "filtered.jsonl"
        generate.save_questions(generate.generate_questions(corpus, clusters, spec), questions)
        lines = questions.read_text().splitlines()
        record = json.loads(lines[1])
        record.update(text=5, filtered=True)
        lines[1] = json.dumps(record)
        questions.write_text("\n".join(lines) + "\n")
        dataset = tmp_path / "judgments.jsonl"
        code, out, err = run_cli(
            capsys, "gen", "assemble", "--corpus", str(corpus_file),
            "--questions", str(questions), "--out", str(dataset),
        )
        assert code == 2 and not out
        assert err == f"error: {questions}:2: question_id and text must be strings\n"
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

        monkeypatch.setitem(cli._HANDLERS, "stats", broken)
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
            "cli._HANDLERS['stats'] = broken\n"
            "sys.exit(cli.dispatch(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, "--log-level", level, "stats", "--judgments", "j"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
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
        assert {flag for flag, _, _ in cli.CONFIG_KEYS.values()} <= flags
