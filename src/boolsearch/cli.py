"""Command-line interface: index build, search, eval, gen, stats.

Exit codes: 0 success, 1 usage error, 2 runtime error. Data goes to
stdout, diagnostics to stderr, so output is safe to pipe. A flat
key=value config file can supply defaults; flags override it.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import chat, generate, metrics, query
from .data import (
    FORMATS,
    compute_stats,
    load_corpus,
    load_judgments,
    read_lines,
    render_stats,
    save_judgments,
)
from .embed import EMBEDDER_KINDS, EmbedderSpec
from .errors import BoolSearchError
from .index import SIMILARITIES, build_index, load_index, save_index

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment line.
    Every key must be one of CONFIG_KEYS."""
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, BoolSearchError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise BoolSearchError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise BoolSearchError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(raw)
    return lowered in ("1", "true", "yes", "on")


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class Setting(NamedTuple):
    """A config key's flag (as a dest), default and type, and its flag's choices and help."""

    flag: str
    default: Any
    cast: Callable[[str], Any]
    choices: tuple[str, ...] | None = None
    help: str | None = None


# every key a config file may set; _add_flags makes the flags from here
CONFIG_KEYS = {
    "log_level": Setting("log_level", "WARNING", str),  # one of LOG_LEVELS, any case
    "seed": Setting("seed", 0, int),  # seed of gen cluster, questions and filter
    "embedder.kind": Setting("embedder", "hashed-bow", str, EMBEDDER_KINDS),
    "embedder.dim": Setting("dim", 256, int),
    "embedder.raw": Setting("raw_vectors", False, _bool,
                            help="skip unit normalization of embeddings"),
    "embedder.seed": Setting("embed_seed", 0, int),
    "embedder.endpoint": Setting("endpoint", "", str),  # remote embedder base URL
    "index.similarity": Setting("sim", "cosine", str, SIMILARITIES),
    "eval.k": Setting("k", 10, int),  # list depth of search and eval
    "eval.format": Setting("format", "table", str, FORMATS),
    "merge.depth_factor": Setting("depth_factor", 2, int),
    "merge.not_mode": Setting("not_mode", "hard", str, query.NOT_MODES),
    "merge.normalize": Setting("normalize_scores", False, _bool),
    "gen.clusters": Setting("clusters", None, int, help="target cluster count"),
    "gen.threshold": Setting("threshold", None, float, help="distance threshold stop rule"),
    "gen.svd_rank": Setting("svd_rank", 128, int),
    "gen.sample_cap": Setting("sample_cap", 100_000, int),
    "gen.mode": Setting("mode", "template", str, generate.GENERATOR_MODES),
    "gen.chat_endpoint": Setting("chat_endpoint", "", str),
    "gen.chat_model": Setting("chat_model", "", str),
    "gen.chat_mode": Setting("chat_mode", "live", str, chat.MODES),
    "gen.cassette": Setting("cassette", "", str),
    "gen.per_type": Setting("per_type", 10, int),
    "gen.max_concurrent": Setting("max_concurrent", 4, int),
    "stats.format": Setting("format", "table", str, FORMATS),  # of stats and gen assemble
}
_EMBEDDER_KEYS = ("embedder.kind", "embedder.dim", "embedder.endpoint", "embedder.seed",
                 "embedder.raw")
_GENERATOR_KEYS = ("gen.mode", "gen.chat_endpoint", "gen.chat_model", "gen.chat_mode",
                  "gen.cassette", "gen.max_concurrent")


class AppConfig:
    """Flag values layered over config-file values over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config(args.config) if args.config else {}
        self.resolved: dict[str, str] = {}

    def get(self, key: str):
        flag, default, cast, _, _ = CONFIG_KEYS[key]
        value = getattr(self.args, flag, None)
        if value is None and key in self.file_values:
            raw = self.file_values[key]
            try:
                value = cast(raw)
            except ValueError:
                raise BoolSearchError(f"config key {key}: cannot parse {raw!r}") from None
        elif value is None:
            value = default
        self.resolved[key] = str(value)
        return value

    def embedder_spec(self) -> EmbedderSpec:
        return EmbedderSpec(
            kind=self.get("embedder.kind"),
            dim=self.get("embedder.dim"),
            normalize=not self.get("embedder.raw"),
            seed=self.get("embedder.seed"),
            endpoint=self.get("embedder.endpoint"),
        )

    def dump(self, stream) -> None:
        for key in sorted(self.resolved):
            print(f"{key}={self.resolved[key]}", file=stream)


def build_parser() -> _Parser:
    parser = _Parser(prog="boolsearch", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--verbose", action="store_true",
                        help="print the effective configuration to stderr")
    _add_flags(parser, "log_level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist a vector index")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = index_sub.add_parser("build")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--out", required=True)
    _add_flags(p_build, "index.similarity", *_EMBEDDER_KEYS)
    p_build.set_defaults(handler=_cmd_index)

    p_search = sub.add_parser("search", help="query an index")
    p_search.add_argument("--index", required=True)
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="Boolean expression with quoted atoms")
    group.add_argument("--raw", help="plain question for whole-query retrieval")
    _add_flags(p_search, "eval.k", "merge.not_mode", "merge.depth_factor", "merge.normalize")
    p_search.set_defaults(handler=_cmd_search)

    p_eval = sub.add_parser("eval", help="score a run against judgments")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--judgments", required=True)
    _add_flags(p_eval, "eval.k", "eval.format")
    p_eval.set_defaults(handler=_cmd_eval)

    p_gen = sub.add_parser("gen", help="synthesize a benchmark dataset")
    gen_sub = p_gen.add_subparsers(dest="gen_command", required=True)

    p_cluster = gen_sub.add_parser("cluster")
    p_cluster.add_argument("--corpus", required=True)
    p_cluster.add_argument("--out", required=True)
    _add_flags(p_cluster, "gen.clusters", "gen.threshold", "gen.svd_rank", "gen.sample_cap",
               "seed", *_EMBEDDER_KEYS)
    p_cluster.set_defaults(handler=_cmd_cluster)

    p_questions = gen_sub.add_parser("questions")
    p_questions.add_argument("--corpus", required=True)
    p_questions.add_argument("--clusters", required=True, dest="clusters_path")
    p_questions.add_argument("--out", required=True)
    _add_flags(p_questions, "seed", "gen.per_type", *_GENERATOR_KEYS)
    p_questions.set_defaults(handler=_cmd_questions)

    p_filter = gen_sub.add_parser("filter")
    p_filter.add_argument("--corpus", required=True)
    p_filter.add_argument("--questions", required=True)
    p_filter.add_argument("--out", required=True)
    _add_flags(p_filter, "seed", *_GENERATOR_KEYS)
    p_filter.set_defaults(handler=_cmd_filter)

    p_assemble = gen_sub.add_parser("assemble")
    p_assemble.add_argument("--corpus", required=True)
    p_assemble.add_argument("--questions", required=True)
    p_assemble.add_argument("--out", required=True)
    _add_flags(p_assemble, "stats.format")
    p_assemble.set_defaults(handler=_cmd_assemble)

    p_stats = sub.add_parser("stats", help="dataset statistics from judgments")
    p_stats.add_argument("--judgments", required=True)
    p_stats.add_argument("--corpus", default=None)
    _add_flags(p_stats, "stats.format")
    p_stats.set_defaults(handler=_cmd_stats)

    return parser


def _add_flags(parser, *keys: str) -> None:
    """Add each config key's flag, spelt from its dest (svd_rank: --svd-rank), with
    default None: a flag left out defers to the config file, then the key's default."""
    for key in keys:
        flag, _, cast, choices, help = CONFIG_KEYS[key]
        spelling = "--" + flag.replace("_", "-")
        if cast is _bool:
            parser.add_argument(spelling, action="store_true", default=None, help=help)
        else:
            parser.add_argument(spelling, type=cast, choices=choices, default=None, help=help)


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    package_logger = logging.getLogger("boolsearch")
    previous_level = package_logger.level
    try:
        config = AppConfig(args)
        level = config.get("log_level").upper()
        if level not in LOG_LEVELS:
            raise BoolSearchError(
                f"unknown log level {level!r}; expected one of {', '.join(LOG_LEVELS)}"
            )
        # basicConfig(level=) is a no-op once the root logger has a handler
        logging.basicConfig(stream=sys.stderr)
        package_logger.setLevel(level)
        args.handler(args, config)
        if args.verbose:
            config.dump(sys.stderr)
        return 0
    except (BoolSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: the traceback only at DEBUG
        logger.debug("unhandled exception", exc_info=True)
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        package_logger.setLevel(previous_level)


def _cmd_index(args, config: AppConfig) -> None:
    spec = config.embedder_spec()
    similarity = config.get("index.similarity")
    corpus = load_corpus(args.corpus)
    save_index(build_index(corpus, spec, similarity), args.out)
    print(f"indexed {len(corpus)} passages into {args.out}", file=sys.stderr)


def _cmd_search(args, config: AppConfig) -> None:
    index = load_index(args.index)
    k = config.get("eval.k")
    if args.raw is not None:
        ranked = query.whole_query_retrieve(index, args.raw, k)
    else:
        expr = query.parse_boolean_query(args.query)
        policy = query.MergePolicy(
            final_k=k,
            candidate_depth_factor=config.get("merge.depth_factor"),
            not_mode=config.get("merge.not_mode"),
            normalize=config.get("merge.normalize"),
        )
        ranked = query.evaluate_expr(index, expr, policy)
    for item in ranked:
        print(json.dumps({"doc_id": item.doc_id, "score": item.score}))


def _cmd_eval(args, config: AppConfig) -> None:
    run = metrics.load_run(args.run)
    judgments = load_judgments(args.judgments)
    report = metrics.evaluate_run(run, judgments, config.get("eval.k"))
    print(metrics.render_report(report, config.get("eval.format")))


def _generator_spec(config: AppConfig) -> generate.GeneratorSpec:
    return generate.GeneratorSpec(
        mode=config.get("gen.mode"),
        chat_endpoint=config.get("gen.chat_endpoint"),
        chat_model=config.get("gen.chat_model"),
        chat_mode=config.get("gen.chat_mode"),
        cassette_path=config.get("gen.cassette"),
        seed=config.get("seed"),
        n_per_type=config.get("gen.per_type"),
        max_concurrent=config.get("gen.max_concurrent"),
    )


def _cmd_cluster(args, config: AppConfig) -> None:
    corpus = load_corpus(args.corpus)
    clusters = generate.cluster_corpus(
        corpus,
        config.embedder_spec(),
        svd_rank=config.get("gen.svd_rank"),
        sample_cap=config.get("gen.sample_cap"),
        seed=config.get("seed"),
        distance_threshold=config.get("gen.threshold"),
        target_count=config.get("gen.clusters"),
    )
    generate.save_clusters(clusters, args.out)
    print(f"wrote {len(clusters)} clusters to {args.out}", file=sys.stderr)


def _cmd_questions(args, config: AppConfig) -> None:
    corpus = load_corpus(args.corpus)
    clusters = generate.load_clusters(args.clusters_path)
    questions = generate.generate_questions(corpus, clusters, _generator_spec(config))
    generate.save_questions(questions, args.out)
    print(f"wrote {len(questions)} questions to {args.out}", file=sys.stderr)


def _cmd_filter(args, config: AppConfig) -> None:
    corpus = load_corpus(args.corpus)
    spec = _generator_spec(config)
    questions = generate.load_questions(args.questions)
    flagged = generate.apply_cyclic_filter(questions, corpus, spec)
    generate.save_questions(flagged, args.out)
    kept = sum(q.filtered for q in flagged)
    print(f"kept {kept} of {len(flagged)} questions", file=sys.stderr)


def _cmd_assemble(args, config: AppConfig) -> None:
    corpus = load_corpus(args.corpus)
    questions = generate.load_questions(args.questions)
    judgments, stats = generate.assemble_dataset(questions, corpus)
    # rendered first, so an unknown format fails before the file is written
    rendered = render_stats(stats, config.get("stats.format"))
    save_judgments(judgments, args.out)
    print(rendered)


def _cmd_stats(args, config: AppConfig) -> None:
    corpus = load_corpus(args.corpus) if args.corpus else None
    judgments = load_judgments(args.judgments, corpus)
    print(render_stats(compute_stats(judgments), config.get("stats.format")))


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
