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

from . import chat, generate, metrics, query
from .data import (
    compute_stats,
    load_corpus,
    load_judgments,
    read_lines,
    render_stats,
    save_judgments,
)
from .embed import EmbedderSpec
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

# every key a config file may set: the flag that overrides it, its default
# and the type its value is read as
CONFIG_KEYS = {
    "log_level": ("log_level", "WARNING", str),  # one of LOG_LEVELS, any case
    "seed": ("seed", 0, int),  # seed of gen cluster, questions and filter
    "embedder.kind": ("embedder", "hashed-bow", str),  # or remote
    "embedder.dim": ("dim", 256, int),
    "embedder.raw": ("raw_vectors", False, _bool),  # true skips unit normalization
    "embedder.seed": ("embed_seed", 0, int),
    "embedder.endpoint": ("endpoint", "", str),  # remote embedder base URL
    "index.similarity": ("sim", "cosine", str),  # or dot
    "eval.k": ("k", 10, int),  # list depth of search and eval
    "eval.format": ("format", "table", str),  # or json
    "merge.depth_factor": ("depth_factor", 2, int),
    "merge.not_mode": ("not_mode", "hard", str),  # or soft
    "merge.normalize": ("normalize_scores", False, _bool),
    "gen.clusters": ("clusters", None, int),  # target cluster count
    "gen.threshold": ("threshold", None, float),  # distance threshold stop rule
    "gen.svd_rank": ("svd_rank", 128, int),
    "gen.sample_cap": ("sample_cap", 100_000, int),
    "gen.mode": ("mode", "template", str),  # or chat
    "gen.chat_endpoint": ("chat_endpoint", "", str),
    "gen.chat_model": ("chat_model", "", str),
    "gen.chat_mode": ("chat_mode", "live", str),  # or record, replay
    "gen.cassette": ("cassette", "", str),
    "gen.per_type": ("per_type", 10, int),
    "gen.max_concurrent": ("max_concurrent", 4, int),
    "stats.format": ("format", "table", str),  # of stats and gen assemble
}


class AppConfig:
    """Flag values layered over config-file values over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config(args.config) if args.config else {}
        self.resolved: dict[str, str] = {}

    def get(self, key: str):
        flag, default, cast = CONFIG_KEYS[key]
        value = getattr(self.args, flag, None)
        if value is None:
            raw = self.file_values.get(key)
            value = default if raw is None else _cast(raw, cast, key)
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


def _cast(raw: str, cast, key: str):
    try:
        return cast(raw)
    except ValueError:
        raise BoolSearchError(f"config key {key}: cannot parse {raw!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="boolsearch", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--verbose", action="store_true",
                        help="print the effective configuration to stderr")
    parser.add_argument("--log-level", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist a vector index")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = index_sub.add_parser("build")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--sim", choices=SIMILARITIES, default=None)
    _add_embedder_flags(p_build)

    p_search = sub.add_parser("search", help="query an index")
    p_search.add_argument("--index", required=True)
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="Boolean expression with quoted atoms")
    group.add_argument("--raw", help="plain question for whole-query retrieval")
    p_search.add_argument("--k", type=int, default=None)
    p_search.add_argument("--not-mode", choices=query.NOT_MODES, default=None)
    p_search.add_argument("--depth-factor", type=int, default=None)
    p_search.add_argument("--normalize-scores", action="store_true", default=None)

    p_eval = sub.add_parser("eval", help="score a run against judgments")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--judgments", required=True)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--format", choices=["table", "json"], default=None)

    p_gen = sub.add_parser("gen", help="synthesize a benchmark dataset")
    gen_sub = p_gen.add_subparsers(dest="gen_command", required=True)

    p_cluster = gen_sub.add_parser("cluster")
    p_cluster.add_argument("--corpus", required=True)
    p_cluster.add_argument("--out", required=True)
    p_cluster.add_argument("--clusters", type=int, default=None,
                           help="target cluster count")
    p_cluster.add_argument("--threshold", type=float, default=None,
                           help="distance threshold stop rule")
    p_cluster.add_argument("--svd-rank", type=int, default=None)
    p_cluster.add_argument("--sample-cap", type=int, default=None)
    p_cluster.add_argument("--seed", type=int, default=None)
    _add_embedder_flags(p_cluster)

    p_questions = gen_sub.add_parser("questions")
    p_questions.add_argument("--corpus", required=True)
    p_questions.add_argument("--clusters", required=True, dest="clusters_path")
    p_questions.add_argument("--out", required=True)
    p_questions.add_argument("--seed", type=int, default=None)
    p_questions.add_argument("--per-type", type=int, default=None)
    _add_generator_flags(p_questions)

    p_filter = gen_sub.add_parser("filter")
    p_filter.add_argument("--corpus", required=True)
    p_filter.add_argument("--questions", required=True)
    p_filter.add_argument("--out", required=True)
    p_filter.add_argument("--seed", type=int, default=None)
    _add_generator_flags(p_filter)

    p_assemble = gen_sub.add_parser("assemble")
    p_assemble.add_argument("--corpus", required=True)
    p_assemble.add_argument("--questions", required=True)
    p_assemble.add_argument("--out", required=True)
    p_assemble.add_argument("--format", choices=["table", "json"], default=None)

    p_stats = sub.add_parser("stats", help="dataset statistics from judgments")
    p_stats.add_argument("--judgments", required=True)
    p_stats.add_argument("--corpus", default=None)
    p_stats.add_argument("--format", choices=["table", "json"], default=None)

    return parser


def _add_embedder_flags(parser) -> None:
    parser.add_argument("--embedder", choices=["hashed-bow", "remote"], default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--endpoint", default=None)
    parser.add_argument("--embed-seed", type=int, default=None)
    parser.add_argument("--raw-vectors", action="store_true", default=None,
                        help="skip unit normalization of embeddings")


def _add_generator_flags(parser) -> None:
    parser.add_argument("--mode", choices=["template", "chat"], default=None)
    parser.add_argument("--chat-endpoint", default=None)
    parser.add_argument("--chat-model", default=None)
    parser.add_argument("--chat-mode", choices=chat.MODES, default=None)
    parser.add_argument("--cassette", default=None)
    parser.add_argument("--max-concurrent", type=int, default=None)


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
        handler = _HANDLERS[args.command]
        result = handler(args, config)
        if args.verbose:
            config.dump(sys.stderr)
        return result
    except (BoolSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: the traceback only at DEBUG
        logger.debug("unhandled exception", exc_info=True)
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        package_logger.setLevel(previous_level)


def _cmd_index(args, config: AppConfig) -> int:
    spec = config.embedder_spec()
    similarity = config.get("index.similarity")
    corpus = load_corpus(args.corpus)
    index = build_index(corpus, spec, similarity)
    save_index(index, args.out)
    print(f"indexed {len(corpus)} passages into {args.out}", file=sys.stderr)
    return 0


def _cmd_search(args, config: AppConfig) -> int:
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
    return 0


def _cmd_eval(args, config: AppConfig) -> int:
    run = metrics.load_run(args.run)
    judgments = load_judgments(args.judgments)
    k = config.get("eval.k")
    report = metrics.evaluate_run(run, judgments, k)
    fmt = config.get("eval.format")
    print(metrics.render_report(report, fmt))
    return 0


def _generator_spec(config: AppConfig, seed: int) -> generate.GeneratorSpec:
    return generate.GeneratorSpec(
        mode=config.get("gen.mode"),
        chat_endpoint=config.get("gen.chat_endpoint"),
        chat_model=config.get("gen.chat_model"),
        chat_mode=config.get("gen.chat_mode"),
        cassette_path=config.get("gen.cassette"),
        seed=seed,
        n_per_type=config.get("gen.per_type"),
        max_concurrent=config.get("gen.max_concurrent"),
    )


def _cmd_gen(args, config: AppConfig) -> int:
    seed = config.get("seed")
    if args.gen_command == "cluster":
        corpus = load_corpus(args.corpus)
        target = config.get("gen.clusters")
        threshold = config.get("gen.threshold")
        clusters = generate.cluster_corpus(
            corpus,
            config.embedder_spec(),
            svd_rank=config.get("gen.svd_rank"),
            sample_cap=config.get("gen.sample_cap"),
            seed=seed,
            distance_threshold=threshold,
            target_count=target,
        )
        generate.save_clusters(clusters, args.out)
        print(f"wrote {len(clusters)} clusters to {args.out}", file=sys.stderr)
        return 0
    if args.gen_command == "questions":
        corpus = load_corpus(args.corpus)
        clusters = generate.load_clusters(args.clusters_path)
        spec = _generator_spec(config, seed)
        questions = generate.generate_questions(corpus, clusters, spec)
        generate.save_questions(questions, args.out)
        print(f"wrote {len(questions)} questions to {args.out}", file=sys.stderr)
        return 0
    if args.gen_command == "filter":
        corpus = load_corpus(args.corpus)
        spec = _generator_spec(config, seed)
        questions = generate.load_questions(args.questions)
        flagged = generate.apply_cyclic_filter(questions, corpus, spec)
        generate.save_questions(flagged, args.out)
        kept = sum(q.filtered for q in flagged)
        print(f"kept {kept} of {len(flagged)} questions", file=sys.stderr)
        return 0
    # assemble
    corpus = load_corpus(args.corpus)
    questions = generate.load_questions(args.questions)
    judgments, stats = generate.assemble_dataset(questions, corpus)
    # rendered first, so an unknown format fails before the file is written
    rendered = render_stats(stats, config.get("stats.format"))
    save_judgments(judgments, args.out)
    print(rendered)
    return 0


def _cmd_stats(args, config: AppConfig) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else None
    judgments = load_judgments(args.judgments, corpus)
    fmt = config.get("stats.format")
    print(render_stats(compute_stats(judgments), fmt))
    return 0


_HANDLERS = {
    "index": _cmd_index,
    "search": _cmd_search,
    "eval": _cmd_eval,
    "gen": _cmd_gen,
    "stats": _cmd_stats,
}


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
