"""Boolean query expressions and decomposed-query retrieval.

A Boolean query is a tree of atomic natural-language queries joined by
AND, OR, and binary NOT (left NOT right excludes the right-hand topic).
Execution retrieves a candidate list per atom, then merges lists with set
algebra: intersection with score addition for AND, union with score max
for OR, and difference for NOT (hard set difference by default, or soft
score subtraction).

Query grammar, atoms double-quoted, operators case-insensitive,
NOT and AND binding tighter than OR, same precedence associating left:

    expr   := term (OR term)*
    term   := factor ((AND | NOT) factor)*
    factor := '"' text '"' | '(' expr ')'

Operators nest at most MAX_EXPR_DEPTH deep, and so do parentheses: render
and evaluation recurse once per operator, and the parser three times per
parenthesis, so the bound keeps every walk far inside the interpreter's
recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .chat import ChatClient
from .errors import BoolSearchError, DecompositionError, QuerySyntaxError
from .index import Index, RankedList
from .index import top_k as _index_top_k

NOT_MODES = ("hard", "soft")
MAX_EXPR_DEPTH = 100


@dataclass(frozen=True)
class Atom:
    text: str

    def __post_init__(self):
        if not self.text:
            raise BoolSearchError("atom text must be non-empty")


@dataclass(frozen=True)
class And:
    left: "BooleanExpr"
    right: "BooleanExpr"


@dataclass(frozen=True)
class Or:
    left: "BooleanExpr"
    right: "BooleanExpr"


@dataclass(frozen=True)
class Not:
    left: "BooleanExpr"
    right: "BooleanExpr"


BooleanExpr = Atom | And | Or | Not


@dataclass(frozen=True)
class MergePolicy:
    """How candidate lists are gathered and combined.

    Per-atom retrieval depth is candidate_depth_factor * final_k; min-max
    score normalization per candidate list is available but off by default
    since the merge algebra is defined on raw scores.
    """

    final_k: int = 10
    candidate_depth_factor: int = 2
    not_mode: str = "hard"
    normalize: bool = False

    def __post_init__(self):
        if self.final_k < 1:
            raise BoolSearchError(f"final_k must be >= 1, got {self.final_k}")
        if self.candidate_depth_factor < 1:
            raise BoolSearchError(
                f"candidate_depth_factor must be >= 1, got {self.candidate_depth_factor}"
            )
        if self.not_mode not in NOT_MODES:
            raise BoolSearchError(f"unknown not_mode {self.not_mode!r}")


# ---------------------------------------------------------------------------
# Parsing and rendering


_KEYWORDS = {"AND": And, "OR": Or, "NOT": Not}


def _lex(text: str) -> list[tuple[str, str, int]]:
    """Tokenize into (kind, value, byte_offset) triples."""
    tokens = []
    pos = 0
    n = len(text)
    # byte offset of text[seen]: each token's offset adds only the bytes
    # since the previous one, so lexing stays linear in the text. A lone
    # surrogate (how Python decodes argv bytes that are not UTF-8) counts
    # as the three bytes "surrogatepass" encodes it to
    seen = offset = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        offset += len(text[seen:pos].encode("utf-8", "surrogatepass"))
        seen = pos
        if ch == "(":
            tokens.append(("LPAREN", ch, offset))
            pos += 1
        elif ch == ")":
            tokens.append(("RPAREN", ch, offset))
            pos += 1
        elif ch == '"':
            value, pos = _lex_quoted(text, pos, offset)
            tokens.append(("ATOM", value, offset))
        elif ch.isalpha():
            start = pos
            while pos < n and text[pos].isalpha():
                pos += 1
            word = text[start:pos]
            if word.upper() not in _KEYWORDS:
                raise QuerySyntaxError(
                    f"unexpected word {word!r}; operators are AND, OR, NOT "
                    "and atoms must be double-quoted",
                    offset,
                )
            tokens.append((word.upper(), word, offset))
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r}", offset)
    return tokens


def _lex_quoted(text: str, pos: int, offset: int) -> tuple[str, int]:
    """Read the atom opening at text[pos], whose byte offset is offset."""
    pos += 1
    chars: list[str] = []
    while pos < len(text):
        ch = text[pos]
        if ch == "\\" and pos + 1 < len(text) and text[pos + 1] in ('"', "\\"):
            chars.append(text[pos + 1])
            pos += 2
        elif ch == '"':
            value = "".join(chars)
            if not value.strip():
                raise QuerySyntaxError("empty atom", offset)
            return value, pos + 1
        else:
            chars.append(ch)
            pos += 1
    raise QuerySyntaxError("unterminated quoted atom", offset)


class _Parser:
    """Recursive descent that returns (node, operator depth) pairs."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.open_parens = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError(
                "unexpected end of query", len(self.text.encode("utf-8", "surrogatepass"))
            )
        self.pos += 1
        return token

    def parse(self) -> BooleanExpr:
        expr, _ = self.expr()
        trailing = self.peek()
        if trailing is not None:
            raise QuerySyntaxError(
                f"unexpected trailing {trailing[1]!r}", trailing[2]
            )
        return expr

    def expr(self) -> tuple[BooleanExpr, int]:
        node = self.term()
        while (token := self.peek()) and token[0] == "OR":
            self.next()
            node = _join(token, node, self.term())
        return node

    def term(self) -> tuple[BooleanExpr, int]:
        node = self.factor()
        while (token := self.peek()) and token[0] in ("AND", "NOT"):
            self.next()
            node = _join(token, node, self.factor())
        return node

    def factor(self) -> tuple[BooleanExpr, int]:
        token = self.next()
        kind, value, offset = token
        if kind == "ATOM":
            return Atom(value), 0
        if kind == "LPAREN":
            if self.open_parens == MAX_EXPR_DEPTH:
                raise QuerySyntaxError(
                    f"parentheses nest more than {MAX_EXPR_DEPTH} deep", offset
                )
            self.open_parens += 1
            node = self.expr()
            closing = self.peek()
            if closing is None or closing[0] != "RPAREN":
                raise QuerySyntaxError("expected closing parenthesis", offset)
            self.next()
            self.open_parens -= 1
            return node
        raise QuerySyntaxError(f"expected atom or '(', got {value!r}", offset)


def _join(
    token: tuple[str, str, int],
    left: tuple[BooleanExpr, int],
    right: tuple[BooleanExpr, int],
) -> tuple[BooleanExpr, int]:
    depth = 1 + max(left[1], right[1])
    if depth > MAX_EXPR_DEPTH:
        raise QuerySyntaxError(
            f"operators nest more than {MAX_EXPR_DEPTH} deep", token[2]
        )
    return _KEYWORDS[token[0]](left[0], right[0]), depth


def parse_boolean_query(text: str) -> BooleanExpr:
    """Parse query text into its unique expression tree."""
    return _Parser(text).parse()


def _precedence(expr: BooleanExpr) -> int:
    if isinstance(expr, Atom):
        return 3
    if isinstance(expr, (And, Not)):
        return 2
    return 1


def render(expr: BooleanExpr) -> str:
    """Render an expression so that parse(render(e)) == e."""
    if isinstance(expr, Atom):
        escaped = expr.text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    op = {And: "AND", Or: "OR", Not: "NOT"}[type(expr)]
    level = _precedence(expr)
    left = render(expr.left)
    if _precedence(expr.left) < level:
        left = f"({left})"
    right = render(expr.right)
    # left association: an equal-precedence right child needs parentheses
    if _precedence(expr.right) <= level:
        right = f"({right})"
    return f"{left} {op} {right}"


# ---------------------------------------------------------------------------
# Merge algebra


def merge_and(a: RankedList, b: RankedList) -> RankedList:
    """Intersection; surviving docs score the sum of both lists' scores."""
    scores_b = dict(zip(b.ids, b.scores))
    return RankedList.from_scores(
        (doc_id, score + scores_b[doc_id])
        for doc_id, score in zip(a.ids, a.scores) if doc_id in scores_b
    )


def merge_or(a: RankedList, b: RankedList) -> RankedList:
    """Union; each doc scores the max over the lists containing it."""
    merged = dict(zip(a.ids, a.scores))
    for doc_id, score in zip(b.ids, b.scores):
        # max(old, new) keeps the old score on a tie, so a tied zero keeps its sign
        merged[doc_id] = max(merged[doc_id], score) if doc_id in merged else score
    return RankedList.from_scores(merged.items())


def merge_not(a: RankedList, b: RankedList, mode: str = "hard") -> RankedList:
    """Difference. Hard mode drops every doc of a that appears in b,
    keeping scores; soft mode keeps all of a with b's score subtracted."""
    if mode not in NOT_MODES:
        raise BoolSearchError(f"unknown not_mode {mode!r}")
    scores_b = dict(zip(b.ids, b.scores))
    if mode == "hard":
        return RankedList(pair for pair in zip(a.ids, a.scores) if pair[0] not in scores_b)
    return RankedList.from_scores(
        (doc_id, score - scores_b.get(doc_id, 0.0)) for doc_id, score in zip(a.ids, a.scores)
    )


# ---------------------------------------------------------------------------
# Execution


def retrieve_atom(index: Index, atom: str, depth: int) -> RankedList:
    """Candidate list for one atomic query; same contract as index top_k."""
    return _index_top_k(index, atom, depth)


def whole_query_retrieve(index: Index, question: str, k: int) -> RankedList:
    """Baseline: retrieve on the undecomposed question text."""
    return _index_top_k(index, question, k)


def _min_max_normalize(ranked: RankedList) -> RankedList:
    if len(ranked) == 0:
        return ranked
    # min and max, not the last and first items: in [5.0, 0.0, -0.0] the
    # last is -0.0 but min is 0.0, and subtracting -0.0 flips a zero's sign
    low, high = min(ranked.scores), max(ranked.scores)
    if math.isinf(high - low):  # as 1e308 - -1e308: halved, the range is finite
        halved = [score / 2 for score in ranked.scores]
        return _min_max_normalize(RankedList.from_scores(zip(ranked.ids, halved)))
    # scaling can round adjacent scores onto one value; re-sort so the
    # collapsed ties take the ascending-id order
    return RankedList.from_scores(
        (doc_id, (score - low) / (high - low) if high > low else 1.0)
        for doc_id, score in zip(ranked.ids, ranked.scores)
    )


def evaluate_expr(index: Index, expr: BooleanExpr, policy: MergePolicy) -> RankedList:
    """Execute a Boolean expression against an index.

    Leaves retrieve candidate_depth_factor * final_k candidates each;
    internal nodes fold the merge algebra bottom-up; the result is
    truncated to final_k.
    """
    depth = policy.candidate_depth_factor * policy.final_k
    return _evaluate(index, expr, policy, depth).truncate(policy.final_k)


def _evaluate(
    index: Index, expr: BooleanExpr, policy: MergePolicy, depth: int
) -> RankedList:
    if isinstance(expr, Atom):
        ranked = retrieve_atom(index, expr.text, depth)
        return _min_max_normalize(ranked) if policy.normalize else ranked
    left = _evaluate(index, expr.left, policy, depth)
    right = _evaluate(index, expr.right, policy, depth)
    if isinstance(expr, And):
        return merge_and(left, right)
    if isinstance(expr, Or):
        return merge_or(left, right)
    return merge_not(left, right, policy.not_mode)


# ---------------------------------------------------------------------------
# Question decomposition

DECOMPOSER_SYSTEM = (
    "You rewrite a complex question as a Boolean expression over simple, "
    "self-contained questions. Wrap every simple question in double quotes "
    "and join them with the operators AND, OR and NOT, where NOT is binary: "
    "the right-hand side is the topic to exclude. Group with parentheses "
    "when needed. Output only the expression."
)

# Connectives the deterministic fallback splitter recognizes, most
# specific first; NOT-like phrasings are checked before or/and. They match
# the question itself, ASCII letters in any case: its lowercase can be
# longer ("İ" lowers to two characters), so offsets in it would be wrong
_NOT_CONNECTIVES = tuple(
    re.compile(re.escape(connective), re.IGNORECASE | re.ASCII)
    for connective in (
        " but is unrelated to ",
        " but is not related to ",
        " but not related to ",
        " not related to ",
        " but not ",
    )
)
_OR_AND = tuple(
    (re.compile(re.escape(connective), re.IGNORECASE | re.ASCII), node)
    for connective, node in ((" or ", Or), (" and ", And))
)


def fallback_decompose(question: str) -> BooleanExpr:
    """Split a question on surface connectives into an expression.

    Checks NOT-like phrasings first, then "or", then "and"; a question
    with no connective becomes a single atom.
    """
    body = question.strip()
    for connective in _NOT_CONNECTIVES:
        found = connective.search(body)
        if found:
            return Not(
                _fragment_atom(body[: found.start()], question),
                _fragment_atom(body[found.end() :], question),
            )
    for connective, node in _OR_AND:
        parts = connective.split(body, maxsplit=MAX_EXPR_DEPTH + 1)
        if len(parts) > 1:
            if len(parts) > MAX_EXPR_DEPTH + 1:
                raise DecompositionError(
                    f"could not decompose {question!r}: more than {MAX_EXPR_DEPTH} "
                    f"{node.__name__.lower()!r} connectives"
                )
            expr: BooleanExpr = _fragment_atom(parts[0], question)
            for part in parts[1:]:
                expr = node(expr, _fragment_atom(part, question))
            return expr
    return _fragment_atom(body, question)


def _fragment_atom(fragment: str, question: str) -> Atom:
    text = fragment.strip().strip("?,.;").strip()
    if not text:
        raise DecompositionError(
            f"could not decompose {question!r}: empty fragment around a connective"
        )
    return Atom(text)


def decompose_question(question: str, client: ChatClient | None = None) -> BooleanExpr:
    """Turn a complex question into a Boolean expression.

    With a chat client, the model's output is parsed under the query
    grammar; if it does not parse (or no client is given), the
    deterministic fallback splitter is used instead.
    """
    if client is not None:
        raw = client.complete(DECOMPOSER_SYSTEM, f"Question: {question}")
        try:
            return parse_boolean_query(_strip_fences(raw))
        except QuerySyntaxError:
            pass
    return fallback_decompose(question)


def _strip_fences(text: str) -> str:
    cleaned = text.strip()
    if cleaned.startswith("```") and cleaned.endswith("```"):
        cleaned = cleaned[3:-3].strip()
        if cleaned.lower().startswith("text") or cleaned.lower().startswith("boolean"):
            cleaned = cleaned.split("\n", 1)[-1].strip()
    return cleaned
