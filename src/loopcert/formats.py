"""Text formats: rewrite systems, pattern files, certificates, verdicts.

Rewrite systems use the classic parenthesized format

    (VAR x y)
    (RULES
      plus(0,y) -> y
      plus(s(x),y) -> s(plus(x,y))
    )

with the VAR section optional.  Forbidden patterns are one per entry,
``lhs @ position : kind`` with dot-separated positions (``eps`` for the
root) and kind h, a, or b.  Loop certificates are JSON documents; verdicts
render as text or as canonical JSON (sorted keys, two-space indent), and
both renderings are byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .deciders import Evidence, ProblemInstance, Verdict
from .errors import ArityMismatch, ParseError, RuleIndexOutOfRange
from .loops import LoopCertificate, Step
from .problems import (
    ExtendedMatchingProblem,
    MatchingProblem,
    Problem,
    Witness,
)
from .rewriting import ForbiddenPattern, PatternKind, Rule, Trs
from .terms import (
    Application,
    Context,
    HOLE_SYMBOL,
    Position,
    Substitution,
    Term,
    Variable,
    format_position,
)

IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_'+*.-"
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident, lparen, rparen, comma, arrow, hole, at, colon, eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            out.append(Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("[]", i):
            out.append(Token("hole", "[]", line, col))
            i += 2
            col += 2
            continue
        if ch in "(),@:":
            kind = {"(": "lparen", ")": "rparen", ",": "comma", "@": "at", ":": "colon"}[ch]
            out.append(Token(kind, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in IDENT_CHARS:
            j = i
            while j < n and text[j] in IDENT_CHARS:
                if text[j] == "-" and text.startswith("->", j):
                    break
                j += 1
            out.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("eof", "", line, col))
    return out


class _Tokens:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.k = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def next(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return tok


def _parse_term(ts: _Tokens, variables: frozenset[str], allow_hole: bool) -> Term:
    tok = ts.next()
    if tok.kind == "hole":
        if not allow_hole:
            raise ParseError("the hole [] is only allowed in contexts", tok.line, tok.col)
        return Application(HOLE_SYMBOL, ())
    if tok.kind != "ident":
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.col
        )
    if ts.peek().kind != "lparen":
        if tok.text in variables:
            return Variable(tok.text)
        return Application(tok.text, ())
    if tok.text in variables:
        raise ParseError(f"variable {tok.text!r} cannot take arguments", tok.line, tok.col)
    ts.next()
    args = []
    if ts.peek().kind != "rparen":
        args.append(_parse_term(ts, variables, allow_hole))
        while ts.peek().kind == "comma":
            ts.next()
            args.append(_parse_term(ts, variables, allow_hole))
    ts.expect("rparen")
    return Application(tok.text, tuple(args))


def _check_arities(t: Term, signature: dict[str, int]) -> None:
    # Known symbols must keep the system's arity; new symbols must at least
    # be used consistently within this one term.
    seen = dict(signature)
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Application):
            expected = seen.setdefault(s.symbol, len(s.args))
            if expected != len(s.args):
                raise ArityMismatch(
                    f"{s.symbol} used with {len(s.args)} arguments,"
                    f" expected {expected}"
                )
            stack.extend(s.args)


def parse_term(text: str, trs: Trs, allow_hole: bool = False) -> Term:
    ts = _Tokens(tokenize(text))
    t = _parse_term(ts, trs.variables, allow_hole)
    ts.expect("eof")
    _check_arities(t, dict(trs.signature))
    return t


@dataclass(frozen=True)
class TrsDocument:
    """A parsed system file: declared variable order plus rules, as written."""

    variables: tuple[str, ...]
    rules: tuple[Rule, ...]


def parse_trs_document(text: str) -> TrsDocument:
    ts = _Tokens(tokenize(text))
    variables: list[str] = []
    rules: list[Rule] = []
    saw_rules = False
    while ts.peek().kind != "eof":
        ts.expect("lparen")
        head = ts.expect("ident")
        if head.text == "VAR":
            while ts.peek().kind == "ident":
                name = ts.next().text
                if name not in variables:
                    variables.append(name)
            ts.expect("rparen")
        elif head.text == "RULES":
            saw_rules = True
            varset = frozenset(variables)
            while ts.peek().kind != "rparen":
                lhs = _parse_term(ts, varset, allow_hole=False)
                ts.expect("arrow")
                rhs = _parse_term(ts, varset, allow_hole=False)
                rules.append(Rule(lhs, rhs))
            ts.expect("rparen")
        else:
            raise ParseError(
                f"unknown section {head.text!r}, expected VAR or RULES",
                head.line,
                head.col,
            )
    if not saw_rules:
        tok = ts.peek()
        raise ParseError("missing (RULES ...) section", tok.line, tok.col)
    return TrsDocument(tuple(variables), tuple(rules))


def parse_trs(text: str) -> Trs:
    doc = parse_trs_document(text)
    return Trs.from_rules(doc.rules, doc.variables)


def render_trs(doc: TrsDocument) -> str:
    lines = []
    if doc.variables:
        lines.append(f"(VAR {' '.join(doc.variables)})")
    lines.append("(RULES")
    for rule in doc.rules:
        lines.append(f"  {rule.lhs} -> {rule.rhs}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _parse_position_text(text: str, line: int, col: int) -> Position:
    if text == "eps":
        return ()
    parts = text.split(".")
    # ASCII digits only: int() would also read '1_0' as 10, and '+1'.
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ParseError(f"bad position {text!r}", line, col)
    pos = tuple(int(p) for p in parts)
    if any(i < 1 for i in pos):
        raise ParseError(f"position indices start at 1: {text!r}", line, col)
    return pos


def parse_patterns(text: str, trs: Trs) -> tuple[ForbiddenPattern, ...]:
    ts = _Tokens(tokenize(text))
    out = []
    while ts.peek().kind != "eof":
        lhs = _parse_term(ts, trs.variables, allow_hole=False)
        _check_arities(lhs, dict(trs.signature))
        ts.expect("at")
        ptok = ts.expect("ident")
        pos = _parse_position_text(ptok.text, ptok.line, ptok.col)
        ts.expect("colon")
        ktok = ts.expect("ident")
        try:
            kind = PatternKind(ktok.text)
        except ValueError:
            raise ParseError(
                f"pattern kind must be h, a, or b, not {ktok.text!r}",
                ktok.line,
                ktok.col,
            ) from None
        out.append(ForbiddenPattern(lhs, pos, kind))
    return tuple(out)


def render_patterns(patterns: Iterable[ForbiddenPattern]) -> str:
    return "".join(f"{p.lhs} @ {format_position(p.pos)} : {p.kind.value}\n" for p in patterns)


def parse_replacement_map(text: str, trs: Trs) -> dict[str, tuple[int, ...]]:
    """Lines of ``symbol: 1,3``; a bare ``symbol:`` allows no arguments."""
    out: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'symbol: indices'", lineno, 1)
        name, _, rest = line.partition(":")
        name = name.strip()
        if not name or any(ch not in IDENT_CHARS for ch in name):
            raise ParseError(f"bad symbol name {name!r}", lineno, 1)
        indices: list[int] = []
        if rest.strip():
            col = raw.index(":") + 2  # column just after the colon
            for part in rest.split(","):
                digits = part.strip()
                # ASCII digits only: '²'.isdigit() holds, but int('²') raises.
                if not (digits.isascii() and digits.isdigit()):
                    at = col + len(part) - len(part.lstrip())
                    raise ParseError(f"bad argument index {digits!r}", lineno, at)
                indices.append(int(digits))
                col += len(part) + 1
        if name in out:
            raise ParseError(f"symbol {name!r} listed twice", lineno, 1)
        out[name] = tuple(sorted(set(indices)))
    return out


def _cert_error(msg: str) -> ParseError:
    return ParseError(msg, 1, 1)


def parse_loop_certificate(text: str, trs: Trs) -> LoopCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    if not isinstance(doc, dict):
        raise _cert_error("certificate must be a JSON object")
    missing = {"start", "steps", "context", "subst"} - set(doc)
    if missing:
        raise _cert_error(f"certificate misses keys {sorted(missing)}")
    if not isinstance(doc["start"], str):
        raise _cert_error("start must be a term string")
    start = parse_term(doc["start"], trs)
    if not isinstance(doc["steps"], list) or not doc["steps"]:
        raise _cert_error("steps must be a nonempty list")
    steps: list[Step] = []
    for entry in doc["steps"]:
        if not isinstance(entry, list) or not entry:
            raise _cert_error("each step must be a nonempty list of redexes")
        step = []
        for redex in entry:
            if (
                not isinstance(redex, dict)
                or set(redex) != {"pos", "rule"}
                or not isinstance(redex["pos"], list)
                or not all(
                    isinstance(i, int) and not isinstance(i, bool) and i >= 1
                    for i in redex["pos"]
                )
                or not isinstance(redex["rule"], int)
                or isinstance(redex["rule"], bool)
            ):
                raise _cert_error(
                    'each redex must be {"pos": [indices >= 1], "rule": index}'
                )
            if not 0 <= redex["rule"] < len(trs.rules):
                raise RuleIndexOutOfRange(
                    f"rule index {redex['rule']} out of range for a"
                    f" {len(trs.rules)}-rule system"
                )
            step.append((tuple(redex["pos"]), redex["rule"]))
        steps.append(tuple(step))
    if not isinstance(doc["context"], str):
        raise _cert_error("context must be a term string containing []")
    context = Context.from_term(parse_term(doc["context"], trs, allow_hole=True))
    if not isinstance(doc["subst"], dict):
        raise _cert_error("subst must be an object mapping variables to terms")
    mapping = {}
    for name, value in doc["subst"].items():
        if name not in trs.variables:
            raise _cert_error(f"subst binds {name!r}, which is not a declared variable")
        if not isinstance(value, str):
            raise _cert_error(f"subst image of {name!r} must be a term string")
        mapping[name] = parse_term(value, trs)
    return LoopCertificate(start, tuple(steps), context, Substitution(mapping))


def certificate_to_document(cert: LoopCertificate) -> dict:
    return {
        "start": str(cert.start),
        "steps": [
            [{"pos": list(q), "rule": i} for q, i in step] for step in cert.steps
        ],
        "context": str(cert.context.body),
        "subst": {x: str(u) for x, u in cert.subst.items()},
    }


def render_loop_certificate(cert: LoopCertificate) -> str:
    return _json(certificate_to_document(cert))


def _json(doc) -> str:
    """Canonical JSON: byte-identical to
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for documents of
    str, int, None, lists and dicts with str keys; any other value raises
    TypeError, so a bool or float cannot render silently."""
    return _json_value(doc, "\n") + "\n"


def _json_value(v, newline: str) -> str:
    cls = v.__class__
    if cls is str:
        return encode_basestring_ascii(v)
    if cls is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    inner = newline + "  "
    if cls is list:
        if not v:
            return "[]"
        items = [_json_value(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if cls is dict:
        if not v:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        items = [
            encode_basestring_ascii(k) + ": " + _json_value(v[k], inner)
            for k in sorted(v)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"cannot render {cls.__name__} as JSON")


def _subst_to_document(mu: Substitution) -> dict:
    return {x: str(u) for x, u in mu.items()}


def _problem_to_document(problem: Problem) -> dict:
    if isinstance(problem, MatchingProblem):
        return {
            "type": "matching",
            "pairs": [
                {"subject": str(u), "pattern": str(l)} for u, l in problem.pairs
            ],
            "identities": [
                {"left": str(a), "right": str(b)} for a, b in problem.identities
            ],
            "mu": _subst_to_document(problem.mu),
        }
    assert isinstance(problem, ExtendedMatchingProblem)
    return {
        "type": "extended",
        "d": str(problem.d.body),
        "lhs": str(problem.lhs),
        "c": str(problem.c.body),
        "t": str(problem.t),
        "mu": _subst_to_document(problem.mu),
    }


def _instance_to_document(inst: ProblemInstance) -> dict:
    return {
        "step": inst.step,
        "family": inst.family,
        "position": format_position(inst.position) if inst.position is not None else None,
        "rule": inst.rule_index,
        "pattern": str(inst.pattern) if inst.pattern is not None else None,
        "n0": inst.n0,
        "o0prime": (
            format_position(inst.o0prime) if inst.o0prime is not None else None
        ),
        "problem": _problem_to_document(inst.problem),
    }


def _witness_to_document(w: Witness) -> dict:
    if w.n is not None:
        return {"n": w.n}
    return {"m": w.m, "k": w.k}


def _evidence_to_document(ev: Evidence) -> dict:
    w = ev.result.witness
    return {
        "instance": _instance_to_document(ev.instance),
        "witness": _witness_to_document(w),
        "sigma": _subst_to_document(w.sigma) if w.sigma is not None else None,
        "confirmed": (
            {"level": ev.level, "step": ev.violation_step}
            if ev.level is not None
            else None
        ),
    }


def verdict_to_document(v: Verdict) -> dict:
    return {
        "verdict": v.answer,
        "strategy": v.strategy,
        "bound": v.bound,
        "problems": {
            "total": v.total,
            "unsolvable": v.unsolvable,
            "solvable": v.solvable,
            "unknown": v.unknown,
        },
        "evidence": _evidence_to_document(v.evidence) if v.evidence else None,
        "open_problems": [_instance_to_document(i) for i in v.open_problems],
    }


def _instance_to_text(inst: ProblemInstance) -> str:
    bits = [f"step {inst.step}", f"family {inst.family}"]
    if inst.position is not None:
        bits.append(f"position {format_position(inst.position)}")
    if inst.rule_index is not None:
        bits.append(f"rule {inst.rule_index}")
    if inst.pattern is not None:
        bits.append(f"pattern {inst.pattern}")
    if inst.n0 is not None:
        bits.append(f"n0 {inst.n0}")
    if inst.o0prime is not None:
        bits.append(f"o0' {format_position(inst.o0prime)}")
    return ", ".join(bits)


def render_verdict(v: Verdict, fmt: str = "text") -> str:
    if fmt == "json":
        return _json(verdict_to_document(v))
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    stats = (
        f"checked {v.total} problems: {v.unsolvable} unsolvable,"
        f" {v.solvable} solvable, {v.unknown} unknown (bound {v.bound})"
    )
    if v.answer == "yes":
        return f"YES: loop under strategy {v.strategy}\n  {stats}\n"
    if v.answer == "no":
        ev = v.evidence
        w = ev.result.witness
        if w.n is not None:
            witness = f"n={w.n}"
        else:
            witness = f"m={w.m}, k={w.k}"
        if w.sigma is not None:
            witness += f", sigma={w.sigma}"
        lines = [
            f"NO: not a loop under strategy {v.strategy}",
            f"  {stats}",
            f"  evidence at {_instance_to_text(ev.instance)}",
            f"  problem: {ev.instance.problem}",
            f"  witness: {witness}",
        ]
        if ev.level is not None:
            lines.append(
                f"  concrete violation at unrolling level {ev.level},"
                f" step {ev.violation_step}"
            )
        return "\n".join(lines) + "\n"
    lines = [f"UNKNOWN: undecided for strategy {v.strategy}", f"  {stats}"]
    for inst in v.open_problems:
        lines.append(f"  open at {_instance_to_text(inst)}")
        lines.append(f"    problem: {inst.problem}")
    return "\n".join(lines) + "\n"
