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
import re
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .deciders import Evidence, ProblemInstance, Verdict
from .errors import (
    ArityMismatch,
    ExtraRhsVariable,
    LoopcertError,
    ParseError,
    PositionOutOfTerm,
    RuleIndexOutOfRange,
    VariableLhs,
)
from .loops import LoopCertificate, Step
from .problems import (
    ExtendedMatchingProblem,
    MatchingProblem,
    Problem,
    Witness,
)
from .rewriting import ForbiddenPattern, PatternKind, Rule, Trs, replacement_map_error
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

# An identifier may contain '-' but stops before an arrow '->'.
_IDENT = r"(?:[A-Za-z0-9_'+*.]|-(?!>))+"
_SCANNER = re.compile(
    rf"(?P<ident>{_IDENT})|(?P<arrow>->)|(?P<hole>\[\])|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<comma>,)|(?P<at>@)|(?P<colon>:)|(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<bad>.)",
    re.DOTALL,
)
_IDENT_NAME = re.compile(_IDENT)
_BLANKS = " \t\r"  # the space group of _SCANNER


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) per token, ending with an "eof" token."""
    out = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        out.append((kind, m.group(), line, col))
    out.append(("eof", "", line, len(text) - line_start + 1))
    return out


class _Tokens:
    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.k = 0

    def peek(self) -> str:
        return self.tokens[self.k][0]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", *tok[2:])
        return tok


def _parse_term(
    ts: _Tokens,
    variables: frozenset[str],
    allow_hole: bool,
    arities: dict[str, int],
) -> Term:
    """Read one term.  Every application must keep the arity recorded in
    *arities*, and a new symbol is recorded by its first application read to
    its end: an argument before the application around it."""
    kind, name, line, col = ts.next()
    if kind == "hole":
        if not allow_hole:
            raise ParseError("the hole [] is only allowed in contexts", line, col)
        return Application(HOLE_SYMBOL, ())
    if kind != "ident":
        raise ParseError(f"expected a term, found {name or 'end of input'!r}", line, col)
    args = []
    if ts.peek() == "lparen":
        if name in variables:
            raise ParseError(f"variable {name!r} cannot take arguments", line, col)
        ts.next()
        if ts.peek() != "rparen":
            args.append(_parse_term(ts, variables, allow_hole, arities))
            while ts.peek() == "comma":
                ts.next()
                args.append(_parse_term(ts, variables, allow_hole, arities))
        ts.expect("rparen")
    elif name in variables:
        return Variable(name)
    expected = arities.setdefault(name, len(args))
    if expected != len(args):
        raise ArityMismatch(
            f"{name} used with {len(args)} arguments, expected {expected}"
            f" (line {line}, column {col})"
        )
    return Application(name, tuple(args))


def parse_term(text: str, trs: Trs, allow_hole: bool = False) -> Term:
    ts = _Tokens(tokenize(text))
    t = _parse_term(ts, trs.variables, allow_hole, dict(trs.signature))
    ts.expect("eof")
    return t


def _located(error: LoopcertError, line: int, col: int) -> LoopcertError:
    """The same error, with an input location appended to its message."""
    return type(error)(f"{error} (line {line}, column {col})")


def parse_trs(text: str) -> Trs:
    ts = _Tokens(tokenize(text))
    variables: set[str] = set()
    arities: dict[str, int] = {}
    rules: list[Rule] = []
    saw_rules = False
    while ts.peek() != "eof":
        ts.expect("lparen")
        _, head, line, col = ts.expect("ident")
        if head == "VAR":
            while ts.peek() == "ident":
                variables.add(ts.next()[1])
            ts.expect("rparen")
        elif head == "RULES":
            saw_rules = True
            varset = frozenset(variables)
            while ts.peek() != "rparen":
                where = ts.tokens[ts.k][2:]
                lhs = _parse_term(ts, varset, False, arities)
                ts.expect("arrow")
                rhs = _parse_term(ts, varset, False, arities)
                try:
                    rules.append(Rule(lhs, rhs))
                except (VariableLhs, ExtraRhsVariable) as e:
                    raise _located(e, *where) from None
            ts.expect("rparen")
        else:
            raise ParseError(f"unknown section {head!r}, expected VAR or RULES", line, col)
    if not saw_rules:
        raise ParseError("missing (RULES ...) section", *ts.next()[2:])
    # The whole-system check: a VAR section may follow rules that used its names.
    return Trs.from_rules(rules, variables)


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
    while ts.peek() != "eof":
        # Each pattern is checked against the system alone, not the others.
        lhs = _parse_term(ts, trs.variables, False, arities=dict(trs.signature))
        ts.expect("at")
        _, spelled, *where = ts.expect("ident")
        pos = _parse_position_text(spelled, *where)
        ts.expect("colon")
        _, name, line, col = ts.expect("ident")
        try:
            kind = PatternKind(name)
        except ValueError:
            raise ParseError(
                f"pattern kind must be h, a, or b, not {name!r}", line, col
            ) from None
        try:
            out.append(ForbiddenPattern(lhs, pos, kind))
        except PositionOutOfTerm as e:
            raise _located(e, *where) from None
    return tuple(out)


def parse_replacement_map(text: str, trs: Trs) -> dict[str, tuple[int, ...]]:
    """Lines of ``symbol: 1,3``; a bare ``symbol:`` allows no arguments.

    Only the blanks ``tokenize`` skips are trimmed, so any other whitespace
    is part of a name or an index and fails there with its location.  A
    symbol the system lacks, or an index past its arity, fails there too.
    """
    arities = dict(trs.signature)
    out: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_BLANKS)
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'symbol: indices'", lineno, 1)
        name, _, rest = line.partition(":")
        name = name.strip(_BLANKS)
        at = len(raw) - len(raw.lstrip(_BLANKS)) + 1  # column of the name
        if not _IDENT_NAME.fullmatch(name):
            raise ParseError(f"bad symbol name {name!r}", lineno, at)
        if (error := replacement_map_error(name, (), arities)) is not None:
            raise _located(ArityMismatch(error), lineno, at)
        indices: list[int] = []
        if rest.strip(_BLANKS):
            col = raw.index(":") + 2  # column just after the colon
            for part in rest.split(","):
                digits = part.strip(_BLANKS)
                spot = col + len(part) - len(part.lstrip(_BLANKS))
                # ASCII digits only: '²'.isdigit() holds, but int('²') raises.
                if not (digits.isascii() and digits.isdigit()):
                    raise ParseError(f"bad argument index {digits!r}", lineno, spot)
                indices.append(int(digits))
                if (error := replacement_map_error(name, indices[-1:], arities)) is not None:
                    raise _located(ArityMismatch(error), lineno, spot)
                col += len(part) + 1
        if name in out:
            raise ParseError(f"symbol {name!r} listed twice", lineno, at)
        out[name] = tuple(sorted(set(indices)))
    return out


def _term_field(field: str, value, trs: Trs, allow_hole: bool = False) -> Term:
    """A certificate field's term string, parsed.  An error names the field,
    since the line and column of a term error count within the string."""
    if not isinstance(value, str):
        raise ParseError(f"{field} must be a term string")
    try:
        return parse_term(value, trs, allow_hole)
    except LoopcertError as e:
        e.args = (f"{field}: {e}",)
        raise


def parse_loop_certificate(text: str, trs: Trs) -> LoopCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    missing = {"start", "steps", "context", "subst"} - set(doc)
    if missing:
        raise ParseError(f"certificate misses keys {sorted(missing)}")
    start = _term_field("start", doc["start"], trs)
    if not isinstance(doc["steps"], list) or not doc["steps"]:
        raise ParseError("steps must be a nonempty list")
    steps: list[Step] = []
    for i, entry in enumerate(doc["steps"], start=1):
        if not isinstance(entry, list) or not entry:
            raise ParseError(f"step {i}: each step must be a nonempty list of redexes")
        step = []
        for j, redex in enumerate(entry, start=1):
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
                raise ParseError(
                    f"step {i}, redex {j}: each redex must be"
                    ' {"pos": [indices >= 1], "rule": index}'
                )
            if not 0 <= redex["rule"] < len(trs.rules):
                raise RuleIndexOutOfRange(
                    f"step {i}, redex {j}: rule index {redex['rule']} out of range for a"
                    f" {len(trs.rules)}-rule system"
                )
            step.append((tuple(redex["pos"]), redex["rule"]))
        steps.append(tuple(step))
    context = Context.from_term(_term_field("context", doc["context"], trs, True))
    if not isinstance(doc["subst"], dict):
        raise ParseError("subst must be an object mapping variables to terms")
    mapping = {}
    for name, value in doc["subst"].items():
        if name not in trs.variables:
            raise ParseError(f"subst binds {name!r}, which is not a declared variable")
        mapping[name] = _term_field(f"subst {name}", value, trs)
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


def certificates_to_json(certs: Sequence[LoopCertificate]) -> str:
    """``_json([certificate_to_document(c) for c in certs])``, byte for byte.

    The certificates ``find`` emits share most of their steps, so each
    distinct step is rendered once per call.
    """
    if not certs:
        return "[]\n"
    enc = encode_basestring_ascii
    steps: dict[Step, str] = {}
    out = []
    for cert in certs:
        rendered = []
        for step in cert.steps:
            text = steps.get(step)
            if text is None:
                doc = [{"pos": list(q), "rule": i} for q, i in step]
                text = steps[step] = _json_value(doc, "\n      ")
            rendered.append(text)
        bindings = cert.subst.items()
        subst = (
            "{\n      "
            + ",\n      ".join(enc(x) + ": " + enc(str(u)) for x, u in bindings)
            + "\n    }"
            if bindings
            else "{}"
        )
        out.append(
            '{\n    "context": ' + enc(str(cert.context.body))
            + ',\n    "start": ' + enc(str(cert.start))
            + ',\n    "steps": [\n      ' + ",\n      ".join(rendered)
            + '\n    ],\n    "subst": ' + subst
            + "\n  }"
        )
    return "[\n  " + ",\n  ".join(out) + "\n]\n"


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


def _instance_fields(inst: ProblemInstance) -> dict:
    """An instance's fields without its problem, in the order the text lists them."""
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
    }


def _instance_to_document(inst: ProblemInstance) -> dict:
    doc = _instance_fields(inst)
    doc["problem"] = _problem_to_document(inst.problem)
    return doc


def _witness_to_document(w: Witness) -> dict:
    if w.n is not None:
        return {"n": w.n}
    return {"m": w.m, "k": w.k}


def _evidence_to_document(ev: Evidence) -> dict:
    w = ev.result.witness
    return {
        "instance": _instance_to_document(ev.instance),
        "witness": _witness_to_document(w),
        "sigma": _subst_to_document(w.sigma),
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
        "open_problems": [
            {**_instance_to_document(inst), "stopped": res.note}
            for inst, res in v.open_problems
        ],
    }


# The one field whose text label differs from its JSON key.
_TEXT_LABELS = {"o0prime": "o0'"}


def _instance_to_text(inst: ProblemInstance) -> str:
    return ", ".join(
        f"{_TEXT_LABELS.get(key, key)} {value}"
        for key, value in _instance_fields(inst).items()
        if value is not None
    )


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
        witness = ", ".join(f"{k}={n}" for k, n in _witness_to_document(w).items())
        lines = [
            f"NO: not a loop under strategy {v.strategy}",
            f"  {stats}",
            f"  evidence at {_instance_to_text(ev.instance)}",
            f"  problem: {ev.instance.problem}",
            f"  witness: {witness}, sigma={w.sigma}",
        ]
        if ev.level is not None:
            lines.append(
                f"  concrete violation at unrolling level {ev.level},"
                f" step {ev.violation_step}"
            )
        return "\n".join(lines) + "\n"
    lines = [f"UNKNOWN: undecided for strategy {v.strategy}", f"  {stats}"]
    for inst, res in v.open_problems:
        lines.append(f"  open at {_instance_to_text(inst)}")
        lines.append(f"    problem: {inst.problem}")
        lines.append(f"    stopped: {res.note}")
    return "\n".join(lines) + "\n"
