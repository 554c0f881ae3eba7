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
from .problems import MatchingProblem
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
# The deepest argument position a parsed term may have.  Matching walks a
# pattern, and parsing walks its input, one interpreter frame per level; this
# keeps both well inside CPython's default recursion limit of 1,000.
MAX_NESTING = 512


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
    depth: int = 0,
) -> Term:
    """Read one term, *depth* levels below the root.  Every application must
    keep the arity recorded in *arities*, and a new symbol is recorded by its
    first application read to its end: an argument before the application
    around it.  No argument may sit deeper than MAX_NESTING."""
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
            if depth == MAX_NESTING:
                raise ParseError(f"term nests deeper than {MAX_NESTING} levels", line, col)
            args.append(_parse_term(ts, variables, allow_hole, arities, depth + 1))
            while ts.peek() == "comma":
                ts.next()
                args.append(_parse_term(ts, variables, allow_hole, arities, depth + 1))
        ts.expect("rparen")
    elif name in variables:
        return Variable(name)
    expected = arities.setdefault(name, len(args))
    if expected != len(args):
        raise ArityMismatch(
            f"{name} used with {len(args)} arguments, expected {expected}", line, col
        )
    return Application(name, tuple(args))


def parse_term(text: str, trs: Trs, allow_hole: bool = False) -> Term:
    ts = _Tokens(tokenize(text))
    t = _parse_term(ts, trs.variables, allow_hole, dict(trs.signature))
    ts.expect("eof")
    return t


def parse_trs(text: str, signature: tuple[tuple[str, int], ...] = ()) -> Trs:
    """Read a system whose symbols keep any arity *signature* gives them."""
    ts = _Tokens(tokenize(text))
    variables: set[str] = set()
    arities = dict(signature)
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
                    raise type(e)(str(e), *where) from None
            ts.expect("rparen")
        else:
            raise ParseError(f"unknown section {head!r}, expected VAR or RULES", line, col)
    if not saw_rules:
        raise ParseError("missing (RULES ...) section", *ts.next()[2:])
    # _parse_term has checked every arity and refused holes, so only a VAR
    # section after rules that used its names as symbols is left to check.
    if variables.isdisjoint(arities):
        return Trs(tuple(rules), frozenset(variables), tuple(sorted(arities.items())))
    return Trs.from_rules(rules, variables)  # names the first clash in preorder


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
            raise PositionOutOfTerm(str(e), *where) from None
    return tuple(out)


def parse_replacement_map(text: str, trs: Trs) -> dict[str, tuple[int, ...]]:
    """Entries ``symbol: 1,3``, one per line; a bare ``symbol:`` allows no
    arguments.  A symbol the system lacks, or an index past its arity, fails
    at its location, as a syntax error does."""
    ts = _Tokens(tokenize(text))
    arities = dict(trs.signature)
    out: dict[str, tuple[int, ...]] = {}
    while ts.peek() != "eof":
        _, name, line, col = ts.expect("ident")
        rest = []  # the tokens after the name on its line: ':' then indices
        while ts.peek() != "eof" and ts.tokens[ts.k][2] == line:
            rest.append(ts.next())
        if not rest or rest[0][0] != "colon":
            raise ParseError(f"expected ':' after symbol {name!r}", line, col)
        if (error := replacement_map_error(name, (), arities)) is not None:
            raise ArityMismatch(error, line, col)
        if name in out:
            raise ParseError(f"symbol {name!r} listed twice", line, col)
        indices: list[int] = []
        for i, (kind, spelled, _, at) in enumerate(rest[1:]):
            if i % 2:
                if kind != "comma":
                    raise ParseError(f"expected ',' or a new line, found {spelled!r}", line, at)
            # ASCII digits only: int() would also read '1_0' as 10, and '+1'.
            elif not (spelled.isascii() and spelled.isdigit()):
                raise ParseError(f"bad argument index {spelled!r}", line, at)
            elif (error := replacement_map_error(name, [int(spelled)], arities)) is not None:
                raise ArityMismatch(error, line, at)
            else:
                indices.append(int(spelled))
        if rest[-1][0] == "comma":
            raise ParseError("expected an argument index after ','", *rest[-1][2:])
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
    except RecursionError:
        raise ParseError("certificate nests too deeply") from None
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
        "context": str(cert.context),
        "subst": {x: str(u) for x, u in cert.subst.items()},
    }


def certificates_to_json(certs: Sequence[LoopCertificate]) -> str:
    """``_json([certificate_to_document(c) for c in certs])``, byte for byte.

    The certificates ``find`` emits share most of their steps and subterms,
    so each distinct step is rendered once per call, and so is each start
    term, substitution image and argument hanging off a context's hole
    spine, through one dict from term to text.  Only the spine itself is
    rendered per certificate.  The dict keeps only whole terms the output
    contains verbatim, so it never outgrows the output.
    """
    if not certs:
        return "[]\n"
    enc = encode_basestring_ascii
    steps: dict[Step, str] = {}
    texts: dict[Term, str] = {}

    def term_text(t: Term) -> str:
        out = texts.get(t)
        if out is None:
            out = texts[t] = str(t)
        return out

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
            + ",\n      ".join(enc(x) + ": " + enc(term_text(u)) for x, u in bindings)
            + "\n    }"
            if bindings
            else "{}"
        )
        out.append(
            '{\n    "context": ' + enc(_context_text(cert.context, term_text))
            + ',\n    "start": ' + enc(term_text(cert.start))
            + ',\n    "steps": [\n      ' + ",\n      ".join(rendered)
            + '\n    ],\n    "subst": ' + subst
            + "\n  }"
        )
    return "[\n  " + ",\n  ".join(out) + "\n]\n"


def _context_text(context: Context, term_text) -> str:
    """``str(context)``, walking only the hole's spine of the context's
    term, whose subterm at the hole is not read: every argument off the
    spine is rendered by *term_text*."""
    head: list[str] = []
    tail: list[str] = []  # closing text of each spine node, innermost last
    u = context.term
    for i in context.hole_pos:
        args = u.args
        head += (u.symbol, "(")
        for a in args[: i - 1]:
            head += (term_text(a), ",")
        tail.append(")")
        for a in reversed(args[i:]):
            tail += (term_text(a), ",")
        u = args[i - 1]
    head.append(HOLE_SYMBOL)
    head += reversed(tail)
    return "".join(head)


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


def _problem_to_document(problem: MatchingProblem) -> dict:
    return {
        "type": "matching",
        "pairs": [{"subject": str(problem.subject), "pattern": str(problem.pattern)}],
        "identities": [],
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


def _witness_to_document(ev: Evidence) -> dict:
    # A slice m's witness n is its extended problem's (m, k = n).
    n, m = ev.result.witness.n, ev.instance.m
    return {"n": n} if m is None else {"m": m, "k": n}


def _evidence_to_document(ev: Evidence) -> dict:
    w = ev.result.witness
    return {
        "instance": _instance_to_document(ev.instance),
        "witness": _witness_to_document(ev),
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
        f" {v.solvable} solvable, {v.unknown} unknown"
    )
    if v.answer == "yes":
        return f"YES: loop under strategy {v.strategy}\n  {stats}\n"
    if v.answer == "no":
        ev = v.evidence
        w = ev.result.witness
        witness = ", ".join(f"{k}={n}" for k, n in _witness_to_document(ev).items())
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
