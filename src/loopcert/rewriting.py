"""Rewrite rules, systems, redex search, and strategy predicates.

A strategy here is a predicate on concrete reduction steps: given a term and
the set of positions contracted in one step, it answers whether the step is
allowed.  Positional strategies (leftmost, innermost, outermost, maximal
parallel) are built in; everything else is expressed through forbidden
patterns, triples (lhs, position, kind) that disallow reduction at, above,
or below an instance of lhs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    ArityMismatch,
    ExtraRhsVariable,
    NotARedex,
    NotParallel,
    PositionOutOfTerm,
    RuleIndexOutOfRange,
    VariableLhs,
)
from .terms import (
    Application,
    HOLE_SYMBOL,
    Position,
    Substitution,
    Term,
    Variable,
    are_parallel,
    format_position,
    is_left_of,
    is_strict_prefix,
    replace_at,
    subterm_at,
    subterms,
    variables_of,
)


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if isinstance(self.lhs, Variable):
            raise VariableLhs(f"rule left-hand side is a variable: {self.lhs}")
        extra = variables_of(self.rhs) - variables_of(self.lhs)
        if extra:
            raise ExtraRhsVariable(
                f"right-hand side of {self} uses fresh {sorted(extra)}"
            )

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class Trs:
    """A finite list of rules with a consistent signature.

    Rule order is meaningful: certificates refer to rules by 0-based index.
    """

    rules: tuple[Rule, ...]
    variables: frozenset[str]
    signature: tuple[tuple[str, int], ...]

    @staticmethod
    def from_rules(rules: Iterable[Rule], variables: Iterable[str]) -> "Trs":
        rules = tuple(rules)
        variables = frozenset(variables)
        arities: dict[str, int] = {}
        for r in rules:
            for t in (r.lhs, r.rhs):
                _collect_signature(t, variables, arities)
        return Trs(rules, variables, tuple(sorted(arities.items())))

    def lhss(self) -> tuple[Term, ...]:
        return tuple(r.lhs for r in self.rules)

    @cached_property
    def rules_by_root(self) -> dict[str, tuple[tuple[int, Rule], ...]]:
        """(index, rule) pairs per root symbol of the left-hand side, in rule order."""
        out: dict[str, list[tuple[int, Rule]]] = {}
        for i, rule in enumerate(self.rules):
            out.setdefault(rule.lhs.symbol, []).append((i, rule))
        return {f: tuple(rules) for f, rules in out.items()}


def _collect_signature(t: Term, variables: frozenset[str], arities: dict[str, int]):
    if isinstance(t, Variable):
        if t.name not in variables:
            raise ArityMismatch(f"undeclared variable {t.name!r}")
        return
    if t.symbol == HOLE_SYMBOL:
        raise ArityMismatch("the hole symbol [] is reserved and cannot appear in rules")
    if t.symbol in variables:
        raise ArityMismatch(f"{t.symbol!r} is declared as a variable but used as a symbol")
    n = len(t.args)
    seen = arities.setdefault(t.symbol, n)
    if seen != n:
        raise ArityMismatch(f"symbol {t.symbol!r} used with arities {seen} and {n}")
    for a in t.args:
        _collect_signature(a, variables, arities)


def match_pattern(pattern: Term, subject: Term) -> Substitution | None:
    """Most general sigma with pattern sigma == subject, or None."""
    env: dict[str, Term] = {}
    if _match_into(pattern, subject, env):
        return Substitution(env)
    return None


def match_many(pairs: Iterable[tuple[Term, Term]]) -> Substitution | None:
    """Joint match of (pattern, subject) pairs under one shared sigma."""
    env: dict[str, Term] = {}
    for pattern, subject in pairs:
        if not _match_into(pattern, subject, env):
            return None
    return Substitution(env)


def _match_into(pattern: Term, subject: Term, env: dict[str, Term]) -> bool:
    if isinstance(pattern, Variable):
        bound = env.get(pattern.name)
        if bound is None:
            env[pattern.name] = subject
            return True
        return bound == subject
    if not isinstance(subject, Application):
        return False
    if pattern.symbol != subject.symbol or len(pattern.args) != len(subject.args):
        return False
    for p, s in zip(pattern.args, subject.args):
        if not _match_into(p, s, env):
            return False
    return True


def redex_positions(t: Term, trs: Trs) -> tuple[tuple[Position, int], ...]:
    """All (position, rule index) pairs where a rule matches, in preorder."""
    by_root = trs.rules_by_root
    out = []
    for p, sub in subterms(t):
        if isinstance(sub, Application):
            for i, rule in by_root.get(sub.symbol, ()):
                if _match_into(rule.lhs, sub, {}):
                    out.append((p, i))
    return tuple(out)


def rewrite_at(t: Term, q: Position, rule: Rule) -> Term:
    sub = subterm_at(t, q)
    sigma = match_pattern(rule.lhs, sub)
    if sigma is None:
        raise NotARedex(f"{rule} does not match {sub} at {format_position(q)}")
    return replace_at(t, q, sigma.apply(rule.rhs))


def parallel_rewrite(t: Term, steps: Iterable[tuple[Position, int]], trs: Trs) -> Term:
    """Contract several pairwise parallel redexes in one step."""
    steps = tuple(steps)
    if not steps:
        raise NotParallel("a parallel step needs at least one position")
    ps = [q for q, _ in steps]
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if not are_parallel(ps[i], ps[j]):
                raise NotParallel(
                    f"positions {format_position(ps[i])} and {format_position(ps[j])}"
                    " are not parallel"
                )
    # Parallel positions never overlap, so sequential application commutes.
    for q, i in steps:
        if not 0 <= i < len(trs.rules):
            raise RuleIndexOutOfRange(f"rule index {i} out of range")
        t = rewrite_at(t, q, trs.rules[i])
    return t


class PatternKind(enum.Enum):
    HERE = "h"
    ABOVE = "a"
    BELOW = "b"


@dataclass(frozen=True)
class ForbiddenPattern:
    """(lhs, pos, kind): no reduction at/above/below position o'.pos of any
    subterm t|_(o') that is an instance of lhs."""

    lhs: Term
    pos: Position
    kind: PatternKind

    def __post_init__(self):
        try:
            subterm_at(self.lhs, self.pos)
        except PositionOutOfTerm:
            raise PositionOutOfTerm(
                f"pattern position {format_position(self.pos)} not in {self.lhs}"
            ) from None

    def __str__(self) -> str:
        return f"{self.lhs} @ {format_position(self.pos)} : {self.kind.value}"


def strategy_allows(
    t: Term,
    step_positions: Iterable[Position],
    trs: Trs,
    check: str,
    patterns: Iterable[ForbiddenPattern] = (),
) -> bool:
    """Whether contracting exactly the given redex positions respects one
    strategy component: leftmost, innermost, outermost, max-parallel, or
    forbidden (with its patterns).  Innermost and outermost are checked
    natively here, independently of their forbidden-pattern encodings."""
    qs = sorted(set(step_positions))
    if not qs:
        raise NotParallel("a step needs at least one position")
    redexes = {p for p, _ in redex_positions(t, trs)}
    for q in qs:
        if q not in redexes:
            raise NotARedex(f"no redex at {format_position(q)} in {t}")

    if check == "leftmost":
        if len(qs) != 1:
            return False
        return not any(is_left_of(r, qs[0]) for r in redexes)

    if check == "innermost":
        return all(
            not any(is_strict_prefix(q, r) for r in redexes) for q in qs
        )

    if check == "outermost":
        return all(
            not any(is_strict_prefix(r, q) for r in redexes) for q in qs
        )

    if check == "max-parallel":
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                if not are_parallel(qs[i], qs[j]):
                    return False
        qset = set(qs)
        for r in redexes:
            if r not in qset and all(are_parallel(r, q) for q in qs):
                return False
        return True

    if check == "forbidden":
        if len(qs) != 1:
            return False
        q = qs[0]
        for pat in patterns:
            for oprime, sub in subterms(t):
                if match_pattern(pat.lhs, sub) is None:
                    continue
                anchor = oprime + pat.pos
                if pat.kind is PatternKind.HERE and q == anchor:
                    return False
                if pat.kind is PatternKind.ABOVE and is_strict_prefix(q, anchor):
                    return False
                if pat.kind is PatternKind.BELOW and is_strict_prefix(anchor, q):
                    return False
        return True

    raise ValueError(f"unknown strategy component {check!r}")


# Forbidden-pattern sets for the classical strategies.  Innermost forbids
# reduction strictly above any redex, outermost strictly below; both come out
# as one pattern per left-hand side.  Q-restricted rewriting is innermost
# with respect to Q's left-hand sides.


def innermost_patterns(lhss: Iterable[Term]) -> tuple[ForbiddenPattern, ...]:
    return tuple(ForbiddenPattern(l, (), PatternKind.ABOVE) for l in lhss)


def outermost_patterns(lhss: Iterable[Term]) -> tuple[ForbiddenPattern, ...]:
    return tuple(ForbiddenPattern(l, (), PatternKind.BELOW) for l in lhss)


def replacement_map_error(
    f: str, indices: Iterable[int], arities: Mapping[str, int]
) -> str | None:
    """Why ``f: indices`` is no replacement-map entry for these arities, or None."""
    n = arities.get(f)
    if n is None:
        return f"replacement map names unknown symbol {f!r}"
    bad = [i for i in indices if not 1 <= i <= n]
    return f"replacement map for {f!r} (arity {n}) lists arguments {bad}" if bad else None


def context_sensitive_patterns(
    mapping: Mapping[str, Iterable[int]], trs: Trs
) -> tuple[ForbiddenPattern, ...]:
    """Forbid steps at and below every argument the replacement map omits.

    The map lists, per symbol, the argument indices that may be reduced
    under; a symbol it does not name keeps all of its arguments.
    """
    given = {f: sorted(set(ix)) for f, ix in sorted(mapping.items())}
    arities = dict(trs.signature)
    for f, allowed in given.items():
        if (error := replacement_map_error(f, allowed, arities)) is not None:
            raise ArityMismatch(error)
    out = []
    for f, n in trs.signature:
        allowed = set(given.get(f, range(1, n + 1)))
        if not n:
            continue
        args = tuple(Variable(f"x{i}") for i in range(1, n + 1))
        lhs = Application(f, args)
        for i in range(1, n + 1):
            if i in allowed:
                continue
            out.append(ForbiddenPattern(lhs, (i,), PatternKind.HERE))
            out.append(ForbiddenPattern(lhs, (i,), PatternKind.BELOW))
    return tuple(out)
