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
from collections.abc import Iterable, Mapping
from functools import cached_property

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
    Value,
    Variable,
    are_parallel,
    format_position,
    is_strict_prefix,
    replace_at,
    subterm_at,
    subterms,
    variables_of,
)


class Rule(Value):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs, self.rhs = lhs, rhs
        if isinstance(lhs, Variable):
            raise VariableLhs(f"rule left-hand side is a variable: {lhs}")
        extra = variables_of(rhs) - variables_of(lhs)
        if extra:
            raise ExtraRhsVariable(
                f"right-hand side of {self} uses fresh {sorted(extra)}"
            )

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


class Trs(Value):
    """A finite list of rules with a consistent signature.

    Rule order is meaningful: certificates refer to rules by 0-based index.
    """

    _fields = ("rules", "variables", "signature")  # signature: sorted (symbol, arity) pairs
    __slots__ = _fields + ("__dict__",)  # the cached properties live in __dict__

    def __init__(self, rules: tuple[Rule, ...], variables: frozenset[str], signature: tuple):
        self.rules, self.variables, self.signature = rules, variables, signature

    @staticmethod
    def from_rules(rules: Iterable[Rule], variables: Iterable[str]) -> "Trs":
        rules = tuple(rules)
        variables = frozenset(variables)
        arities: dict[str, int] = {}
        # Each rule's sides in preorder, left to right: the first fault is reported.
        stack = [side for r in reversed(rules) for side in (r.rhs, r.lhs)]
        while stack:
            u = stack.pop()
            if u.__class__ is Variable:
                if u.name not in variables:
                    raise ArityMismatch(f"undeclared variable {u.name!r}")
                continue
            f, args = u.symbol, u.args
            if f == HOLE_SYMBOL:
                raise ArityMismatch("the hole symbol [] is reserved and cannot appear in rules")
            if f in variables:
                raise ArityMismatch(f"{f!r} is declared as a variable but used as a symbol")
            seen = arities.setdefault(f, len(args))
            if seen != len(args):
                raise ArityMismatch(f"symbol {f!r} used with arities {seen} and {len(args)}")
            stack += args[::-1]
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

    # The module-level builders over the system's own left-hand sides.
    innermost_patterns = cached_property(lambda self: innermost_patterns(self.lhss()))
    outermost_patterns = cached_property(lambda self: outermost_patterns(self.lhss()))

    @cached_property
    def producers(self) -> dict[str, frozenset[str]]:
        """Per symbol h, the left-hand side roots g of the rules whose
        right-hand side holds h: the redex roots of the rewrites that can
        bring h into a term."""
        out: dict[str, set[str]] = {}
        for rule in self.rules:
            stack = [rule.rhs]
            while stack:
                u = stack.pop()
                if u.__class__ is Application:
                    out.setdefault(u.symbol, set()).add(rule.lhs.symbol)
                    stack += u.args
        return {h: frozenset(gs) for h, gs in out.items()}


def match_pattern(pattern: Term, subject: Term) -> Substitution | None:
    """Most general sigma with pattern sigma == subject, or None."""
    env: dict[str, Term] = {}
    if _match_into(pattern, subject, env):
        return Substitution(env)
    return None


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


def _is_redex(u: Term, trs: Trs) -> bool:
    rules = trs.rules_by_root.get(u.symbol, ()) if u.__class__ is Application else ()
    return any(_match_into(rule.lhs, u, {}) for _, rule in rules)


def _holds_redex(terms: Iterable[Term], trs: Trs) -> bool:
    """Whether a subterm of one of the terms is a redex."""
    return any(_is_redex(s, trs) for u in terms for _, s in subterms(u))


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


def contract(redex: Term, rule: Rule, q: Position = ()) -> Term:
    """The contractum of redex by rule; q only locates the error."""
    sigma = match_pattern(rule.lhs, redex)
    if sigma is None:
        raise NotARedex(f"{rule} does not match {redex} at {format_position(q)}")
    return sigma.apply(rule.rhs)


def rewrite_at(t: Term, q: Position, rule: Rule) -> Term:
    return replace_at(t, q, contract(subterm_at(t, q), rule, q))


def parallel_rewrite(
    t: Term,
    steps: Iterable[tuple[Position, int]],
    trs: Trs,
    contracta: dict[tuple[Term, int], Term] | None = None,
) -> Term:
    """Contract several pairwise parallel redexes in one step.

    *contracta* maps (redex, rule index) to the contractum; it is read and
    extended, so one map can serve many steps.  The positions, their
    parallelism and the rule indices are checked on every call.
    """
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
    if contracta is None:
        contracta = {}
    # Parallel positions never overlap, so sequential application commutes.
    for q, i in steps:
        if not 0 <= i < len(trs.rules):
            raise RuleIndexOutOfRange(f"rule index {i} out of range")
        redex = subterm_at(t, q)
        c = contracta.get((redex, i))
        if c is None:
            c = contracta[redex, i] = contract(redex, trs.rules[i], q)
        t = replace_at(t, q, c)
    return t


class PatternKind(enum.Enum):
    HERE = "h"
    ABOVE = "a"
    BELOW = "b"


class ForbiddenPattern(Value):
    """(lhs, pos, kind): no reduction at/above/below position o'.pos of any
    subterm t|_(o') that is an instance of lhs."""

    __slots__ = _fields = ("lhs", "pos", "kind")

    def __init__(self, lhs: Term, pos: Position, kind: PatternKind):
        try:
            subterm_at(lhs, pos)
        except PositionOutOfTerm:
            raise PositionOutOfTerm(
                f"pattern position {format_position(pos)} not in {lhs}"
            ) from None
        self.lhs, self.pos, self.kind = lhs, pos, kind

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
    natively here, independently of their forbidden-pattern encodings.  Past
    the redex check at each position, leftmost reads the nodes left of it,
    innermost those below, outermost those above; the others the whole term."""
    qs = sorted(set(step_positions))
    if not qs:
        raise NotParallel("a step needs at least one position")
    for q in qs:
        try:
            redex = _is_redex(subterm_at(t, q), trs)
        except PositionOutOfTerm:
            redex = False
        if not redex:
            raise NotARedex(f"no redex at {format_position(q)} in {t}")

    if check == "leftmost":
        if len(qs) != 1:
            return False
        q = qs[0]
        left = (a for k, i in enumerate(q) for a in subterm_at(t, q[:k]).args[: i - 1])
        return not _holds_redex(left, trs)

    if check == "innermost":
        return not any(_holds_redex(subterm_at(t, q).args, trs) for q in qs)

    if check == "outermost":
        return not any(_is_redex(subterm_at(t, q[:k]), trs) for q in qs for k in range(len(q)))

    if check == "max-parallel":
        if not all(are_parallel(a, b) for i, a in enumerate(qs) for b in qs[i + 1 :]):
            return False
        redexes = (r for r, _ in redex_positions(t, trs) if r not in qs)
        return not any(all(are_parallel(r, q) for q in qs) for r in redexes)

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
