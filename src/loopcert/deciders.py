"""Deciding whether a validated loop survives under a strategy.

For each certificate step the decider builds a finite set of matching
problems whose solvability is equivalent to some unrolling of that step
violating the strategy.  All problems unsolvable means the loop is a loop
under the strategy for every unrolling level; one solvable problem refutes
it and yields a concrete violation; anything left unknown keeps the verdict
open.

Problem families by strategy:

* leftmost: a redex to the left of the contracted position could appear in
  the step's own term, inside a pumped substitution image, in the closing
  context, or in an image of a context variable.
* forbidden pattern (lhs, o, kind): the pattern instance could anchor so
  that the contracted position is at / below / above the designated spot.
  Instances strictly above the hole spine need extended problems that pump
  the context as well.
* maximal parallel: same four families as leftmost with "left of" replaced
  by "parallel to all contracted positions".

Innermost and outermost are the forbidden-pattern encodings over the
system's own left-hand sides; the parallel variants check each contracted
position separately and add the maximal-parallel families when required.
STRATEGIES below says which of these components each named strategy uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ShapeMismatch, VariableRedex
from .loops import ValidatedLoop, unroll_loop
from .problems import (
    DeciderConfig,
    ExtendedMatchingProblem,
    MatchingProblem,
    Problem,
    Solvable,
    SolverResult,
    Unknown,
    Unsolvable,
    solve_problem,
)
from .rewriting import (
    ForbiddenPattern,
    PatternKind,
    Trs,
    innermost_patterns,
    outermost_patterns,
    strategy_allows,
)
from .terms import (
    Context,
    Position,
    Substitution,
    Term,
    Variable,
    apply_context_substitution,
    is_left_of,
    is_strict_prefix,
    are_parallel,
    format_position,
    positions,
    subterm_at,
    subterms,
    term_size,
    variable_closure,
)

# What each strategy means: whether it applies to single-redex certificates
# only, and its components in report order.  A component is a problem source
# and a replay check at once: leftmost and max-parallel have their own
# families; innermost, outermost and forbidden are forbidden-pattern sets,
# posed at every contracted position of a step.  Full and parallel rewriting
# have no components, so every loop is a loop under them.
STRATEGIES: dict[str, tuple[bool, tuple[str, ...]]] = {
    "full": (True, ()),
    "leftmost": (True, ("leftmost",)),
    "innermost": (True, ("innermost",)),
    "outermost": (True, ("outermost",)),
    "leftmost-innermost": (True, ("leftmost", "innermost")),
    "leftmost-outermost": (True, ("leftmost", "outermost")),
    "forbidden": (True, ("forbidden",)),
    "parallel": (False, ()),
    "parallel-innermost": (False, ("innermost",)),
    "parallel-outermost": (False, ("outermost",)),
    "max-parallel": (False, ("max-parallel",)),
    "max-parallel-innermost": (False, ("max-parallel", "innermost")),
    "max-parallel-outermost": (False, ("max-parallel", "outermost")),
}


@dataclass(frozen=True)
class StrategySpec:
    """A decidable strategy: a canonical name, plus patterns when forbidden."""

    name: str
    patterns: tuple[ForbiddenPattern, ...] = ()
    label: str | None = None  # how the user spelled it, for reports

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.name!r}")
        if self.patterns and "forbidden" not in STRATEGIES[self.name][1]:
            raise ValueError("only the forbidden strategy carries patterns")
        if self.label is None:
            object.__setattr__(self, "label", self.name)


@dataclass(frozen=True)
class ProblemInstance:
    """A problem plus where it came from, for reporting and evidence."""

    problem: Problem
    family: str
    step: int = 0  # 1-based certificate step
    position: Position | None = None
    rule_index: int | None = None
    pattern: ForbiddenPattern | None = None
    n0: int | None = None
    o0prime: Position | None = None


def _dedup(instances: Iterable[ProblemInstance]) -> tuple[ProblemInstance, ...]:
    """The first instance of each distinct problem, in order."""
    first: dict[Problem, ProblemInstance] = {}
    for inst in instances:
        first.setdefault(inst.problem, inst)
    return tuple(first.values())


class _Shared:
    """What problem generation needs of the closing pair (C, mu), built once
    per decision and shared by every step, strategy component and pattern."""

    def __init__(self, c: Context, mu: Substitution):
        self.c = c
        self.mu = mu
        self.c_mu = c.substitute(mu)
        # C restricted to each strict prefix of its hole position, shortest first.
        self.subcontexts = [c.subcontext(c.hole_pos[:cut]) for cut in range(len(c.hole_pos))]
        self._images: dict[Term, list[Term]] = {}

    def images(self, u: Term) -> list[Term]:
        """Subterms of x mu in preorder, for x over u's variable closure by name."""
        out = self._images.get(u)
        if out is None:
            out = self._images[u] = [
                s
                for x in sorted(variable_closure(u, self.mu))
                for _, s in subterms(self.mu.apply(Variable(x)))
            ]
        return out


def _split_rows(sh: _Shared, t: Term, qs: list[Position], prefix: str, beside):
    """Rows of the leftmost or max-parallel families: subjects at spots p with
    beside(p, q) for every contracted q of the step, or for the hole in C."""
    # Per side: the subterms themselves, then the pumped images below them.
    rows = []
    for body, at, families in (
        (t, qs, (f"{prefix}-term", f"{prefix}-image")),
        (sh.c.body, (sh.c.hole_pos,), (f"{prefix}-context", f"{prefix}-context-image")),
    ):
        spots = [(p, u) for p, u in subterms(body) if all(beside(p, q) for q in at)]
        for family, subjects_of in zip(families, (lambda u: (u,), sh.images)):
            seen: set[Term] = set()
            for p, u in spots:
                for v in subjects_of(u):
                    # A repeated subject only repeats problems posed above.
                    if v not in seen:
                        seen.add(v)
                        rows.append((family, p, None, None, v, None))
    return rows


def solve_position_equation(
    p: Position, q: Position, o: Position
) -> tuple[int, Position] | None:
    """Least n0 and tail o0' with p^n0 q = o0' o, if the equation has solutions.

    Solutions of p^n q = o' o come in the family (n0 + k, p^k o0'), so one
    base case describes them all.  None means no unrolling lines the pattern
    position up with the contracted position.
    """
    n0 = _least_n0(p, q, o)
    full = p * n0 + q
    if len(full) < len(o) or full[len(full) - len(o):] != o:
        return None
    return n0, full[: len(full) - len(o)]


def _least_n0(p: Position, q: Position, o: Position) -> int:
    """Least n0 with |p^n0 q| >= |o|; used by the above/below families."""
    if not p:
        return 0
    return max(0, math.ceil(max(0, len(o) - len(q)) / len(p)))


# A row is the left-hand-side-independent part of one problem instance:
# (family, position, n0, o0', subject, D), with D the subcontext of an
# extended problem and None for a matching problem.  Crossing rows with
# left-hand sides gives the instances.  A pattern family's rows at one step
# position form a frame, shared by every pattern of the same kind and spot.


def _here_frame(sh: _Shared, t: Term, q: Position, o: Position, cut: int | None = None):
    # With a cut, the anchor sits at the step's own prefix q[:cut] instead.
    sol = solve_position_equation(sh.c.hole_pos, q[:cut], o)
    if sol is None:
        return []
    n0, o0prime = sol
    base = apply_context_substitution(t, sh.c, sh.mu, n0)
    family = "pattern-here" if cut is None else "pattern-below-prefix"
    return [(family, q, n0, o0prime, subterm_at(base, o0prime), None)]


def _above_frame(sh: _Shared, t: Term, q: Position, o: Position):
    redex = subterm_at(t, q)
    if isinstance(redex, Variable):
        raise VariableRedex(f"subterm at {format_position(q)} of {t} is a variable")
    p = sh.c.hole_pos
    n0 = _least_n0(p, q, o)
    base = apply_context_substitution(t, sh.c, sh.mu, n0)
    # Anchors o2 on a path into the redex with the redex position rp strictly
    # below o2 o: the prefixes of rp whose rest is a strict prefix of o, and
    # every position strictly inside the redex.
    rp = p * n0 + q
    anchors = [rp[:cut] for cut in range(len(rp) + 1) if is_strict_prefix(rp[cut:], o)]
    anchors += [rp + q2 for q2 in positions(redex) if q2]
    frame = [
        ("pattern-above-term", q, n0, o2, subterm_at(base, o2), None)
        for o2 in sorted(anchors)
    ]
    frame += [("pattern-above-image", q, n0, None, u, None) for u in sh.images(redex)]
    return frame


def _below_frame(sh: _Shared, t: Term, q: Position, o: Position):
    # Anchors weakly above the contracted position reduce to here-problems at
    # the step's own prefixes; anchors crossing the hole spine into outer
    # context copies become extended problems that pump the context too.
    frame = []
    for cut in range(len(q)):
        frame += _here_frame(sh, t, q, o, cut)
    p = sh.c.hole_pos
    for d in sh.subcontexts:
        p2 = d.hole_pos
        # Least n0 with |p2| + n0 |p| > |o|; p2 is never the root here.
        n0 = _least_n0(p, p2[1:], o)
        if is_strict_prefix(o, p2 + p * n0):
            subject = sh.mu.apply(apply_context_substitution(t, sh.c, sh.mu, n0))
            frame.append(("pattern-below-context", q, n0, None, subject, d))
    return frame


_FRAMES = {
    PatternKind.HERE: _here_frame,
    PatternKind.ABOVE: _above_frame,
    PatternKind.BELOW: _below_frame,
}


def _cross(sh: _Shared, step: int, rows, lhss) -> list[ProblemInstance]:
    """Each row against each (lhs, rule index, pattern), rows outermost."""
    mu = sh.mu
    return [
        ProblemInstance(
            MatchingProblem(((u, lhs),), mu)
            if d is None
            else ExtendedMatchingProblem(d, lhs, sh.c_mu, u, mu),
            family, step, pos, ri, pat, n0, o0prime,
        )
        for family, pos, n0, o0prime, u, d in rows
        for lhs, ri, pat in lhss
    ]


def step_problems(
    loop: ValidatedLoop,
    trs: Trs,
    spec: StrategySpec,
) -> tuple[ProblemInstance, ...]:
    """All problem instances for the loop under the strategy, in report order.

    Equal problems within one step are reported once; across steps they
    repeat, and each repeat counts as an instance.
    """
    cert = loop.certificate
    sequential, components = STRATEGIES[spec.name]
    if sequential and not cert.is_sequential():
        raise ShapeMismatch(
            f"strategy {spec.label} applies to single-redex steps only"
        )
    sh = _Shared(cert.context, cert.subst)
    rules = [(rule.lhs, ri, None) for ri, rule in enumerate(trs.rules)]
    # Leftmost and max-parallel pose every rule at the spots a redex may not
    # occupy: left of, or parallel to, what the step contracts.
    split = {"leftmost": ("left", is_left_of), "max-parallel": ("parallel", are_parallel)}
    builtin = {"innermost": innermost_patterns, "outermost": outermost_patterns}
    patterns = {c: builtin[c](trs.lhss()) for c in components if c in builtin}
    patterns["forbidden"] = spec.patterns
    out: list[ProblemInstance] = []
    for i, step in enumerate(cert.steps, start=1):
        t = loop.terms[i - 1]
        qs = [q for q, _ in step]
        found: list[ProblemInstance] = []
        for component in components:
            if component in split:
                found += _cross(sh, i, _split_rows(sh, t, qs, *split[component]), rules)
                continue
            for q in qs:
                frames: dict = {}
                for pat in patterns[component]:
                    key = (pat.kind, pat.pos)
                    if key not in frames:
                        frames[key] = _FRAMES[pat.kind](sh, t, q, pat.pos)
                    found += _cross(sh, i, frames[key], [(pat.lhs, None, pat)])
        out += _dedup(found)
    return tuple(out)


@dataclass(frozen=True)
class Evidence:
    instance: ProblemInstance
    result: Solvable
    level: int | None = None  # unrolling level of a confirmed concrete violation
    violation_step: int | None = None  # 1-based step at that level


@dataclass(frozen=True)
class Verdict:
    answer: str  # "yes" | "no" | "unknown"
    strategy: str
    evidence: Evidence | None
    open_problems: tuple[tuple[ProblemInstance, Unknown], ...]
    total: int
    unsolvable: int
    solvable: int
    unknown: int
    bound: int


def concrete_checks(spec: StrategySpec) -> tuple[str, ...]:
    """strategy_allows components whose conjunction is the strategy, for
    replay checks; no component means every step is allowed."""
    return STRATEGIES[spec.name][1]


def _confirm_violation(
    trs: Trs, loop: ValidatedLoop, spec: StrategySpec, levels: int, max_size: int
) -> tuple[int, int] | None:
    """Level and step of the first concrete violation, or None when none is
    found up to the level cap or before a level's terms outgrow max_size or
    nest deeper than the term walks recurse."""
    checks = concrete_checks(spec)
    unrolled = None
    try:
        for n in range(levels + 1):
            unrolled = unroll_loop(loop, n, below=unrolled)
            if any(term_size(t) > max_size for t in unrolled.terms):
                return None
            for j, step in enumerate(unrolled.steps):
                qs = [q for q, _ in step]
                if not all(
                    strategy_allows(unrolled.terms[j], qs, trs, chk, spec.patterns)
                    for chk in checks
                ):
                    return n, j + 1
    except RecursionError:
        pass  # a level nests deeper than the term walks recurse
    return None


def decide_loop(
    trs: Trs,
    loop: ValidatedLoop,
    spec: StrategySpec,
    config: DeciderConfig = DeciderConfig(),
) -> Verdict:
    instances = step_problems(loop, trs, spec)
    # Steps repeat problems; each distinct one is solved once per decision.
    solved: dict[Problem, SolverResult] = {}
    results: list[tuple[ProblemInstance, SolverResult]] = []
    for inst in instances:
        res = solved.get(inst.problem)
        if res is None:
            res = solved[inst.problem] = solve_problem(inst.problem, config)
        results.append((inst, res))
    solvable = [(i, r) for i, r in results if isinstance(r, Solvable)]
    unknown = [(i, r) for i, r in results if isinstance(r, Unknown)]
    n_unsolvable = sum(1 for _, r in results if isinstance(r, Unsolvable))
    counts = dict(
        total=len(results),
        unsolvable=n_unsolvable,
        solvable=len(solvable),
        unknown=len(unknown),
        bound=config.bound,
    )
    if solvable:
        inst, res = solvable[0]
        w = res.witness
        exponent = w.n if w.n is not None else w.m + w.k
        levels = exponent + len(loop.certificate.steps) + 4
        confirmed = _confirm_violation(trs, loop, spec, levels, config.max_term_size)
        level, vstep = confirmed if confirmed is not None else (None, None)
        return Verdict(
            "no",
            spec.label,
            Evidence(inst, res, level, vstep),
            (),
            **counts,
        )
    if unknown:
        return Verdict("unknown", spec.label, None, tuple(unknown), **counts)
    return Verdict("yes", spec.label, None, (), **counts)
