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

A step crosses each distinct (subject, D) row once and poses each problem
once, under the first family to reach it.  An extended problem's D is
C|p[:cut] for the hole position p of the decision's fixed C, so D is keyed
on its hole position p[cut:] and no context is hashed.  A decision builds
C's rows, each variable's images and each distinct problem once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from . import problems
from .errors import ShapeMismatch, VariableRedex
from .loops import ValidatedLoop, unroll_loop
from .problems import (
    DEFAULT_BOUND,
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


class ProblemInstance(NamedTuple):
    """A problem and where it came from; a tuple builds 4x faster than a dataclass."""

    problem: Problem
    family: str
    step: int = 0  # 1-based certificate step
    position: Position | None = None
    rule_index: int | None = None
    pattern: ForbiddenPattern | None = None
    n0: int | None = None
    o0prime: Position | None = None


def _images(u: Term, mu: Substitution, images: dict, done: set) -> list[Term]:
    """Subterms of x mu in preorder, for x by name over u's variable closure
    less *done*, which gains them; *images* keeps them for the decision."""
    out = []
    for x in sorted(variable_closure(u, mu) - done):
        done.add(x)
        if x not in images:
            images[x] = [s for _, s in subterms(mu.apply(Variable(x)))]
        out += images[x]
    return out


def _split_rows(term: Term, at, mu: Substitution, images: dict, family, image_family, beside):
    """Rows of one side of the leftmost or max-parallel families: the
    subterms at the spots p of *term* with beside(p, q) for every q in *at*,
    then the pumped images below them, each variable's under its first spot."""
    spots = [(p, u) for p, u in subterms(term) if all(beside(p, q) for q in at)]
    done: set = set()
    rows = [(family, p, None, None, u, None) for p, u in spots]
    for p, u in spots:
        rows += [(image_family, p, None, None, v, None) for v in _images(u, mu, images, done)]
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


def _here_frame(
    c: Context, mu: Substitution, t: Term, q: Position, o: Position, cut: int | None = None
):
    # With a cut, the anchor sits at the step's own prefix q[:cut] instead.
    sol = solve_position_equation(c.hole_pos, q[:cut], o)
    if sol is None:
        return []
    n0, o0prime = sol
    base = apply_context_substitution(t, c, mu, n0)
    family = "pattern-here" if cut is None else "pattern-below-prefix"
    return [(family, q, n0, o0prime, subterm_at(base, o0prime), None)]


def _above_frame(c: Context, mu: Substitution, t: Term, q: Position, o: Position, images: dict):
    redex = subterm_at(t, q)
    if isinstance(redex, Variable):
        raise VariableRedex(f"subterm at {format_position(q)} of {t} is a variable")
    p = c.hole_pos
    n0 = _least_n0(p, q, o)
    base = apply_context_substitution(t, c, mu, n0)
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
    frame += [
        ("pattern-above-image", q, n0, None, u, None) for u in _images(redex, mu, images, set())
    ]
    return frame


def _below_frame(c: Context, mu: Substitution, t: Term, q: Position, o: Position):
    # Anchors weakly above the contracted position reduce to here-problems at
    # the step's own prefixes; anchors crossing the hole spine into outer
    # context copies become extended problems that pump the context too.
    frame = []
    for cut in range(len(q)):
        frame += _here_frame(c, mu, t, q, o, cut)
    p = c.hole_pos
    for cut in range(len(p)):
        d = c.subcontext(p[:cut])
        p2 = d.hole_pos
        # Least n0 with |p2| + n0 |p| > |o|; p2 is never the root here.
        n0 = _least_n0(p, p2[1:], o)
        if is_strict_prefix(o, p2 + p * n0):
            subject = mu.apply(apply_context_substitution(t, c, mu, n0))
            frame.append(("pattern-below-context", q, n0, None, subject, d))
    return frame


_FRAMES = {PatternKind.HERE: _here_frame, PatternKind.BELOW: _below_frame}


def _cross(
    c_mu: Context, mu: Substitution, step: int, rows, lhss, posed: set, made: dict
) -> list[ProblemInstance]:
    """Each row against each (lhs, rule index, pattern), rows outermost, for
    the problems the step has not posed yet.  C and mu are fixed per decision,
    and D = C|p[:cut] is fixed by its hole position p[cut:], so the triple
    (subject, lhs, D's hole position) fixes a problem: posed holds the step's,
    made maps the decision's to their problems, and a repeated row is skipped."""
    out, crossed = [], set()
    for family, pos, n0, o0prime, u, d in rows:
        at = None if d is None else d.hole_pos
        if (u, at) in crossed:
            continue
        crossed.add((u, at))
        for lhs, ri, pat in lhss:
            key = (u, lhs, at)
            if key in posed:
                continue
            posed.add(key)
            problem = made.get(key)
            if problem is None:
                problem = made[key] = (
                    MatchingProblem(u, lhs, mu)
                    if d is None
                    else ExtendedMatchingProblem(d, lhs, c_mu, u, mu)
                )
            out.append(ProblemInstance(problem, family, step, pos, ri, pat, n0, o0prime))
    return out


def step_problems(
    loop: ValidatedLoop,
    trs: Trs,
    spec: StrategySpec,
) -> tuple[ProblemInstance, ...]:
    """All problem instances for the loop under the strategy, in report order.

    Each step poses a problem once, under the first row and component to
    reach it; across steps problems repeat, and each repeat counts as an
    instance of the same problem object.
    """
    cert = loop.certificate
    sequential, components = STRATEGIES[spec.name]
    if sequential and not cert.is_sequential():
        raise ShapeMismatch(
            f"strategy {spec.label} applies to single-redex steps only"
        )
    c, mu = cert.context, cert.subst
    c_mu = c.substitute(mu)
    rules = [(rule.lhs, ri, None) for ri, rule in enumerate(trs.rules)]
    # Leftmost and max-parallel pose every rule at the spots a redex may not
    # occupy: left of, or parallel to, what the step contracts, or C's hole.
    split = {"leftmost": ("left", is_left_of), "max-parallel": ("parallel", are_parallel)}
    images: dict = {}
    frame_of = {**_FRAMES, PatternKind.ABOVE: partial(_above_frame, images=images)}
    # C's rows, the same at every step; beside rejects C's unread hole and below.
    context_rows = {
        k: _split_rows(c.term, (c.hole_pos,), mu, images, f"{p}-context", f"{p}-context-image", b)
        for k, (p, b) in split.items()
        if k in components
    }
    made: dict = {}
    out: list[ProblemInstance] = []
    for i, step in enumerate(cert.steps, start=1):
        t = loop.terms[i - 1]
        qs = [q for q, _ in step]
        posed: set = set()
        for component in components:
            if component in split:
                p, b = split[component]
                rows = _split_rows(t, qs, mu, images, f"{p}-term", f"{p}-image", b)
                out += _cross(c_mu, mu, i, rows + context_rows[component], rules, posed, made)
                continue
            pats = getattr(trs, f"{component}_patterns", spec.patterns)  # forbidden: the spec's
            for q in qs:
                frames: dict = {}
                for pat in pats:
                    key = (pat.kind, pat.pos)
                    if key not in frames:
                        frames[key] = frame_of[pat.kind](c, mu, t, q, pat.pos)
                    out += _cross(c_mu, mu, i, frames[key], [(pat.lhs, None, pat)], posed, made)
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
    trs: Trs, loop: ValidatedLoop, spec: StrategySpec, levels: int
) -> tuple[int, int] | None:
    """Level and step of the first concrete violation, or None when none is
    found up to the level cap or before a level's terms outgrow the size
    limit."""
    checks = concrete_checks(spec)
    unrolled = None
    for n in range(levels + 1):
        unrolled = unroll_loop(loop, n, below=unrolled)
        if any(term_size(t) > problems.MAX_TERM_SIZE for t in unrolled.terms):
            return None
        for j, step in enumerate(unrolled.certificate.steps):
            qs = [q for q, _ in step]
            if not all(
                strategy_allows(unrolled.terms[j], qs, trs, chk, spec.patterns)
                for chk in checks
            ):
                return n, j + 1
    return None


def decide_loop(
    trs: Trs,
    loop: ValidatedLoop,
    spec: StrategySpec,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    instances = step_problems(loop, trs, spec)
    # Steps repeat problems; each distinct one is one object, solved once.
    solved: dict[int, SolverResult] = {}
    results: list[tuple[ProblemInstance, SolverResult]] = []
    for inst in instances:
        p = inst.problem
        res = solved.get(id(p))
        if res is None:
            res = solved[id(p)] = solve_problem(p, bound)
        results.append((inst, res))
    solvable = [(i, r) for i, r in results if isinstance(r, Solvable)]
    unknown = [(i, r) for i, r in results if isinstance(r, Unknown)]
    n_unsolvable = sum(1 for _, r in results if isinstance(r, Unsolvable))
    counts = dict(
        total=len(results),
        unsolvable=n_unsolvable,
        solvable=len(solvable),
        unknown=len(unknown),
        bound=bound,
    )
    if solvable:
        inst, res = solvable[0]
        w = res.witness
        exponent = w.n if w.n is not None else w.m + w.k
        levels = exponent + len(loop.certificate.steps) + 4
        confirmed = _confirm_violation(trs, loop, spec, levels)
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
