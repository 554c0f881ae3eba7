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
    ExtendedMatchingProblem,
    MatchingProblem,
    Problem,
    Solvable,
    SolverConfig,
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
    ContextSubstitution,
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
        self.cs = ContextSubstitution(c, mu)
        self.c_mu = c.substitute(mu)
        # C restricted to each strict prefix of its hole position, shortest first.
        self.subcontexts = [c.subcontext(c.hole_pos[:cut]) for cut in range(len(c.hole_pos))]
        self._towers: dict[Term, list[Term]] = {}
        self._images: dict[Term, list[Term]] = {}

    def tower(self, t: Term, n: int) -> Term:
        """t(C, mu)^n; each level is built once."""
        row = self._towers.setdefault(t, [t])
        while len(row) <= n:
            row.append(apply_context_substitution(row[-1], self.cs, 1))
        return row[n]

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


def leftmost_problems(
    t: Term, q: Position, c: Context, mu: Substitution, trs: Trs
) -> tuple[ProblemInstance, ...]:
    """Problems solvable iff some unrolling has a redex left of the step."""
    return _dedup(_leftmost(_Shared(c, mu), 0, t, q, trs))


def max_parallel_problems(
    t: Term, qs: Iterable[Position], c: Context, mu: Substitution, trs: Trs
) -> tuple[ProblemInstance, ...]:
    """Problems solvable iff some unrolling leaves a parallel redex uncontracted."""
    return _dedup(_max_parallel(_Shared(c, mu), 0, t, qs, trs))


def _leftmost(sh: _Shared, step: int, t: Term, q: Position, trs: Trs):
    hole = sh.c.hole_pos
    term_side = lambda q2: is_left_of(q2, q)
    ctx_side = lambda p2: is_left_of(p2, hole)
    return _split_families(sh, step, t, trs, term_side, ctx_side, "left")


def _max_parallel(sh: _Shared, step: int, t: Term, qs: Iterable[Position], trs: Trs):
    qs = tuple(sorted(set(qs)))
    hole = sh.c.hole_pos
    term_side = lambda q2: all(are_parallel(q2, q) for q in qs)
    ctx_side = lambda p2: are_parallel(p2, hole)
    return _split_families(sh, step, t, trs, term_side, ctx_side, "parallel")


def _split_families(
    sh: _Shared, step: int, t: Term, trs: Trs, term_side, ctx_side, prefix: str
) -> list[ProblemInstance]:
    # Per side: the subterms themselves, then the pumped images below them.
    out: list[ProblemInstance] = []
    for body, side, families in (
        (t, term_side, (f"{prefix}-term", f"{prefix}-image")),
        (sh.c.body, ctx_side, (f"{prefix}-context", f"{prefix}-context-image")),
    ):
        spots = [(p, u) for p, u in subterms(body) if side(p)]
        for family, subjects_of in zip(families, (lambda u: (u,), sh.images)):
            seen: set[Term] = set()
            for p, u in spots:
                for v in subjects_of(u):
                    # A repeated subject only repeats problems posed above.
                    if v in seen:
                        continue
                    seen.add(v)
                    for ri, rule in enumerate(trs.rules):
                        out.append(
                            ProblemInstance(
                                MatchingProblem(((v, rule.lhs),), sh.mu), family, step, p, ri
                            )
                        )
    return out


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


# A frame is the pattern-independent part of one pattern family at one step
# position: (family, n0, o0', subject, D) per problem, with D the subcontext
# of an extended problem and None for a matching problem.  Crossing a frame
# with a pattern's left-hand side gives the problems.


def _here_frame(sh: _Shared, t: Term, q: Position, o: Position, family="pattern-here"):
    sol = solve_position_equation(sh.c.hole_pos, q, o)
    if sol is None:
        return []
    n0, o0prime = sol
    return [(family, n0, o0prime, subterm_at(sh.tower(t, n0), o0prime), None)]


def _above_frame(sh: _Shared, t: Term, q: Position, o: Position):
    redex = subterm_at(t, q)
    if isinstance(redex, Variable):
        raise VariableRedex(f"subterm at {format_position(q)} of {t} is a variable")
    p = sh.c.hole_pos
    n0 = _least_n0(p, q, o)
    base = sh.tower(t, n0)
    redex_pos = p * n0 + q
    anchors: set[Position] = set()
    for q2 in positions(redex):
        tip = redex_pos + q2
        for cut in range(len(tip) + 1):
            o2 = tip[:cut]
            if is_strict_prefix(redex_pos, o2 + o):
                anchors.add(o2)
    frame = [
        ("pattern-above-term", n0, o2, subterm_at(base, o2), None) for o2 in sorted(anchors)
    ]
    frame += [("pattern-above-image", n0, None, u, None) for u in sh.images(redex)]
    return frame


def _below_frame(sh: _Shared, t: Term, q: Position, o: Position):
    # Anchors weakly above the contracted position reduce to here-problems at
    # the step's own prefixes; anchors crossing the hole spine into outer
    # context copies become extended problems that pump the context too.
    frame = []
    for cut in range(len(q)):
        frame += _here_frame(sh, t, q[:cut], o, "pattern-below-prefix")
    p = sh.c.hole_pos
    for d in sh.subcontexts:
        p2 = d.hole_pos
        n0 = 0
        while len(p2) + n0 * len(p) <= len(o):
            n0 += 1
        if is_strict_prefix(o, p2 + p * n0):
            subject = sh.mu.apply(sh.tower(t, n0))
            frame.append(("pattern-below-context", n0, None, subject, d))
    return frame


_FRAMES = {
    PatternKind.HERE: _here_frame,
    PatternKind.ABOVE: _above_frame,
    PatternKind.BELOW: _below_frame,
}


def _cross(
    sh: _Shared, step: int, q: Position, pattern: ForbiddenPattern, frame
) -> list[ProblemInstance]:
    mu, lhs = sh.mu, pattern.lhs
    return [
        ProblemInstance(
            MatchingProblem(((u, lhs),), mu)
            if d is None
            else ExtendedMatchingProblem(d, lhs, sh.c_mu, u, mu),
            family, step, q, None, pattern, n0, o0prime,
        )
        for family, n0, o0prime, u, d in frame
    ]


def _pattern_problems(
    sh: _Shared, step: int, t: Term, q: Position, patterns: Iterable[ForbiddenPattern]
) -> list[ProblemInstance]:
    frames: dict = {}
    out: list[ProblemInstance] = []
    for pat in patterns:
        key = (pat.kind, pat.pos)
        if key not in frames:
            frames[key] = _FRAMES[pat.kind](sh, t, q, pat.pos)
        out += _cross(sh, step, q, pat, frames[key])
    return out


def h_problems(
    t: Term, q: Position, c: Context, mu: Substitution, pattern: ForbiddenPattern
) -> tuple[ProblemInstance, ...]:
    """Step forbidden at the designated position itself: zero or one problem."""
    sh = _Shared(c, mu)
    return tuple(_cross(sh, 0, q, pattern, _here_frame(sh, t, q, pattern.pos)))


def a_problems(
    t: Term, q: Position, c: Context, mu: Substitution, pattern: ForbiddenPattern
) -> tuple[ProblemInstance, ...]:
    """Step forbidden strictly above the designated position.

    The pattern can anchor inside the contracted subterm (first family) or
    inside a pumped substitution image below it (second family).
    """
    sh = _Shared(c, mu)
    return _dedup(_cross(sh, 0, q, pattern, _above_frame(sh, t, q, pattern.pos)))


def b_problems(
    t: Term, q: Position, c: Context, mu: Substitution, pattern: ForbiddenPattern
) -> tuple[ProblemInstance, ...]:
    """Step forbidden strictly below the designated position."""
    sh = _Shared(c, mu)
    return _dedup(_cross(sh, 0, q, pattern, _below_frame(sh, t, q, pattern.pos)))


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
    builtin = {"innermost": innermost_patterns, "outermost": outermost_patterns}
    patterns = {c: builtin[c](trs.lhss()) for c in components if c in builtin}
    patterns["forbidden"] = spec.patterns
    out: list[ProblemInstance] = []
    for i, step in enumerate(cert.steps, start=1):
        t = loop.terms[i - 1]
        qs = [q for q, _ in step]
        found: list[ProblemInstance] = []
        for component in components:
            if component == "leftmost":
                found += _leftmost(sh, i, t, qs[0], trs)
            elif component == "max-parallel":
                found += _max_parallel(sh, i, t, qs, trs)
            else:
                for q in qs:
                    found += _pattern_problems(sh, i, t, q, patterns[component])
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
    open_problems: tuple[ProblemInstance, ...]
    total: int
    unsolvable: int
    solvable: int
    unknown: int
    bound: int


@dataclass(frozen=True)
class DeciderConfig:
    bound: int = 64
    unroll: int | None = None  # cap for the concrete-violation search
    max_term_size: int = 100_000


def concrete_checks(spec: StrategySpec, trs: Trs) -> tuple[str, ...]:
    """strategy_allows components whose conjunction is the strategy, for
    replay checks; no component means every step is allowed."""
    return STRATEGIES[spec.name][1]


def _confirm_violation(
    trs: Trs, loop: ValidatedLoop, spec: StrategySpec, levels: int
) -> tuple[int, int] | None:
    checks = concrete_checks(spec, trs)
    for n in range(levels + 1):
        unrolled = unroll_loop(loop, n)
        for j, step in enumerate(unrolled.steps):
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
    config: DeciderConfig = DeciderConfig(),
) -> Verdict:
    instances = step_problems(loop, trs, spec)
    solver_config = SolverConfig(bound=config.bound, max_term_size=config.max_term_size)
    # Steps repeat problems; each distinct one is solved once per decision.
    solved: dict[Problem, SolverResult] = {}
    results: list[tuple[ProblemInstance, SolverResult]] = []
    for inst in instances:
        res = solved.get(inst.problem)
        if res is None:
            res = solved[inst.problem] = solve_problem(inst.problem, solver_config)
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
        exponent = w.n if w.n is not None else (w.m or 0) + (w.k or 0)
        levels = (
            config.unroll
            if config.unroll is not None
            else exponent + len(loop.certificate.steps) + 4
        )
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
        return Verdict(
            "unknown", spec.label, None, tuple(i for i, _ in unknown), **counts
        )
    return Verdict("yes", spec.label, None, (), **counts)
