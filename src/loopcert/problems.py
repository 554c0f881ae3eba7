"""Matching problems over pumped terms, and their solvers.

A matching problem asks whether some power of a substitution sends a subject
term onto an instance of a pattern: find n and sigma with u mu^n = l sigma.
An extended problem additionally pumps the subject through a context: find
m, k, sigma with D[t(C, mu)^m] mu^k = l sigma.

A matching problem is decided.  At each exponent its constraint set is
simplified to a fixpoint: root clashes and variables that cycle through
variables forever refute the problem outright, and a fully decomposed set is
a solution at exactly that exponent.  The state is then stepped by mu, up to
the exponent bound that `exponent_bound` computes from the problem and
proves sufficient; no witness up to it refutes the problem.  An extended
problem is scanned for a refuting clash and otherwise solved one slice at a
time: slice m, D[t(C, mu)^m] mu^k = l sigma in k alone, is a matching
problem, and the caller's bound (DEFAULT_BOUND unless given) caps m only.
Answers are three-valued: Solvable carries the least witness (by m + k, then
m), Unsolvable a finite certificate, Unknown why the search stopped: the
bound on m (extended problems only), or MAX_TERM_SIZE, the size limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import InternalError
from .terms import (
    Application,
    Context,
    Position,
    Substitution,
    Term,
    Variable,
    apply_context_substitution,
    apply_substitution,
    positions,
    term_size,
    variable_closure,
    variables_of,
)
from .rewriting import match_pattern


@dataclass(frozen=True)
class MatchingProblem:
    """Find n, sigma with u mu^n = l sigma, u the subject and l the pattern."""

    subject: Term
    pattern: Term
    mu: Substitution

    def __str__(self) -> str:
        return f"{self.subject} matches {self.pattern} under {self.mu}"


@dataclass(frozen=True)
class ExtendedMatchingProblem:
    """Find m, k, sigma with D[t(C, mu)^m] mu^k = l sigma."""

    d: Context
    lhs: Term
    c: Context
    t: Term
    mu: Substitution

    def __str__(self) -> str:
        return (
            f"{self.d}[{self.t}({self.c},{self.mu})^m] mu^k matches {self.lhs}"
        )


Problem = Union[MatchingProblem, ExtendedMatchingProblem]


class UnsolvableReason(enum.Enum):
    ROOT_CLASH = "root-clash"
    VARIABLE_ORBIT = "variable-orbit"
    EXPONENT_BOUND = "exponent-bound"


@dataclass(frozen=True)
class Witness:
    sigma: Substitution
    n: int | None = None  # matching problems
    m: int | None = None  # extended problems, with k
    k: int | None = None


@dataclass(frozen=True)
class Solvable:
    witness: Witness


@dataclass(frozen=True)
class Unsolvable:
    reason: UnsolvableReason


@dataclass(frozen=True)
class Unknown:
    note: str  # why the search stopped: the exponent bound, or a limit


SolverResult = Union[Solvable, Unsolvable, Unknown]


# Cap on an extended problem's context exponent m unless the caller gives one.
DEFAULT_BOUND = 64
# Largest term a solver state, an extended tower or a confirmation replay
# may grow to; past it the answer is Unknown.  Read at each check.
MAX_TERM_SIZE = 100_000


def orbit_root(name: str, mu: Substitution) -> str | None:
    """Root symbol that x mu^n eventually exposes, or None if x stays a
    variable for every n (unmapped, or cycling through variables)."""
    seen = {name}
    while True:
        img = mu.get(name)
        if img is None:
            return None
        if isinstance(img, Application):
            return img.symbol
        name = img.name
        if name in seen:
            return None
        seen.add(name)


def _simplify(
    bindings: dict[str, Term],
    match_work: list[tuple[Term, Term]],
    ident_work: list[tuple[Term, Term]],
    mu: Substitution,
) -> Unsolvable | tuple[dict[str, Term], list[tuple[Term, Term]], list[tuple[Term, Term]]]:
    """Decompose the constraints, consuming all three arguments, to a fixpoint:
    the bindings of live pattern variables, the pairs (u, l) where a variable
    u must still match an application l, and the pairs that must become equal."""
    match: list[tuple[Term, Term]] = []
    ident: list[tuple[Term, Term]] = []
    while match_work:
        u, l = match_work.pop()
        if isinstance(l, Variable):
            prev = bindings.get(l.name)
            if prev is None:
                bindings[l.name] = u
            elif prev != u:
                ident_work.append((prev, u))
            continue
        if isinstance(u, Application):
            if u.symbol != l.symbol or len(u.args) != len(l.args):
                return Unsolvable(UnsolvableReason.ROOT_CLASH)
            match_work.extend(zip(u.args, l.args))
            continue
        # Subject is a variable facing an application pattern.
        if orbit_root(u.name, mu) is None:
            return Unsolvable(UnsolvableReason.VARIABLE_ORBIT)
        match.append((u, l))
    # Equal identity pairs would double at every step, so each is kept once.
    kept: set[tuple[Term, Term]] = set()
    while ident_work:
        a, b = ident_work.pop()
        if a == b or (a, b) in kept:
            continue
        if isinstance(a, Application) and isinstance(b, Application):
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return Unsolvable(UnsolvableReason.ROOT_CLASH)
            ident_work.extend(zip(a.args, b.args))
            continue
        if a.__class__ is not b.__class__:
            x = a if isinstance(a, Variable) else b
            if orbit_root(x.name, mu) is None:
                # x stays a variable while the other side's root never changes.
                return Unsolvable(UnsolvableReason.VARIABLE_ORBIT)
        kept.add((a, b))
        ident.append((a, b))
    # A binding whose pattern variable is gone from every remaining pattern
    # can never conflict again; dropping it keeps it out of the state's
    # size, which the size limit reads, and out of every later step.
    live = set()
    for _, l in match:
        live |= variables_of(l)
    return {x: u for x, u in bindings.items() if x in live}, match, ident


def _recheck_matching(problem: MatchingProblem, n: int) -> Substitution:
    """Independently confirm a witness exponent and extract sigma."""
    sigma = match_pattern(
        problem.pattern, apply_substitution(problem.subject, problem.mu, n)
    )
    if sigma is None:
        raise InternalError(f"witness n={n} failed recheck on {problem}")
    return sigma


def exponent_bound(problem: MatchingProblem) -> int:
    """N = |V| * (d + 1), a bound on the least witness of a matching problem.

    V is the variable closure, under x -> vars(x mu), of the subject u, so
    every u mu^n is a term over V; d is the depth of the pattern l, the
    length of its longest position (a variable or a constant has depth 0,
    f(t1..tk) has depth 1 + max depth(ti)).  Claim: a problem solvable at
    some n is solvable at N, so one with no witness n <= N has none at all.

    (1) Solutions are upward-closed in n.  u mu^n = l sigma gives
        u mu^(n+1) = l (sigma mu), and s mu^n = t mu^n gives
        s mu^(n+1) = t mu^(n+1).

    (2) Inner nodes are exposed by M = d |V|.  For x in V, the orbit x,
        x mu, x mu^2, ... either stays a variable forever (the
        variable-orbit refutation) or is an application from some e(x) on;
        the variables before it are distinct members of V, so e(x) <= |V|.
        Once s mu^n has an application at a position, every later power
        has the same symbol and arity there.  Let the problem be solvable
        at some n, and let p be an inner node (one with arguments) of the
        pattern l, so |p| <= d - 1 and u mu^n has l's symbol at p.  Walk
        the path root = p_0, ..., p_h = p, and let n_i be the first
        exponent at which u mu^(n_i) has an application at p_i; it has
        l's symbol and arity there.  The subterm of u at the root, and of
        u mu^(n_i) at p_(i+1), is an application or a variable y of V that
        turns into one after e(y) <= |V| steps, so
        n_0 <= |V|, n_(i+1) <= n_i + |V| and n_h <= (|p| + 1) |V| <= M.
        Hence u mu^(M+j) has l's symbol at p for every j >= 0.

    (3) What remains is identity constraints over V.  Given (2), for
        j >= 0 the problem holds at M + j iff s mu^j = t mu^j for finitely
        many pairs (s, t) of terms over V: s = u mu^M|q and t = u mu^M|q'
        for two occurrences q, q' of one pattern variable, and
        s = u mu^M|q and t = c for a constant leaf c of l at q.  Every such
        q exists in u mu^M: it is the root, or its parent is an exposed
        inner node.

    (4) Identity lemma: terms s, t over V with s mu^j = t mu^j for some j
        have s mu^|V| = t mu^|V|.  Let K_j be the set of pairs of terms
        over V that mu^j equates.  By (1), K_j is contained in K_(j+1).
        If K_j = K_(j+1) then K_(j+1) = K_(j+2), since (s, t) is in
        K_(j+2) iff (s mu, t mu), again a pair over V, is in K_(j+1).  To
        count the strict steps, unify the pairs of K_0, then those of
        K_1, and so on, one pair at a time, keeping an idempotent most
        general unifier theta of the pairs met so far.  While the pairs of
        K_j are met, mu^j equates every pair met, so mu^j = theta mu^j; a
        next pair (s, t) that theta does not equate still has s theta and
        t theta unifiable (by mu^j), and unifying them binds at least one
        variable of V that theta left free.  So theta changes at most |V| times,
        and each change only instantiates it.  It therefore settles on
        some theta_j that equates every pair of K_j, and every pair
        theta_j equates is in K_j, since mu^j = theta_j mu^j.  If K_(j+1)
        holds a pair outside K_j, theta_j does not equate it, and
        theta_(j+1) binds more variables of V than theta_j.  So the chain
        K_0, K_1, ... grows strictly at most |V| times, and once it
        repeats it stays: K_|V| holds every pair that any K_j holds.

    (5) A problem solvable at some n >= M is solvable at M + |V| = N by
        (3) and (4), and one solvable at some n < M is solvable at N by
        (1).  The bound is reached: with x -> y -> a, x mu^n matches the
        constant a first at n = 2 = N.
    """
    closure = variable_closure(problem.subject, problem.mu)
    depth = max(len(p) for p in positions(problem.pattern))
    return len(closure) * (depth + 1)


def solve_matching(problem: MatchingProblem) -> SolverResult:
    mu, u, l = problem.mu, problem.subject, problem.pattern
    # Most posed problems clash at the root, as _simplify would find.
    if u.__class__ is Application is l.__class__ and (
        u.symbol != l.symbol or len(u.args) != len(l.args)
    ):
        return Unsolvable(UnsolvableReason.ROOT_CLASH)
    state = _simplify({}, [(u, l)], [], mu)
    offset, last = 0, None
    while isinstance(state, tuple):
        bindings, match, ident = state
        if not match and not ident:
            return Solvable(Witness(n=offset, sigma=_recheck_matching(problem, offset)))
        if offset == 1:
            # Most problems are settled by offset 1, so N is computed here;
            # constraints open at offset 0 hold a variable of V, so N >= 1.
            last = exponent_bound(problem)
        if offset == last:
            return Unsolvable(UnsolvableReason.EXPONENT_BOUND)
        size = sum(term_size(u) for u, _ in match)
        size += sum(term_size(u) for u in bindings.values())
        size += sum(term_size(a) + term_size(b) for a, b in ident)
        if size > MAX_TERM_SIZE:
            return Unknown("state size limit reached")
        state = _simplify(
            {x: mu.apply(u) for x, u in bindings.items()},
            [(mu.apply(u), l) for u, l in match],
            [(mu.apply(a), mu.apply(b)) for a, b in ident],
            mu,
        )
        offset += 1
    return state


def _tower_roots(problem: ExtendedMatchingProblem) -> frozenset[str]:
    """Every root symbol D's hole can expose, over all m and all later mu
    powers.  The set is exhaustive: a non-member root refutes a match there."""
    # m = 0, and every m when C is the hole: t mu^k shows t's root or its orbit's.
    t = problem.t
    roots = {t.symbol if isinstance(t, Application) else orbit_root(t.name, problem.mu)}
    if problem.c.hole_pos:
        roots.add(problem.c.term.symbol)
    return frozenset(roots - {None})


def _extended_scan(
    dn: Term, hole: Position | None, ln: Term, problem: ExtendedMatchingProblem
) -> bool:
    """Walk D's term against the pattern, with *hole* D's hole position below
    dn (None off its spine); whether a refuting clash exists.

    Only necessary conditions are checked: rigid symbols of D must agree with
    the pattern, the hole can only expose tower roots, and a substituted
    variable of D must be matchable on its own.
    """
    if isinstance(ln, Variable):
        return False
    if hole == ():
        return ln.symbol not in _tower_roots(problem)
    if isinstance(dn, Application):
        if dn.symbol != ln.symbol or len(dn.args) != len(ln.args):
            return True
        return any(
            _extended_scan(da, hole[1:] if hole and hole[0] == i else None, la, problem)
            for i, (da, la) in enumerate(zip(dn.args, ln.args), start=1)
        )
    sub = solve_matching(MatchingProblem(dn, ln, problem.mu))
    return isinstance(sub, Unsolvable)


def solve_extended(
    problem: ExtendedMatchingProblem, bound: int = DEFAULT_BOUND
) -> SolverResult:
    if _extended_scan(problem.d.term, problem.d.hole_pos, problem.lhs, problem):
        return Unsolvable(UnsolvableReason.ROOT_CLASH)
    # No slice at or past the best witness's m + k holds a lesser one.
    best, capped = None, False
    tower, m = problem.t, 0
    while m < (bound + 1 if best is None else best.m + best.k):
        if m:
            # Towers only grow, so once one is over budget stop building.
            if term_size(tower) > MAX_TERM_SIZE:
                capped = True
                break
            tower = apply_context_substitution(tower, problem.c, problem.mu, 1)
        slice_m = MatchingProblem(problem.d.plug(tower), problem.lhs, problem.mu)
        res = solve_matching(slice_m)
        capped = capped or isinstance(res, Unknown)
        w = res.witness if isinstance(res, Solvable) else None
        if w is not None and (best is None or m + w.n < best.m + best.k):
            best = Witness(m=m, k=w.n, sigma=w.sigma)
        m += 1
    if best is not None:
        return Solvable(best)
    if capped:
        return Unknown("state size limit reached")
    return Unknown(f"exponent bound {bound} reached")


def solve_problem(problem: Problem, bound: int = DEFAULT_BOUND) -> SolverResult:
    if isinstance(problem, MatchingProblem):
        return solve_matching(problem)
    return solve_extended(problem, bound)
