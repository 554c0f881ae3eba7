"""Matching problems over pumped terms, and their solvers.

A matching problem asks whether some power of a substitution sends a subject
term onto an instance of a pattern: find n and sigma with u mu^n = l sigma
(several pairs may share one n and sigma, and identity constraints
a mu^n = b mu^n can ride along).  An extended problem additionally pumps the
subject through a context: find m, k, sigma with D[t(C, mu)^m] mu^k = l sigma.

A matching problem is solved in two layers.  Layer 1 simplifies the
constraint set at the current exponent to a fixpoint: root clashes and
variables that cycle through variables forever refute the problem outright,
and a fully decomposed set is a solution at exactly the current exponent.
Layer 2 steps the whole state by mu and detects revisited states, which
refutes the problem since the residual constraints only depend on the state.
An extended problem is scanned for a refuting clash and otherwise searched
by bounded enumeration of (m, k).  Answers are three-valued: Solvable carries
the least witness, Unsolvable carries a finite certificate, Unknown names the
exhausted bound or the size or depth limit that stopped the search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import InternalError
from .terms import (
    Application,
    Context,
    HOLE,
    Substitution,
    Term,
    Variable,
    apply_context_substitution,
    apply_substitution,
    term_size,
    variables_of,
)
from .rewriting import match_many, match_pattern


@dataclass(frozen=True)
class MatchingProblem:
    """Find n, sigma with u mu^n = l sigma for all pairs (u, l), and
    a mu^n = b mu^n for all identities (a, b)."""

    pairs: tuple[tuple[Term, Term], ...]
    mu: Substitution
    identities: tuple[tuple[Term, Term], ...] = ()

    def __str__(self) -> str:
        parts = [f"{u} matches {l}" for u, l in self.pairs]
        parts += [f"{a} equals {b}" for a, b in self.identities]
        return "; ".join(parts) + f" under {self.mu}"


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
    CYCLE = "cycle"


@dataclass(frozen=True)
class Witness:
    n: int | None = None
    m: int | None = None
    k: int | None = None
    sigma: Substitution | None = None


@dataclass(frozen=True)
class Solvable:
    witness: Witness


@dataclass(frozen=True)
class Unsolvable:
    reason: UnsolvableReason


@dataclass(frozen=True)
class Unknown:
    bound: int
    note: str = ""


SolverResult = Union[Solvable, Unsolvable, Unknown]


@dataclass(frozen=True)
class DeciderConfig:
    bound: int = 64  # largest exponent the solvers search
    unroll: int | None = None  # cap for the concrete-violation search
    max_term_size: int = 100_000


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


@dataclass
class _State:
    # (u, l): subject u must still match the application pattern l.
    match: list[tuple[Term, Term]]
    # pattern variable name -> current subject it is pinned to.
    bindings: dict[str, Term]
    # (a, b): subjects that must become equal.
    ident: list[tuple[Term, Term]]

    def solved(self) -> bool:
        return not self.match and not self.ident

    def size(self) -> int:
        total = sum(term_size(u) for u, _ in self.match)
        total += sum(term_size(u) for u in self.bindings.values())
        total += sum(term_size(a) + term_size(b) for a, b in self.ident)
        return total

    def canonical(self):
        # Order-free: the constraint sets, with identities as unordered pairs.
        return (
            frozenset(self.match),
            frozenset(self.bindings.items()),
            frozenset(frozenset(pair) for pair in self.ident),
        )

    def step(self, mu: Substitution):
        """The state's bindings, matches and identities, each sent through mu."""
        return (
            {x: mu.apply(u) for x, u in self.bindings.items()},
            [(mu.apply(u), l) for u, l in self.match],
            [(mu.apply(a), mu.apply(b)) for a, b in self.ident],
        )


def _simplify(
    bindings: dict[str, Term],
    match_work: list[tuple[Term, Term]],
    ident_work: list[tuple[Term, Term]],
    mu: Substitution,
) -> Unsolvable | _State:
    """Decompose the constraints, consuming all three arguments, to a fixpoint."""
    out = _State([], bindings, [])
    while match_work:
        u, l = match_work.pop()
        if isinstance(l, Variable):
            prev = out.bindings.get(l.name)
            if prev is None:
                out.bindings[l.name] = u
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
        out.match.append((u, l))
    while ident_work:
        a, b = ident_work.pop()
        if a == b:
            continue
        if isinstance(a, Application) and isinstance(b, Application):
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return Unsolvable(UnsolvableReason.ROOT_CLASH)
            ident_work.extend(zip(a.args, b.args))
            continue
        if isinstance(a, Variable) and isinstance(b, Variable):
            out.ident.append((a, b))
            continue
        x = a if isinstance(a, Variable) else b
        if orbit_root(x.name, mu) is None:
            # x stays a variable while the other side's root never changes.
            return Unsolvable(UnsolvableReason.VARIABLE_ORBIT)
        out.ident.append((a, b))
    # A binding whose pattern variable is gone from every remaining pattern
    # side can never conflict again; dropping it keeps states comparable.
    live = set()
    for _, l in out.match:
        live |= variables_of(l)
    out.bindings = {x: u for x, u in out.bindings.items() if x in live}
    return out


def _recheck_matching(problem: MatchingProblem, n: int) -> Substitution:
    """Independently confirm a witness exponent and extract sigma."""
    pairs = [
        (l, apply_substitution(u, problem.mu, n)) for u, l in problem.pairs
    ]
    sigma = match_many(pairs)
    if sigma is None:
        raise InternalError(f"witness n={n} failed recheck on {problem}")
    for a, b in problem.identities:
        lhs = apply_substitution(a, problem.mu, n)
        rhs = apply_substitution(b, problem.mu, n)
        if lhs != rhs:
            raise InternalError(f"witness n={n} failed identity recheck on {problem}")
    return sigma


def solve_matching(
    problem: MatchingProblem, config: DeciderConfig = DeciderConfig()
) -> SolverResult:
    mu = problem.mu
    state = _simplify({}, list(problem.pairs), list(problem.identities), mu)
    if isinstance(state, Unsolvable):
        return state
    seen = set()
    offset = 0
    while True:
        if state.solved():
            return Solvable(Witness(n=offset, sigma=_recheck_matching(problem, offset)))
        key = state.canonical()
        if key in seen:
            return Unsolvable(UnsolvableReason.CYCLE)
        seen.add(key)
        if offset >= config.bound:
            return Unknown(config.bound)
        if state.size() > config.max_term_size:
            return Unknown(config.bound, "state size limit reached")
        state = _simplify(*state.step(mu), mu)
        if isinstance(state, Unsolvable):
            return state
        offset += 1


def _tower_roots(problem: ExtendedMatchingProblem) -> frozenset[str]:
    """Every root symbol D's hole can expose, over all m and all later mu
    powers.  The set is exhaustive: a non-member root refutes a match there."""
    # m = 0, and every m when C is the hole: t mu^k shows t's root or its orbit's.
    t = problem.t
    roots = {t.symbol if isinstance(t, Application) else orbit_root(t.name, problem.mu)}
    if problem.c.body != HOLE:
        roots.add(problem.c.body.symbol)
    return frozenset(roots - {None})


def _extended_scan(
    dn: Term, ln: Term, problem: ExtendedMatchingProblem, config: DeciderConfig
) -> bool:
    """Walk D against the pattern; whether a refuting clash exists.

    Only necessary conditions are checked: rigid symbols of D must agree with
    the pattern, the hole can only expose tower roots, and a substituted
    variable of D must be matchable on its own.
    """
    if isinstance(ln, Variable):
        return False
    if dn == HOLE:
        return ln.symbol not in _tower_roots(problem)
    if isinstance(dn, Application):
        if dn.symbol != ln.symbol or len(dn.args) != len(ln.args):
            return True
        return any(
            _extended_scan(da, la, problem, config) for da, la in zip(dn.args, ln.args)
        )
    sub = solve_matching(MatchingProblem(((dn, ln),), problem.mu), config)
    return isinstance(sub, Unsolvable)


def solve_extended(
    problem: ExtendedMatchingProblem, config: DeciderConfig = DeciderConfig()
) -> SolverResult:
    if _extended_scan(problem.d.body, problem.lhs, problem, config):
        return Unsolvable(UnsolvableReason.ROOT_CLASH)
    # rows[m] = D[t(C,mu)^m] mu^(total - m); tower = t(C,mu)^(len(rows) - 1).
    rows: list[Term] = []
    tower = problem.t
    capped = False
    for total in range(config.bound + 1):
        for m in range(total + 1):
            if m == len(rows):
                if rows:
                    # Towers only grow, so once one is over budget stop building.
                    if term_size(tower) > config.max_term_size:
                        capped = True
                        break
                    tower = apply_context_substitution(tower, problem.c, problem.mu, 1)
                rows.append(problem.d.plug(tower))
            u = rows[m]
            if term_size(u) > config.max_term_size:
                capped = True
                continue
            sigma = match_pattern(problem.lhs, u)
            rows[m] = problem.mu.apply(u)
            if sigma is not None:
                return Solvable(Witness(m=m, k=total - m, sigma=sigma))
    if capped:
        return Unknown(config.bound, "state size limit reached")
    return Unknown(config.bound)


def solve_problem(problem: Problem, config: DeciderConfig = DeciderConfig()) -> SolverResult:
    try:
        if isinstance(problem, MatchingProblem):
            return solve_matching(problem, config)
        return solve_extended(problem, config)
    except RecursionError:
        # The solver's own terms nest deeper than the term walks recurse.
        return Unknown(config.bound, "term depth limit reached")
