"""Matching problems over pumped terms, and their solver.

A matching problem asks whether some power of a substitution sends a subject
term onto an instance of a pattern: find n and sigma with u mu^n = l sigma.
solve_problem decides it, up to the exponent bound that exponent_bound
computes and proves sufficient.  An extended problem also pumps the subject
through a context, find m, k, sigma with D[t(C, mu)^m] mu^k = l sigma, and
is no problem kind of its own: for each m its slice D[t(C, mu)^m] against l
is a matching problem in k, and extended_slices gives the few slices that it
proves sufficient.  Answers are three-valued: Solvable carries the
least witness, Unsolvable a finite certificate, Unknown that a term outgrew
MAX_TERM_SIZE, the size limit.
"""

from __future__ import annotations

import enum

from .errors import InternalError
from .terms import (
    HOLE,
    Application,
    Context,
    Substitution,
    Term,
    Value,
    Variable,
    apply_context_substitution,
    apply_substitution,
    positions,
    subterm_at,
    subterms,
    term_size,
    variable_closure,
    variables_of,
)
from .rewriting import match_pattern


class MatchingProblem(Value):
    """Find n, sigma with u mu^n = l sigma, u the subject and l the pattern."""

    __slots__ = _fields = ("subject", "pattern", "mu")

    def __init__(self, subject: Term, pattern: Term, mu: Substitution):
        self.subject, self.pattern, self.mu = subject, pattern, mu

    def __str__(self) -> str:
        return f"{self.subject} matches {self.pattern} under {self.mu}"


class UnsolvableReason(enum.Enum):
    ROOT_CLASH = "root-clash"
    VARIABLE_ORBIT = "variable-orbit"
    EXPONENT_BOUND = "exponent-bound"


class Witness(Value):
    __slots__ = _fields = ("sigma", "n")

    def __init__(self, sigma: Substitution, n: int):
        self.sigma, self.n = sigma, n


class Solvable(Value):
    __slots__ = _fields = ("witness",)

    def __init__(self, witness: Witness):
        self.witness = witness


class Unsolvable(Value):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: UnsolvableReason):
        self.reason = reason


class Unknown(Value):
    __slots__ = _fields = ("note",)

    def __init__(self, note: str):
        self.note = note  # why the search stopped: the size limit


SolverResult = Solvable | Unsolvable | Unknown


# Largest term a solver state (its subject included), an extended slice or
# a confirmation replay may grow to; past it the answer is Unknown.  Read at
# each check.
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


def solve_problem(problem: MatchingProblem) -> SolverResult:
    mu, u, l = problem.mu, problem.subject, problem.pattern
    if term_size(u) > MAX_TERM_SIZE:
        return Unknown("state size limit reached")
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
            # Confirm the witness independently, and extract sigma.
            sigma = match_pattern(l, apply_substitution(u, mu, offset))
            if sigma is None:
                raise InternalError(f"witness n={offset} failed recheck on {problem}")
            return Solvable(Witness(sigma, offset))
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


def _exposed(t: Term, q, mu: Substitution):
    """(t mu^e |q, e) for the least e with q a position of t mu^e, or None."""
    e = 0
    for i in q:
        while t.__class__ is Variable and orbit_root(t.name, mu) is not None:
            t, e = mu.get(t.name), e + 1
        if t.__class__ is Variable or i > len(t.args):
            return None
        t = t.args[i - 1]
    return t, e


def extended_slices(
    d: Context, lhs: Term, c: Context, tower: list[Term], mu: Substitution
) -> list[tuple[int, Term]]:
    """The slices (m, D[T_m]) that decide the extended problem
    D[T_m] mu^k = l sigma, with T_m = t(C, mu)^m and C not the hole: m = 0..j
    and at most one m > j.  *tower* holds T_0 = t, T_1, ... and grows as
    needed.  Towers only grow, so the list ends early at the first slice
    over MAX_TERM_SIZE, which solve_problem answers Unknown.

    Claim: a slice m > j left out is solvable at no k, or at exactly the k
    where slice j is; so the slices given hold a witness if any slice does,
    and the least by m + k, then m.  Let h and p be the hole positions of D
    and C.  Walk l along h p p ... over the nodes where it has the symbol
    and arity that every slice has there under every mu^k (D's, then C's),
    to s'.  Let j = max(0, (|s'| - |h|) // |p| + 1), the least j with
    |h| + j|p| > |s'|.  For m >= j, D[T_m] = E[T_(m-j) mu^j] with
    E = D[C[C mu[...C mu^(j-1)[]]]] independent of m and its hole at
    s = h p^j.  If l|s' is an application, every slice m >= j clashes with
    it at s'.  Else l|s' is a variable x, every other position of l is a
    prefix of s' or parallel to s, and there slice m >= j at k has the
    subterm of E mu^k.

    (a) x occurs in l once.  Slice m >= j is solvable at exactly the k where
        slice j is.
    (b) x also occurs at q, parallel to s.  Let e be the least exponent with
        q a position of D[T_j] mu^e, and w = D[T_j] mu^e |q; with no such e,
        no slice m >= j has l's position q.  Let V be the variable closure
        under mu of the variables of D[T_0] and C (T_m holds C's and
        T_(m-1) mu's), and K = |V|.  If slice m >= j is solvable at k, then
        k >= e, and x's two occurrences give (D[T_m]|s') mu^k = w mu^(k-e):
        mu^(k-e) equates (D[T_m]|s') mu^e and w, two terms over V.  By the
        identity lemma (step 4 of exponent_bound) mu^K does too, so
        |(D[T_m]|s') mu^(e+K)| = |w mu^K|.  The left side grows strictly
        with m, as |T_(n+1) mu^i| = |C mu^i| - 1 + |T_n mu^(i+1)| (the hole
        counted as a node) and mu never shrinks a term, so one m >= j at
        most meets it.  Both sides are counted from |x mu^i| for x in V.
    """

    def slice_at(m: int) -> tuple[int, Term]:
        # Slice m, or the first one before it whose tower outgrows the limit.
        while len(tower) <= m and term_size(tower[-1]) <= MAX_TERM_SIZE:
            tower.append(apply_context_substitution(tower[-1], c, mu, 1))
        m = min(m, len(tower) - 1)
        return m, d.plug(tower[m])

    path, x, y, at = d.hole_pos, lhs, d.term, ()
    while x.__class__ is Application:
        if len(at) == len(path):
            path, y = path + c.hole_pos, c.term
        if x.symbol != y.symbol or len(x.args) != len(y.args):
            break
        at += (path[len(at)],)
        x, y = x.args[at[-1] - 1], y.args[at[-1] - 1]
    j = max(0, (len(at) - len(d.hole_pos)) // len(c.hole_pos) + 1)
    out = []
    for m in range(j + 1):
        out.append(slice_at(m))
        if term_size(out[-1][1]) > MAX_TERM_SIZE:
            return out
    q = next((q for q, u in subterms(lhs) if u is x and q != at), None)
    exposed = _exposed(out[j][1], q, mu) if x.__class__ is Variable and q is not None else None
    if exposed is None:
        return out
    w, e = exposed
    holed = c.plug(HOLE)
    sizes = [dict.fromkeys(variable_closure(out[0][1], mu) | variable_closure(holed, mu), 1)]

    def size(t: Term, i: int) -> int:  # |t mu^i|, from sizes[i][x] = |x mu^i|
        while len(sizes) <= i:
            sizes.append({x: size(mu.apply(Variable(x)), len(sizes) - 1) for x in sizes[0]})
        return sum(sizes[i][v.name] if v.__class__ is Variable else 1 for _, v in subterms(t))

    k = len(sizes[0])
    target, grown = size(w, k), size(subterm_at(out[j][1], at), e + k)
    i = j + e + k  # slice j + n holds T_n mu^j, here under mu^(e+K)
    while grown < target:
        grown += size(holed, i) - 1 + size(tower[0], i + 1) - size(tower[0], i)
        i += 1
    if grown == target and i > j + e + k:
        out.append(slice_at(i - e - k))
    return out
