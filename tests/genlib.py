"""Seeded generators and reference checks shared across the test suite.

Everything is deterministic given the Random instance passed in, so every
property run is reproducible from its seed.  The heavy suites draw from
here: the context-substitution identities, the solver-versus-oracle
comparison, and the decider coherence corpus.  The renderers at the end
write systems, patterns and certificates back as input text, for the
parsers' round-trip tests.
"""

from __future__ import annotations

import itertools
import json
import random

from loopcert import (
    Application,
    Context,
    ExtendedMatchingProblem,
    HOLE,
    LoopCertificate,
    MatchingProblem,
    NotARedex,
    NotParallel,
    PatternKind,
    Rule,
    Solvable,
    StrategySpec,
    Substitution,
    Term,
    Trs,
    Unknown,
    Unsolvable,
    Variable,
    Witness,
    apply_context_substitution,
    apply_substitution,
    are_parallel,
    certificate_to_document,
    concrete_checks,
    decide_loop,
    exponent_bound,
    find_loops,
    format_position,
    innermost_patterns,
    is_left_of,
    is_strict_prefix,
    outermost_patterns,
    positions,
    replace_at,
    rewrite_at,
    solve_problem,
    strategy_allows,
    subterm_at,
    subterms,
    term_size,
    unroll_loop,
    validate_loop,
    variable_closure,
    variables_of,
)
from loopcert.rewriting import match_pattern, redex_positions

ARITIES = {"f": 2, "g": 1, "h": 2, "k": 3, "s": 1, "a": 0, "b": 0, "c": 0}
CONSTANTS = tuple(f for f, n in ARITIES.items() if n == 0)
NON_CONSTANTS = tuple(f for f, n in ARITIES.items() if n > 0)
VARS = ("x", "y", "z", "w")


def random_term(
    rng: random.Random,
    variables: tuple[str, ...] = VARS,
    depth: int = 3,
) -> Term:
    if depth == 0 or rng.random() < 0.3:
        if variables and rng.random() < 0.5:
            return Variable(rng.choice(variables))
        return Application(rng.choice(CONSTANTS))
    f = rng.choice(NON_CONSTANTS)
    return Application(
        f, tuple(random_term(rng, variables, depth - 1) for _ in range(ARITIES[f]))
    )


def random_image(
    rng: random.Random,
    variables: tuple[str, ...] = VARS,
    depth: int = 2,
    wild: float = 0.1,
) -> Term:
    """Substitution image with at most one variable occurrence.

    Keeps pumped terms growing linearly so high powers stay desk-sized; with
    probability `wild` the image is a small unrestricted term instead, which
    may duplicate variables (callers that pump to high exponents pass 0).
    """
    if rng.random() < wild:
        return random_term(rng, variables, 1)
    budget = [1]

    def build(d: int) -> Term:
        if d == 0 or rng.random() < 0.35:
            if budget[0] and variables and rng.random() < 0.6:
                budget[0] = 0
                return Variable(rng.choice(variables))
            return Application(rng.choice(CONSTANTS))
        f = rng.choice(NON_CONSTANTS)
        return Application(f, tuple(build(d - 1) for _ in range(ARITIES[f])))

    return build(depth)


def random_substitution(
    rng: random.Random,
    variables: tuple[str, ...] = VARS,
    wild: float = 0.1,
    depth: int = 2,
) -> Substitution:
    domain = [x for x in variables if rng.random() < 0.6]
    return Substitution(
        {x: random_image(rng, variables, depth, wild) for x in domain}
    )


def random_context(
    rng: random.Random, variables: tuple[str, ...] = VARS, depth: int = 3
) -> Context:
    body = random_term(rng, variables, depth)
    p = rng.choice(list(positions(body)))
    return Context(replace_at(body, p, HOLE), p)


def random_pattern(
    rng: random.Random, variables: tuple[str, ...] = ("x", "y"), depth: int = 2
) -> Term:
    """Non-variable term over a small variable pool, so repeats are common."""
    f = rng.choice(NON_CONSTANTS)
    return Application(
        f, tuple(random_term(rng, variables, depth - 1) for _ in range(ARITIES[f]))
    )


def random_rule(rng: random.Random) -> Rule:
    lhs = random_pattern(rng, ("x", "y"), depth=2)
    lhs_vars = tuple(sorted(set(v for v in ("x", "y") if Variable(v) in _leaves(lhs))))
    rhs = random_term(rng, lhs_vars, depth=rng.randint(1, 2))
    return Rule(lhs, rhs)


def _leaves(t: Term) -> list[Term]:
    if isinstance(t, Variable):
        return [t]
    out: list[Term] = []
    for a in t.args:
        out.extend(_leaves(a))
    return out


# ---------------------------------------------------------------------------
# Context-substitution identities (the algebra every decider construction
# leans on): checked instance by instance against direct computation.


def wrap_identity_failures(rng: random.Random, bases: int) -> tuple[int, list[str]]:
    """Check the four pumping identities on random instances.

    Returns (instances checked, failure descriptions).  One instance is one
    identity at one exponent.
    """
    checked = 0
    failures: list[str] = []
    for _ in range(bases):
        t = random_term(rng)
        c = random_context(rng)
        mu = random_substitution(rng)
        cs = (c, mu)
        cs_mu = (c.substitute(mu), mu)
        p = c.hole_pos

        # (i) t(C,mu)^n mu = (t mu)(C mu, mu)^n
        for n in range(6):
            checked += 1
            left = apply_substitution(apply_context_substitution(t, *cs, n), mu, 1)
            right = apply_context_substitution(
                apply_substitution(t, mu, 1), *cs_mu, n
            )
            if left != right:
                failures.append(f"(i) n={n} t={t} C={c} mu={mu}")

        # (ii) t(C,mu)^m (C,mu)^n = t(C,mu)^(m+n)
        for m in range(4):
            for n in range(4 - m + 1):
                checked += 1
                left = apply_context_substitution(
                    apply_context_substitution(t, *cs, m), *cs, n
                )
                right = apply_context_substitution(t, *cs, m + n)
                if left != right:
                    failures.append(f"(ii) m={m} n={n} t={t} C={c} mu={mu}")

        # (iii) t(C,mu)^n restricted to p^n is t mu^n
        for n in range(6):
            checked += 1
            left = subterm_at(apply_context_substitution(t, *cs, n), p * n)
            right = apply_substitution(t, mu, n)
            if left != right:
                failures.append(f"(iii) n={n} t={t} C={c} mu={mu}")

        # (iv) a step at q transports to a step at p^n q in the pumped term
        rule = random_rule(rng)
        sigma = Substitution(
            {x: random_term(rng, VARS, 1) for x in _rule_vars(rule)}
        )
        host = random_term(rng)
        q = rng.choice(list(positions(host)))
        redex_host = replace_at(host, q, sigma.apply(rule.lhs))
        stepped = rewrite_at(redex_host, q, rule)
        for n in range(5):
            checked += 1
            left = rewrite_at(
                apply_context_substitution(redex_host, *cs, n), p * n + q, rule
            )
            right = apply_context_substitution(stepped, *cs, n)
            if left != right:
                failures.append(f"(iv) n={n} rule={rule} t={redex_host} C={c} mu={mu}")
    return checked, failures


def _rule_vars(rule: Rule) -> tuple[str, ...]:
    return tuple(sorted({v.name for v in _leaves(rule.lhs) if isinstance(v, Variable)}))


# ---------------------------------------------------------------------------
# Solver versus brute-force oracle.

# Two terms side by side, under a symbol that ARITIES lacks.  Against
# pair(w, w), pair(a, b) poses the identity a mu^n = b mu^n; against
# pair(l1, l2), pair(u1, u2) poses two matches with one shared sigma.
IDENTITY_PATTERN = Application("pair", (Variable("w"), Variable("w")))


def identity_problem(a: Term, b: Term, mu: Substitution) -> MatchingProblem:
    """a mu^n = b mu^n, encoded as pair(a, b) against pair(w, w)."""
    return MatchingProblem(Application("pair", (a, b)), IDENTITY_PATTERN, mu)


def random_matching_problem(rng: random.Random, wild: float = 0.0) -> MatchingProblem:
    # Linear images by default: the solver and oracle pump these to exponent
    # 32.  A positive *wild* lets images duplicate variables, so terms grow
    # until the solver's size limit stops them.  One problem in four poses
    # two pairs side by side.
    mu = random_substitution(rng, wild=wild)
    pairs = []
    for _ in range(rng.choice((1, 1, 1, 2))):
        pattern = random_pattern(rng)
        roll = rng.random()
        if roll < 0.3:
            # Instance of the pattern: solvable at n = 0 unless another pair vetoes.
            theta = Substitution(
                {x: random_term(rng, VARS, 1) for x in _pattern_vars(pattern)}
            )
            subject = theta.apply(pattern)
        elif roll < 0.6 and isinstance(pattern, Application):
            subject = Application(
                pattern.symbol,
                tuple(random_term(rng, VARS, 2) for _ in pattern.args),
            )
        else:
            subject = random_term(rng)
        pairs.append((subject, pattern))
    if len(pairs) == 1:
        return MatchingProblem(*pairs[0], mu)
    (u1, l1), (u2, l2) = pairs
    return MatchingProblem(
        Application("pair", (u1, u2)), Application("pair", (l1, l2)), mu
    )


def _pattern_vars(t: Term) -> tuple[str, ...]:
    return tuple(sorted({v.name for v in _leaves(t) if isinstance(v, Variable)}))


def random_identity_problem(rng: random.Random) -> MatchingProblem:
    """An identity constraint u mu^n = v mu^n alone."""
    mu = random_substitution(rng, wild=0.0)
    u = random_term(rng)
    if rng.random() < 0.5:
        ps = list(positions(u))
        v = replace_at(u, rng.choice(ps), random_term(rng, VARS, 1))
    else:
        v = random_term(rng)
    return identity_problem(u, v, mu)


def random_identity_chain_problem(rng: random.Random) -> MatchingProblem:
    """One identity over 2-7 variables whose images are mostly variables.

    Variable chains delay the step where a variable shows a symbol, and
    binary images duplicate, so least witnesses reach the exponent bound.
    """
    names = tuple(f"v{i}" for i in range(rng.randint(2, 7)))
    images = {}
    for x in names:
        roll = rng.random()
        if roll < 0.55:
            images[x] = Variable(rng.choice(names))
        elif roll < 0.7:
            images[x] = Application(rng.choice(CONSTANTS))
        elif roll < 0.9:
            f = rng.choice(("g", "f"))
            images[x] = Application(
                f, tuple(Variable(rng.choice(names)) for _ in range(ARITIES[f]))
            )
    if rng.random() < 0.7:
        a, b = (Variable(x) for x in rng.sample(names, 2))
    else:
        a, b = random_term(rng, names, 1), random_term(rng, names, 1)
    return identity_problem(a, b, Substitution(images))


def random_extended_problem(rng: random.Random) -> ExtendedMatchingProblem:
    # Kept tiny on purpose: brute_force_check scans the whole m+k grid,
    # so the tower at m = 32 must still be a small term.
    mu = random_substitution(rng, ("x", "y"), wild=0.0, depth=1)
    return ExtendedMatchingProblem(
        random_context(rng, ("x", "y"), 2),
        random_pattern(rng, ("x", "y"), rng.randint(1, 2)),
        random_context(rng, ("x", "y"), 1),
        random_term(rng, ("x", "y"), 1),
        mu,
    )


def random_problem(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return random_matching_problem(rng)
    if roll < 0.75:
        return random_identity_problem(rng)
    return random_extended_problem(rng)


def brute_force_check(problem, bound: int) -> Witness | None:
    """Exhaustive reference search for the least witness within bound.

    Built directly on term primitives, independent of the layered solver, so
    the two can be tested against each other.
    """
    if isinstance(problem, MatchingProblem):
        u = problem.subject
        for n in range(bound + 1):
            sigma = match_pattern(problem.pattern, u)
            if sigma is not None:
                return Witness(n=n, sigma=sigma)
            u = problem.mu.apply(u)
        return None
    towers = [problem.t]
    rows: list[Term] = []
    for total in range(bound + 1):
        for m in range(total + 1):
            while len(towers) <= m:
                towers.append(
                    apply_context_substitution(towers[-1], problem.c, problem.mu, 1)
                )
            if len(rows) <= m:
                rows.append(problem.d.plug(towers[m]))
            u = rows[m]
            sigma = match_pattern(problem.lhs, u)
            rows[m] = problem.mu.apply(u)
            if sigma is not None:
                return Witness(m=m, k=total - m, sigma=sigma)
    return None


def reverify_witness(problem, w: Witness) -> bool:
    """Check a claimed witness by direct computation, no solver involved."""
    if isinstance(problem, MatchingProblem):
        subject = apply_substitution(problem.subject, problem.mu, w.n)
        return w.sigma is not None and w.sigma.apply(problem.pattern) == subject
    pumped = apply_context_substitution(problem.t, problem.c, problem.mu, w.m)
    subject = apply_substitution(problem.d.plug(pumped), problem.mu, w.k)
    return w.sigma is not None and w.sigma.apply(problem.lhs) == subject


def solver_oracle_failures(problem, bound: int = 32) -> list[str]:
    """Compare the solver against exhaustive search.

    Extended problems are searched to *bound*, or to the m + k of the
    solver's witness when that is larger (bound caps only m), so a witness
    is always checked least.  Matching problems are searched to their
    exponent bound, past which no least witness lies, so a refutation is
    checked exhaustively and a witness is checked least.
    """
    failures: list[str] = []
    res = solve_problem(problem, bound)
    if isinstance(problem, MatchingProblem):
        bound = exponent_bound(problem)
    elif isinstance(res, Solvable):
        bound = max(bound, res.witness.m + res.witness.k)
    oracle = brute_force_check(problem, bound)
    if isinstance(res, Solvable):
        w = res.witness
        if not reverify_witness(problem, w):
            failures.append(f"witness does not re-verify: {w} for {problem}")
        if oracle is None:
            failures.append(f"solver found {w} but oracle found nothing: {problem}")
        elif (w.n, w.m, w.k) != (oracle.n, oracle.m, oracle.k):
            failures.append(
                f"witness mismatch: solver {w}, oracle {oracle}: {problem}"
            )
    elif isinstance(res, Unsolvable):
        if oracle is not None:
            failures.append(
                f"solver refuted ({res.reason.value}) but oracle found"
                f" {oracle}: {problem}"
            )
    else:
        assert isinstance(res, Unknown)
        if isinstance(problem, MatchingProblem) and "limit" not in res.note:
            failures.append(f"matching problem unknown ({res.note}): {problem}")
        if oracle is not None and "limit" not in res.note:
            failures.append(
                f"solver gave up ({res.note}) but oracle found {oracle}: {problem}"
            )
    return failures


def monotonicity_failures(problem, low: int = 8, high: int = 32) -> list[str]:
    """Raising the bound may settle Unknown but never flips a definite answer."""
    failures: list[str] = []
    res_low = solve_problem(problem, low)
    res_high = solve_problem(problem, high)
    if isinstance(res_low, Solvable) and not isinstance(res_high, Solvable):
        failures.append(f"Solvable at {low} but not at {high}: {problem}")
    if isinstance(res_low, Unsolvable) and not isinstance(res_high, Unsolvable):
        failures.append(f"Unsolvable at {low} but not at {high}: {problem}")
    if isinstance(res_low, Solvable) and isinstance(res_high, Solvable):
        if res_low.witness != res_high.witness:
            failures.append(f"witness changed between bounds: {problem}")
    return failures


# ---------------------------------------------------------------------------
# Random systems whose loops the finder can reach, for decider coherence.


def random_looping_trs(rng: random.Random) -> Trs:
    """A system with a planted f-loop plus a little random noise."""
    x, y = Variable("x"), Variable("y")
    lhs = Application("f", (x, y))
    small = [x, y, Application("s", (x,)), Application("s", (y,)), Application("a")]
    core = Application("f", (rng.choice(small), rng.choice(small)))
    wrap = rng.random()
    if wrap < 0.4:
        rhs: Term = core
    elif wrap < 0.7:
        rhs = Application("h", (rng.choice(small), core))
    else:
        rhs = Application("s", (core,))
    rules = [Rule(lhs, rhs)]
    for _ in range(rng.randint(0, 2)):
        rules.append(random_rule(rng))
    return Trs.from_rules(rules, VARS)


def random_copying_trs(rng: random.Random) -> Trs:
    """A looping system plus one or two rules that copy a variable into
    parallel arguments, so reached terms hold many parallel redexes."""
    rules = list(random_looping_trs(rng).rules)
    for _ in range(rng.randint(1, 2)):
        lhs = random_pattern(rng, depth=1)
        while not variables_of(lhs):
            lhs = random_pattern(rng, depth=1)
        x = Variable(rng.choice(sorted(variables_of(lhs))))
        f = rng.choice(("f", "h", "k"))
        copies = (x, Application("g", (x,)), Application("s", (x,)))
        rhs = Application(f, tuple(rng.choice(copies) for _ in range(ARITIES[f])))
        rules.append(Rule(lhs, rhs))
    return Trs.from_rules(rules, VARS)


def golden_find_systems():
    """(seed, trs, depth) for the 50 seeded random systems whose ``find``
    output golden_find.json pins; every other one gains a rule whose
    left-hand side f(y,x) is a variant of f(x,y)."""
    x, y = Variable("x"), Variable("y")
    for seed in range(50):
        rng = random.Random(seed)
        rules = list(random_looping_trs(rng).rules)
        if seed % 2:
            at = rng.randint(1, len(rules))
            rules.insert(at, Rule(Application("f", (y, x)), random_term(rng, ("x", "y"), 2)))
        yield seed, Trs.from_rules(rules, VARS), rng.randint(1, 5)


def coherence_corpus(rng: random.Random, want: int):
    """(trs, validated loop) pairs found by the breadth-first searcher."""
    out = []
    while len(out) < want:
        trs = random_looping_trs(rng)
        certs = find_loops(trs, depth=rng.randint(1, 3), max_size=26)
        for cert in certs[:3]:
            out.append((trs, validate_loop(trs, cert)))
            if len(out) >= want:
                break
    return out


def power(trs: Trs, loop, k: int):
    """The k-fold power of a validated loop: one certificate that runs it k times.

    The steps of iteration j are prefixed by p^j for p the hole position of
    C; the closing pair is (C_k, mu^k) with C_k = [](C, mu)^k, whose hole
    sits at p^k, and mu^k taken over the variable closure of mu's domain.
    A power is a loop exactly when the loop is, under every strategy.
    """
    cert = loop.certificate
    c, mu = cert.context, cert.subst
    steps = tuple(
        tuple((c.hole_pos * j + q, i) for q, i in step)
        for j in range(k)
        for step in cert.steps
    )
    body = apply_context_substitution(HOLE, c, mu, k)
    domain = Application("", tuple(Variable(x) for x in sorted(mu.domain())))
    mu_k = Substitution(
        {x: apply_substitution(Variable(x), mu, k) for x in variable_closure(domain, mu)}
    )
    return validate_loop(
        trs, LoopCertificate(cert.start, steps, Context(body, c.hole_pos * k), mu_k)
    )


SEQUENTIAL_COHERENCE = (
    "leftmost",
    "innermost",
    "outermost",
    "leftmost-innermost",
    "leftmost-outermost",
    "max-parallel",
)
PARALLEL_COHERENCE = (
    "parallel-innermost",
    "parallel-outermost",
    "max-parallel",
    "max-parallel-innermost",
    "max-parallel-outermost",
)


def coherence_failures(
    trs: Trs, loop, names=SEQUENTIAL_COHERENCE, bound: int = 24, levels: int = 4
) -> list[str]:
    """Check one loop's verdicts against concrete replay and the verdict laws.

    A yes must survive strategy_allows on every step of every unrolling up
    to the level cap; a confirmed no must fail exactly where it says; the
    encoding strategies must agree with their forbidden-pattern forms; and
    the combined strategies must be the conjunction of their parts when all
    three verdicts are definite.
    """
    failures: list[str] = []
    verdicts = {}
    for name in names:
        spec = StrategySpec(name)
        v = decide_loop(trs, loop, spec, bound)
        verdicts[name] = v.answer
        checks = concrete_checks(spec)
        if v.answer == "yes":
            for n in range(levels + 1):
                unrolled = unroll_loop(loop, n)
                for j, step in enumerate(unrolled.certificate.steps):
                    qs = [q for q, _ in step]
                    if not all(
                        strategy_allows(unrolled.terms[j], qs, trs, chk, spec.patterns)
                        for chk in checks
                    ):
                        failures.append(
                            f"{name}: yes, but level {n} step {j + 1} violates"
                            f" the strategy (loop {loop.certificate.start})"
                        )
        elif v.answer == "no" and v.evidence.level is not None:
            n, j = v.evidence.level, v.evidence.violation_step
            unrolled = unroll_loop(loop, n)
            qs = [q for q, _ in unrolled.certificate.steps[j - 1]]
            if all(
                strategy_allows(unrolled.terms[j - 1], qs, trs, chk, spec.patterns)
                for chk in checks
            ):
                failures.append(
                    f"{name}: confirmed violation at level {n} step {j}"
                    f" actually passes (loop {loop.certificate.start})"
                )
    for name, encoding in (
        ("innermost", innermost_patterns),
        ("outermost", outermost_patterns),
    ):
        if name not in verdicts:
            continue
        enc = decide_loop(
            trs,
            loop,
            StrategySpec("forbidden", encoding(trs.lhss())),
            bound,
        )
        if enc.answer != verdicts[name]:
            failures.append(
                f"{name} verdict {verdicts[name]} differs from its encoding"
                f" verdict {enc.answer} (loop {loop.certificate.start})"
            )
    for combined, part in (
        ("leftmost-innermost", "innermost"),
        ("leftmost-outermost", "outermost"),
    ):
        trio = (verdicts.get("leftmost"), verdicts.get(part), verdicts.get(combined))
        if None in trio or "unknown" in trio:
            continue
        expected = "yes" if trio[0] == "yes" and trio[1] == "yes" else "no"
        if trio[2] != expected:
            failures.append(
                f"{combined} is {trio[2]} but leftmost={trio[0]} and"
                f" {part}={trio[1]} (loop {loop.certificate.start})"
            )
    return failures


# ---------------------------------------------------------------------------
# A reference for find_loops, with none of its incremental bookkeeping.


def reference_find_loops(trs: Trs, depth: int, max_size: int, start: Term | None = None):
    """Plain breadth-first search from the given start, or else from each
    left-hand side: every reached term is rewritten in full, scanned whole
    for its redexes, and matched against the start at every subterm.  A
    left-hand side that is an instance of an earlier one and the other way
    round (a variant) is skipped, as find_loops skips it."""
    starts: list[Term] = []
    for t0 in trs.lhss() if start is None else (start,):
        if not any(match_pattern(t0, t) and match_pattern(t, t0) for t in starts):
            starts.append(t0)
    out = []
    for t0 in starts:
        frontier = [(t0, ())]
        visited = {t0}
        for _ in range(depth):
            nxt = []
            for s, path in frontier:
                for q, i in redex_positions(s, trs):
                    s2 = rewrite_at(s, q, trs.rules[i])
                    if term_size(s2) > max_size or s2 in visited:
                        continue
                    visited.add(s2)
                    path2 = path + (((q, i),),)
                    for p, u in subterms(s2):
                        mu = match_pattern(t0, u)
                        if mu is not None:
                            context = Context(replace_at(s2, p, HOLE), p)
                            out.append(LoopCertificate(t0, path2, context, mu))
                    nxt.append((s2, path2))
            frontier = nxt
    return tuple(out)


# ---------------------------------------------------------------------------
# Random step instances for the strategy-predicate encodings.


def random_redex_instance(rng: random.Random, trs: Trs):
    """A term with at least one redex, plus one of its redex positions."""
    t = random_term(rng, VARS, 3)
    hits = redex_positions(t, trs)
    if not hits:
        rule = trs.rules[rng.randrange(len(trs.rules))]
        sigma = Substitution(
            {x: random_term(rng, VARS, 1) for x in _rule_vars(rule)}
        )
        spot = rng.choice(list(positions(t)))
        t = replace_at(t, spot, sigma.apply(rule.lhs))
        hits = redex_positions(t, trs)
    q, _ = hits[rng.randrange(len(hits))]
    return t, q


def reference_strategy_allows(t, step_positions, trs, check, patterns=()) -> bool:
    """strategy_allows as it read the whole term: every redex position is
    collected first and each component filters them.  The reference for the
    version that reads only the region its component is defined on."""
    qs = sorted(set(step_positions))
    if not qs:
        raise NotParallel("a step needs at least one position")
    redexes = {p for p, _ in redex_positions(t, trs)}
    for q in qs:
        if q not in redexes:
            raise NotARedex(f"no redex at {format_position(q)} in {t}")
    if check == "leftmost":
        return len(qs) == 1 and not any(is_left_of(r, qs[0]) for r in redexes)
    if check == "innermost":
        return all(not any(is_strict_prefix(q, r) for r in redexes) for q in qs)
    if check == "outermost":
        return all(not any(is_strict_prefix(r, q) for r in redexes) for q in qs)
    if check == "max-parallel":
        if any(not are_parallel(a, b) for a, b in itertools.combinations(qs, 2)):
            return False
        return not any(
            r not in qs and all(are_parallel(r, q) for q in qs) for r in redexes
        )
    if check == "forbidden":
        if len(qs) != 1:
            return False
        for pat in patterns:
            for oprime, sub in subterms(t):
                if match_pattern(pat.lhs, sub) is None:
                    continue
                anchor = oprime + pat.pos
                if pat.kind is PatternKind.HERE and qs[0] == anchor:
                    return False
                if pat.kind is PatternKind.ABOVE and is_strict_prefix(qs[0], anchor):
                    return False
                if pat.kind is PatternKind.BELOW and is_strict_prefix(anchor, qs[0]):
                    return False
        return True
    raise ValueError(f"unknown strategy component {check!r}")


# ---------------------------------------------------------------------------
# Input text from parsed values, for the parsers' round-trip tests.


def render_trs(trs: Trs) -> str:
    lines = []
    if trs.variables:
        lines.append(f"(VAR {' '.join(sorted(trs.variables))})")
    lines.append("(RULES")
    for rule in trs.rules:
        lines.append(f"  {rule.lhs} -> {rule.rhs}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def render_patterns(patterns) -> str:
    return "".join(f"{p.lhs} @ {format_position(p.pos)} : {p.kind.value}\n" for p in patterns)


def render_loop_certificate(cert) -> str:
    return json.dumps(certificate_to_document(cert), sort_keys=True, indent=2) + "\n"
