"""Matching problems, identity constraints encoded as them, and extended
problems decided as their slices.

Ordering matters here: the brute-force oracle is pinned first, then the
layered solver against the same inputs, then the two against each other on
random problems.  The oracle never looks at the solver's layers, so
agreement is meaningful evidence.
"""

import random

import pytest

import genlib
from genlib import Extended, brute_force_check, identity_problem, slice_decision
from loopcert import problems
from loopcert.errors import InternalError, LoopcertError
from loopcert import (
    Application,
    Context,
    EMPTY_SUBSTITUTION,
    HOLE,
    MatchingProblem,
    Solvable,
    Substitution,
    Unknown,
    Unsolvable,
    UnsolvableReason,
    Variable,
    apply_context_substitution,
    apply_substitution,
    exponent_bound,
    parse_term,
    extended_slices,
    solve_problem,
    variable_closure,
)


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


@pytest.fixture(scope="module")
def swap_problem():
    """g(x,y) against g(x,x) under the two-variable shift; solvable at 2."""
    return MatchingProblem(
        app("g", v("x"), v("y")),
        app("g", v("x"), v("x")),
        Substitution({"x": v("y"), "y": v("z")}),
    )


@pytest.fixture(scope="module")
def rotate_problem():
    """g(x) against g(s(s(s(x)))) under a three-variable rotation; solvable at 9."""
    return MatchingProblem(
        app("g", v("x")),
        app("g", app("s", app("s", app("s", v("x"))))),
        Substitution({"x": v("y"), "y": v("z"), "z": app("s", v("x"))}),
    )


def false_problems(factorial):
    mu = Substitution({"x": app("s", v("x"))})
    return [MatchingProblem(app("false"), rule.lhs, mu) for rule in factorial.rules]


# ---------------------------------------------------------------------------
# The oracle, pinned first


def test_oracle_swap(swap_problem):
    w = brute_force_check(swap_problem, 8)
    assert w is not None and w.n == 2


def test_oracle_rotate_is_bound_sensitive(rotate_problem):
    assert brute_force_check(rotate_problem, 8) is None
    w = brute_force_check(rotate_problem, 16)
    assert w is not None and w.n == 9


def test_oracle_false_never_matches_any_lhs(factorial):
    for problem in false_problems(factorial):
        assert brute_force_check(problem, 32) is None


# ---------------------------------------------------------------------------
# Matching problems


def test_solve_matching_swap(swap_problem):
    result = solve_problem(swap_problem)
    assert isinstance(result, Solvable)
    assert result.witness.n == 2
    assert result.witness.sigma == Substitution({"x": v("z")})
    # Problems and results are values: equal fields, equal and hashing alike.
    twin = MatchingProblem(swap_problem.subject, swap_problem.pattern, swap_problem.mu)
    assert twin is not swap_problem and twin == swap_problem
    assert hash(twin) == hash(swap_problem) and len({twin, swap_problem}) == 1
    assert twin != MatchingProblem(swap_problem.subject, swap_problem.subject, swap_problem.mu)
    assert solve_problem(twin) == result and hash(solve_problem(twin)) == hash(result)


def test_solve_matching_rotate(rotate_problem):
    result = solve_problem(rotate_problem)
    assert isinstance(result, Solvable)
    assert result.witness.n == 9
    assert result.witness.sigma == EMPTY_SUBSTITUTION


def test_solve_matching_false_vs_all_lhss(factorial):
    for problem in false_problems(factorial):
        assert isinstance(solve_problem(problem), Unsolvable)


def test_solve_matching_stream_head(stream):
    problem = MatchingProblem(
        parse_term("cons(x,cons(s(x),inf(s(s(x)))))", stream),
        parse_term("cons(x,cons(y,inf(z)))", stream),
        Substitution({"x": app("s", v("x"))}),
    )
    result = solve_problem(problem)
    assert isinstance(result, Solvable)
    assert result.witness.n == 0
    assert result.witness.sigma == Substitution(
        {"y": app("s", v("x")), "z": app("s", app("s", v("x")))}
    )


def test_solve_matching_witness_reverifies(swap_problem, rotate_problem):
    for problem in (swap_problem, rotate_problem):
        w = solve_problem(problem).witness
        assert apply_substitution(problem.subject, problem.mu, w.n) == w.sigma.apply(
            problem.pattern
        )


def test_failed_witness_recheck_is_an_internal_error(monkeypatch, swap_problem):
    # The recheck must survive python -O, and a failure is a bug in the
    # solver, never reported as bad input.
    monkeypatch.setattr(problems, "match_pattern", lambda pattern, subject: None)
    with pytest.raises(InternalError, match="failed recheck") as caught:
        solve_problem(swap_problem)
    assert not isinstance(caught.value, LoopcertError)


def test_root_clash_certificate(factorial):
    problem = MatchingProblem(
        app("false"),
        parse_term("eq(x,y)", factorial),
        Substitution({"x": app("s", v("x"))}),
    )
    result = solve_problem(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.ROOT_CLASH


def test_variable_orbit_certificate():
    # x only ever reaches variables under mu, so it can never grow a root
    # symbol to match a non-variable pattern.
    problem = MatchingProblem(
        v("x"), app("f", v("y")), Substitution({"x": v("y"), "y": v("x")})
    )
    result = solve_problem(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.VARIABLE_ORBIT


def test_exponent_bound_certificate():
    # The identity residual (x, y) steps to (s(x), s(y)) and decomposes back
    # to itself forever; no witness up to |{x, y}| * (1 + 1) = 4 refutes it.
    problem = MatchingProblem(
        app("f", v("x"), v("y")),
        app("f", v("w"), v("w")),
        Substitution({"x": app("s", v("x")), "y": app("s", v("y"))}),
    )
    assert exponent_bound(problem) == 4
    result = solve_problem(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.EXPONENT_BOUND
    assert brute_force_check(problem, 32) is None


def test_exponent_bound_counts_closure_variables_and_pattern_depth(rotate_problem):
    # V = {x, y, z} (y and z are reached through mu), d = 4.
    assert exponent_bound(rotate_problem) == 15
    # An encoded identity: pair(w, w) has d = 1; unmapped and ground sides
    # add nothing to V.
    chain = Substitution({"x": v("y"), "y": app("a")})
    assert exponent_bound(identity_problem(v("x"), v("y"), chain)) == 4
    ground = identity_problem(app("a"), app("b"), EMPTY_SUBSTITUTION)
    assert exponent_bound(ground) == 0


def test_least_witness_can_sit_at_the_exponent_bound():
    # x -> y -> a: x mu^n first matches the constant a at n = 2 = |{x, y}|,
    # and a constant pattern has d = 0.
    chain = Substitution({"x": v("y"), "y": app("a")})
    problem = MatchingProblem(v("x"), app("a"), chain)
    assert solve_problem(problem).witness.n == 2 == exponent_bound(problem)


def test_matching_honest_unknown(monkeypatch):
    # y reaches t4, the tree of d's four levels deep over x, after four
    # steps, when x has grown the same tree: solvable at 4.  x's tree
    # outgrows a state size limit of 10 before that, and the solver must
    # then say unknown, not refute.
    t2 = app("d", app("d", v("x"), v("x")), app("d", v("x"), v("x")))
    t4 = app("d", app("d", t2, t2), app("d", t2, t2))
    problem = MatchingProblem(
        app("g", v("x"), v("y")),
        app("g", v("w"), v("w")),
        Substitution({
            "x": app("d", v("x"), v("x")),
            "y": v("y1"), "y1": v("y2"), "y2": v("y3"), "y3": t4,
        }),
    )
    oracle = brute_force_check(problem, exponent_bound(problem))
    assert oracle.n == 4
    assert solve_problem(problem).witness == oracle
    monkeypatch.setattr(problems, "MAX_TERM_SIZE", 10)
    result = solve_problem(problem)
    assert result == Unknown("state size limit reached")


def test_matching_size_guard_reports_its_limit(monkeypatch):
    # x doubles every step while y's tree grows one level every two steps,
    # so the identity never holds and the state grows until the exponent
    # bound |{x, y, z}| * (1 + 1) = 6 refutes it, or a small limit stops it.
    problem = MatchingProblem(
        app("g", v("x"), v("y")),
        app("g", v("w"), v("w")),
        Substitution({
            "x": app("d", v("x"), v("x")), "y": v("z"), "z": app("d", v("y"), v("y")),
        }),
    )
    assert solve_problem(problem) == Unsolvable(UnsolvableReason.EXPONENT_BOUND)
    assert brute_force_check(problem, exponent_bound(problem) + 8) is None
    monkeypatch.setattr(problems, "MAX_TERM_SIZE", 10)
    result = solve_problem(problem)
    assert isinstance(result, Unknown)
    assert "limit" in result.note


def test_equal_identity_pairs_are_kept_once(monkeypatch):
    # x and y double in step, so (x, y) reappears as several equal pairs at
    # every offset; kept once each, the state stays under a size limit of 10
    # until the exponent bound |{x, y}| * (1 + 1) = 4 refutes the problem.
    problem = MatchingProblem(
        app("g", v("x"), v("y")),
        app("g", v("w"), v("w")),
        Substitution({"x": app("d", v("x"), v("x")), "y": app("d", v("y"), v("y"))}),
    )
    assert exponent_bound(problem) == 4
    assert brute_force_check(problem, exponent_bound(problem) + 8) is None
    for cap in (10, 100_000):
        monkeypatch.setattr(problems, "MAX_TERM_SIZE", cap)
        result = solve_problem(problem)
        assert result == Unsolvable(UnsolvableReason.EXPONENT_BOUND)


# ---------------------------------------------------------------------------
# Identity constraints alone


def test_solve_identity_examples():
    assert solve_problem(
        identity_problem(v("x"), v("y"), Substitution({"x": v("y")}))
    ).witness.n == 1

    diverging = identity_problem(
        v("x"), v("y"), Substitution({"x": app("f", v("x")), "y": app("f", v("y"))})
    )
    assert isinstance(solve_problem(diverging), Unsolvable)
    assert brute_force_check(diverging, 32) is None

    assert solve_problem(
        identity_problem(app("a"), app("a"), Substitution({"x": v("y")}))
    ).witness.n == 0


# ---------------------------------------------------------------------------
# Extended problems, decided as their slices


def test_solve_extended_plug_once():
    problem = Extended(
        d=Context.from_term(app("f", HOLE)),
        lhs=app("f", app("f", v("x"))),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    w, results = slice_decision(problem)
    assert (w.m, w.k) == (1, 0)
    assert w.sigma == Substitution({"x": app("a")})
    # l follows the hole path f, f down to x at depth 2, and |h| = |p| = 1,
    # so j = 2; x occurs once, so slices 0..j decide.
    assert len(results) == 3


def test_solve_extended_root_clash():
    # Every slice has D's root g where l has f, so slice 0 alone decides.
    problem = Extended(
        d=Context.from_term(app("g", HOLE)),
        lhs=app("f", v("x")),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    w, results = slice_decision(problem)
    assert w is None
    assert results == {0: Unsolvable(UnsolvableReason.ROOT_CLASH)}


def test_solve_extended_times_never_reaches_inf(factorial, factorial_loop):
    d = Context.from_term(parse_term("times([],s(x))", factorial, allow_hole=True))
    problem = Extended(
        d=d,
        lhs=app("inf", v("x")),
        c=factorial_loop.certificate.context,
        t=factorial_loop.terms[0],
        mu=factorial_loop.certificate.subst,
    )
    w, results = slice_decision(problem)
    assert w is None and all(isinstance(r, Unsolvable) for r in results.values())
    assert brute_force_check(problem, 32) is None


def test_solve_extended_witness_reverifies():
    problem = Extended(
        d=Context.from_term(app("f", HOLE)),
        lhs=app("f", app("f", v("x"))),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    w, _ = slice_decision(problem)
    tower = apply_context_substitution(problem.t, problem.c, problem.mu, w.m)
    assert apply_substitution(problem.d.plug(tower), problem.mu, w.k) == (
        w.sigma.apply(problem.lhs)
    )


def test_solve_extended_scan_catches_rigid_clashes():
    # The rigid part of D never changes under mu, so every slice clashes
    # there, b against c; l follows the hole path to y at depth 1, which
    # occurs once, so the slices stop at j = 1.
    problem = Extended(
        d=Context.from_term(app("f", HOLE, app("b"))),
        lhs=app("f", v("y"), app("c")),
        c=Context.from_term(app("f", HOLE, v("x"))),
        t=v("x"),
        mu=Substitution({"x": app("f", v("x"), v("x"))}),
    )
    w, results = slice_decision(problem)
    assert w is None
    assert results == dict.fromkeys((0, 1), Unsolvable(UnsolvableReason.ROOT_CLASH))


def test_solve_extended_size_guard_reports_its_limit(monkeypatch):
    # l follows the hole path f, f down to y at depth 2, so j = 2: slices
    # 0..2 have 3, 7 and 15 nodes, as the duplicating mu blows up the tower.
    # Past a limit of 10 the last slice must say Unknown, not refute, and
    # no later tower is built.
    problem = Extended(
        d=Context.from_term(app("f", HOLE, v("x"))),
        lhs=app("f", app("f", v("y"), app("c")), v("z")),
        c=Context.from_term(app("f", HOLE, v("x"))),
        t=v("x"),
        mu=Substitution({"x": app("f", v("x"), v("x"))}),
    )
    w, results = slice_decision(problem)
    assert w is None and sorted(results) == [0, 1, 2]
    tower = [problem.t]
    monkeypatch.setattr(problems, "MAX_TERM_SIZE", 10)
    slices = extended_slices(problem.d, problem.lhs, problem.c, tower, problem.mu)
    assert [(m, s._size) for m, s in slices] == [(0, 3), (1, 7), (2, 15)]
    assert len(tower) == 3
    w, results = slice_decision(problem)
    assert w is None and results[2] == Unknown("state size limit reached")
    assert isinstance(results[0], Unsolvable) and isinstance(results[1], Unsolvable)


def test_solve_extended_decides_k_past_the_bound():
    # Slice m = 1 is f(g(x)) mu^k against f(g^5(y)), which the matching
    # solver settles at k = 4, with D the hole.
    g5 = v("y")
    for _ in range(5):
        g5 = app("g", g5)
    problem = Extended(
        d=Context.from_term(HOLE),
        lhs=app("f", g5),
        c=Context.from_term(app("f", HOLE)),
        t=v("x"),
        mu=Substitution({"x": app("g", v("x"))}),
    )
    w, _ = slice_decision(problem)
    assert (w.m, w.k, w.sigma) == (1, 4, Substitution({"y": v("x")}))
    assert w == brute_force_check(problem, 8)
    assert genlib.reverify_witness(problem, w)


def test_nonlinear_slice_past_j_is_posed():
    # D[T_m] = g(s^4(y), s^(2m)(y)) against g(x, x): l follows the hole
    # path to x at depth 1, so j = 1, but x also sits beside the filler,
    # over w = s^4(y).  Only slice 2 is solvable, so slices 0..j alone would
    # refute the problem; the sizes |s^(2m)(y) mu| = |w mu| = 6 pick m = 2
    # without building a slice.
    problem = Extended(
        d=Context.from_term(app("g", app("s", app("s", app("s", app("s", v("y"))))), HOLE)),
        lhs=app("g", v("x"), v("x")),
        c=Context.from_term(app("s", HOLE)),
        t=v("y"),
        mu=Substitution({"y": app("s", v("y"))}),
    )
    w, results = slice_decision(problem)
    assert sorted(results) == [0, 1, 2]
    assert [isinstance(r, Solvable) for r in results.values()] == [False, False, True]
    assert (w.m, w.k) == (2, 0)
    assert w == brute_force_check(problem, 8, 12)


def test_slice_decision_agrees_with_brute_force_past_the_last_slice():
    # Linear and nonlinear left-hand sides over four seeds: answer and least
    # (m + k, m) agree with the (m, k) grid, which reaches three slices past
    # the last one posed and every slice's exponent bound.
    kinds = {"linear": 0, "nonlinear": 0, "solvable": 0}
    failures = []
    for seed in (11, 12, 13, 41):
        rng = random.Random(seed)
        for _ in range(120):
            problem = genlib.random_extended_problem(rng)
            names = [u.name for _, u in genlib.subterms(problem.lhs) if isinstance(u, Variable)]
            kinds["nonlinear" if len(names) > len(set(names)) else "linear"] += 1
            kinds["solvable"] += slice_decision(problem)[0] is not None
            failures.extend(genlib.solver_oracle_failures(problem))
    assert failures == []
    assert min(kinds.values()) >= 20, kinds


# ---------------------------------------------------------------------------
# One solver and randomized agreement


def test_solve_problem_dispatch(swap_problem):
    # One problem kind, one solver: extended problems reach it as slices.
    assert solve_problem(swap_problem).witness.n == 2
    assert (
        solve_problem(
            identity_problem(app("a"), app("a"), EMPTY_SUBSTITUTION)
        ).witness.n
        == 0
    )
    d, c = Context.from_term(app("g", HOLE)), Context.from_term(app("f", HOLE))
    _, subject = extended_slices(d, app("f", v("x")), c, [app("a")], EMPTY_SUBSTITUTION)[0]
    assert isinstance(
        solve_problem(MatchingProblem(subject, app("f", v("x")), EMPTY_SUBSTITUTION)),
        Unsolvable,
    )


def test_solver_agrees_with_oracle_randomized():
    rng = random.Random(41)
    failures = []
    for _ in range(150):
        problem = genlib.random_problem(rng)
        failures.extend(genlib.solver_oracle_failures(problem))
    assert failures == []


def test_identity_chains_stay_within_the_exponent_bound():
    # Identities over up to 7 variables with variable chains and
    # duplicating images: searching 4 exponents past N never finds a
    # least witness above |V|, the identity lemma (step 4 of
    # exponent_bound), and the solver agrees with the search to N.
    rng = random.Random(7)
    at_bound = 0
    failures = []
    for _ in range(2000):
        problem = genlib.random_identity_chain_problem(rng)
        lemma = len(variable_closure(problem.subject, problem.mu))
        oracle = brute_force_check(problem, exponent_bound(problem) + 4)
        if oracle is not None:
            assert oracle.n <= lemma, problem
            at_bound += oracle.n == lemma
        failures.extend(genlib.solver_oracle_failures(problem))
    assert failures == []
    assert at_bound > 50  # the lemma's |V| is often reached


def test_size_limit_answers_agree_with_oracle(monkeypatch):
    # Images that duplicate variables make states grow, so small caps stop
    # some searches before the bound: those may say Unknown, never guess.
    rng = random.Random(3)
    bound = 10
    limited = 0
    for _ in range(1000):
        problem = genlib.random_matching_problem(rng, wild=0.6)
        oracle = brute_force_check(problem, bound)
        for cap in (2, 5, 12):
            monkeypatch.setattr(problems, "MAX_TERM_SIZE", cap)
            result = solve_problem(problem)
            if isinstance(result, Solvable):
                assert genlib.reverify_witness(problem, result.witness), problem
                assert result.witness == oracle, problem
            elif isinstance(result, Unsolvable) or "limit" not in result.note:
                assert oracle is None, (problem, result)
            else:
                limited += 1
    assert limited > 0


def test_raising_bounds_never_flips_answers():
    # The one bound left to raise is the size limit.
    rng = random.Random(43)
    failures = []
    for _ in range(80):
        problem = genlib.random_problem(rng)
        failures.extend(genlib.monotonicity_failures(problem))
    assert failures == []
