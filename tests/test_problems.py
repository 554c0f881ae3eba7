"""Matching problems, with or without identity constraints, and extended ones.

Ordering matters here: the brute-force oracle is pinned first, then the
layered solver against the same inputs, then the two against each other on
random problems.  The oracle never looks at the solver's layers, so
agreement is meaningful evidence.
"""

import random

import pytest

import genlib
from genlib import brute_force_check
from loopcert import problems
from loopcert.errors import InternalError, LoopcertError
from loopcert import (
    Application,
    Context,
    EMPTY_SUBSTITUTION,
    ExtendedMatchingProblem,
    HOLE,
    MatchingProblem,
    Solvable,
    SolverConfig,
    Substitution,
    Unknown,
    Unsolvable,
    UnsolvableReason,
    Variable,
    apply_context_substitution,
    apply_substitution,
    parse_term,
    solve_extended,
    solve_matching,
    solve_problem,
)


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


def matching(subject, pattern, mu) -> MatchingProblem:
    return MatchingProblem(pairs=((subject, pattern),), mu=mu)


def identity(a, b, mu) -> MatchingProblem:
    """a mu^n = b mu^n: a matching problem with no pairs."""
    return MatchingProblem(pairs=(), mu=mu, identities=((a, b),))


@pytest.fixture(scope="module")
def swap_problem():
    """g(x,y) against g(x,x) under the two-variable shift; solvable at 2."""
    return matching(
        app("g", v("x"), v("y")),
        app("g", v("x"), v("x")),
        Substitution({"x": v("y"), "y": v("z")}),
    )


@pytest.fixture(scope="module")
def rotate_problem():
    """g(x) against g(s(s(s(x)))) under a three-variable rotation; solvable at 9."""
    return matching(
        app("g", v("x")),
        app("g", app("s", app("s", app("s", v("x"))))),
        Substitution({"x": v("y"), "y": v("z"), "z": app("s", v("x"))}),
    )


def false_problems(factorial):
    mu = Substitution({"x": app("s", v("x"))})
    return [matching(app("false"), rule.lhs, mu) for rule in factorial.rules]


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
    result = solve_matching(swap_problem)
    assert isinstance(result, Solvable)
    assert result.witness.n == 2
    assert result.witness.sigma == Substitution({"x": v("z")})


def test_solve_matching_rotate(rotate_problem):
    result = solve_matching(rotate_problem)
    assert isinstance(result, Solvable)
    assert result.witness.n == 9
    assert result.witness.sigma == EMPTY_SUBSTITUTION


def test_solve_matching_false_vs_all_lhss(factorial):
    for problem in false_problems(factorial):
        assert isinstance(solve_matching(problem), Unsolvable)


def test_solve_matching_stream_head(stream):
    problem = matching(
        parse_term("cons(x,cons(s(x),inf(s(s(x)))))", stream),
        parse_term("cons(x,cons(y,inf(z)))", stream),
        Substitution({"x": app("s", v("x"))}),
    )
    result = solve_matching(problem)
    assert isinstance(result, Solvable)
    assert result.witness.n == 0
    assert result.witness.sigma == Substitution(
        {"y": app("s", v("x")), "z": app("s", app("s", v("x")))}
    )


def test_solve_matching_witness_reverifies(swap_problem, rotate_problem):
    for problem in (swap_problem, rotate_problem):
        w = solve_matching(problem).witness
        for subject, pattern in problem.pairs:
            assert apply_substitution(subject, problem.mu, w.n) == w.sigma.apply(
                pattern
            )


def test_failed_witness_recheck_is_an_internal_error(monkeypatch, swap_problem):
    # The recheck must survive python -O, and a failure is a bug in the
    # solver, never reported as bad input.
    monkeypatch.setattr(problems, "match_many", lambda pairs: None)
    with pytest.raises(InternalError, match="failed recheck") as caught:
        solve_matching(swap_problem)
    assert not isinstance(caught.value, LoopcertError)


def test_root_clash_certificate(factorial):
    problem = matching(
        app("false"),
        parse_term("eq(x,y)", factorial),
        Substitution({"x": app("s", v("x"))}),
    )
    result = solve_matching(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.ROOT_CLASH


def test_variable_orbit_certificate():
    # x only ever reaches variables under mu, so it can never grow a root
    # symbol to match a non-variable pattern.
    problem = matching(
        v("x"), app("f", v("y")), Substitution({"x": v("y"), "y": v("x")})
    )
    result = solve_matching(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.VARIABLE_ORBIT


def test_cycle_certificate():
    # The identity residual (x, y) steps to (s(x), s(y)) and decomposes back
    # to itself, so the state space is a proven cycle.
    problem = matching(
        app("f", v("x"), v("y")),
        app("f", v("w"), v("w")),
        Substitution({"x": app("s", v("x")), "y": app("s", v("y"))}),
    )
    result = solve_matching(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.CYCLE
    assert brute_force_check(problem, 32) is None


def test_matching_honest_unknown():
    # Sides grow at different speeds: no cycle, no certificate, no witness.
    problem = matching(
        app("g", v("x"), v("y")),
        app("g", v("w"), v("w")),
        Substitution({"x": app("s", app("s", v("x"))), "y": app("s", v("y"))}),
    )
    assert isinstance(solve_matching(problem), Unknown)
    assert isinstance(solve_matching(problem, SolverConfig(bound=128)), Unknown)
    assert brute_force_check(problem, 32) is None


def test_matching_size_guard_reports_its_limit():
    problem = matching(
        app("g", v("x"), v("y")),
        app("g", v("w"), v("w")),
        Substitution({"x": app("s", app("s", v("x"))), "y": app("s", v("y"))}),
    )
    result = solve_matching(problem, SolverConfig(bound=10_000, max_term_size=50))
    assert isinstance(result, Unknown)
    assert "limit" in result.note


# ---------------------------------------------------------------------------
# Identity constraints alone


def test_solve_identity_examples():
    assert solve_matching(
        identity(v("x"), v("y"), Substitution({"x": v("y")}))
    ).witness.n == 1

    diverging = identity(
        v("x"), v("y"), Substitution({"x": app("f", v("x")), "y": app("f", v("y"))})
    )
    assert isinstance(solve_matching(diverging), Unsolvable)
    assert brute_force_check(diverging, 32) is None

    assert solve_matching(
        identity(app("a"), app("a"), Substitution({"x": v("y")}))
    ).witness.n == 0


# ---------------------------------------------------------------------------
# Extended matching problems


def test_solve_extended_plug_once():
    problem = ExtendedMatchingProblem(
        d=Context.from_term(app("f", HOLE)),
        lhs=app("f", app("f", v("x"))),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    result = solve_extended(problem)
    assert isinstance(result, Solvable)
    assert (result.witness.m, result.witness.k) == (1, 0)
    assert result.witness.sigma == Substitution({"x": app("a")})


def test_solve_extended_root_clash():
    problem = ExtendedMatchingProblem(
        d=Context.from_term(app("g", HOLE)),
        lhs=app("f", v("x")),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    result = solve_extended(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.ROOT_CLASH


def test_solve_extended_times_never_reaches_inf(factorial, factorial_loop):
    d = Context.from_term(parse_term("times([],s(x))", factorial, allow_hole=True))
    problem = ExtendedMatchingProblem(
        d=d,
        lhs=app("inf", v("x")),
        c=factorial_loop.certificate.context,
        t=factorial_loop.terms[0],
        mu=factorial_loop.certificate.subst,
    )
    assert isinstance(solve_extended(problem), Unsolvable)
    assert brute_force_check(problem, 32) is None


def test_solve_extended_witness_reverifies():
    problem = ExtendedMatchingProblem(
        d=Context.from_term(app("f", HOLE)),
        lhs=app("f", app("f", v("x"))),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    w = solve_extended(problem).witness
    tower = apply_context_substitution(problem.t, problem.c, problem.mu, w.m)
    assert apply_substitution(problem.d.plug(tower), problem.mu, w.k) == (
        w.sigma.apply(problem.lhs)
    )


def test_solve_extended_scan_catches_rigid_clashes():
    # The rigid part of D never changes under mu, so a clash there settles
    # the problem without any enumeration.
    problem = ExtendedMatchingProblem(
        d=Context.from_term(app("f", HOLE, app("b"))),
        lhs=app("f", v("y"), app("c")),
        c=Context.from_term(app("f", HOLE, v("x"))),
        t=v("x"),
        mu=Substitution({"x": app("f", v("x"), v("x"))}),
    )
    result = solve_extended(problem)
    assert isinstance(result, Unsolvable)
    assert result.reason is UnsolvableReason.ROOT_CLASH


def test_solve_extended_size_guard_reports_its_limit():
    # Every root the scan can see is compatible, so enumeration runs; the
    # duplicating mu then blows the tower past the budget and the solver
    # must stop with an explicit limit note instead of grinding on.
    problem = ExtendedMatchingProblem(
        d=Context.from_term(app("f", HOLE, app("c"))),
        lhs=app("f", app("f", v("y"), app("c")), app("c")),
        c=Context.from_term(app("f", HOLE, v("x"))),
        t=v("x"),
        mu=Substitution({"x": app("f", v("x"), v("x"))}),
    )
    result = solve_extended(problem, SolverConfig(bound=64, max_term_size=500))
    assert isinstance(result, Unknown)
    assert "limit" in result.note
    assert brute_force_check(problem, 10) is None


# ---------------------------------------------------------------------------
# Dispatch and randomized agreement


def test_solve_problem_dispatch(swap_problem):
    assert solve_problem(swap_problem).witness.n == 2
    assert (
        solve_problem(
            identity(app("a"), app("a"), EMPTY_SUBSTITUTION)
        ).witness.n
        == 0
    )
    extended = ExtendedMatchingProblem(
        d=Context.from_term(app("g", HOLE)),
        lhs=app("f", v("x")),
        c=Context.from_term(app("f", HOLE)),
        t=app("a"),
        mu=EMPTY_SUBSTITUTION,
    )
    assert isinstance(solve_problem(extended), Unsolvable)


def test_solver_agrees_with_oracle_randomized():
    rng = random.Random(41)
    failures = []
    for _ in range(150):
        problem = genlib.random_problem(rng)
        failures.extend(genlib.solver_oracle_failures(problem))
    assert failures == []


def test_raising_bounds_never_flips_answers():
    rng = random.Random(43)
    failures = []
    for _ in range(80):
        problem = genlib.random_problem(rng)
        failures.extend(genlib.monotonicity_failures(problem))
    assert failures == []
