"""Rewrite steps, redex analysis, and the concrete per-term strategy checks.

strategy_allows is the trusted oracle for everything the deciders claim, so
this module pins its behavior on the worked examples and then checks the
forbidden-pattern encodings against the native checks on random instances.
"""

import itertools
import random
from collections import Counter

import pytest

import genlib
from loopcert import (
    HOLE,
    Application,
    ArityMismatch,
    ExtraRhsVariable,
    ForbiddenPattern,
    NotARedex,
    NotParallel,
    PatternKind,
    PositionOutOfTerm,
    Rule,
    RuleIndexOutOfRange,
    StrategySpec,
    Substitution,
    Trs,
    Variable,
    VariableLhs,
    apply_context_substitution,
    concrete_checks,
    context_sensitive_patterns,
    innermost_patterns,
    is_left_of,
    match_pattern,
    outermost_patterns,
    parallel_rewrite,
    parse_term,
    positions,
    redex_positions,
    rewrite_at,
    strategy_allows,
)


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


# ---------------------------------------------------------------------------
# Well-formedness


def test_rule_rejects_variable_lhs():
    with pytest.raises(VariableLhs):
        Rule(v("x"), v("x"))


def test_rule_rejects_extra_rhs_variables():
    with pytest.raises(ExtraRhsVariable):
        Rule(app("f", v("x")), v("y"))


def test_trs_rejects_arity_conflicts():
    with pytest.raises(ArityMismatch):
        Trs.from_rules(
            [Rule(app("f", v("x")), v("x")), Rule(app("f", v("x"), v("y")), v("x"))],
            ("x", "y"),
        )


def test_trs_rejects_the_hole_symbol():
    with pytest.raises(ArityMismatch):
        Trs.from_rules([Rule(app("f", HOLE), app("a"))], ())


def test_trs_rejects_variables_used_as_symbols():
    with pytest.raises(ArityMismatch):
        Trs.from_rules([Rule(app("f", app("x")), app("a"))], ("x",))


# ---------------------------------------------------------------------------
# Matching


def test_match_pattern_examples():
    assert match_pattern(app("g", v("x"), v("x")), app("g", v("z"), v("z"))) == (
        Substitution({"x": v("z")})
    )
    # Non-linear patterns need consistent bindings.
    assert match_pattern(app("g", v("x"), v("x")), app("g", app("a"), app("b"))) is None
    assert match_pattern(app("g", v("x"), v("x")), app("g", app("a"), app("a"))) == (
        Substitution({"x": app("a")})
    )
    # One binding shared across subterms: x under f and under g.
    pattern = app("h", app("f", v("x")), app("g", v("x")))
    shared = app("h", app("f", app("a")), app("g", app("a")))
    assert match_pattern(pattern, shared) == Substitution({"x": app("a")})
    split = app("h", app("f", app("a")), app("g", app("b")))
    assert match_pattern(pattern, split) is None


def test_match_pattern_stream_example(stream):
    pattern = parse_term("cons(x,cons(y,inf(z)))", stream)
    subject = parse_term("cons(x,cons(s(x),inf(s(s(x)))))", stream)
    sigma = match_pattern(pattern, subject)
    assert sigma == Substitution(
        {"y": app("s", v("x")), "z": app("s", app("s", v("x")))}
    )
    assert sigma.apply(pattern) == subject


def test_match_pattern_arity_safe():
    # A shorter argument list must not match a prefix of a longer one.
    assert match_pattern(app("f", v("x"), v("y")), app("f", app("a"))) is None
    assert match_pattern(app("f", v("x")), app("f", app("a"), app("b"))) is None


# ---------------------------------------------------------------------------
# Redexes and steps


def test_redex_positions_examples(factorial):
    t = parse_term("if(false,s(0),times(fact(s(x),y),s(x)))", factorial)
    found = set(redex_positions(t, factorial))
    assert ((), 3) in found
    assert ((3, 1), 1) in found
    assert redex_positions(v("x"), factorial) == ()
    assert redex_positions(parse_term("eq(x,y)", factorial), factorial) == (((), 8),)


def test_rewrite_at_examples(factorial, stream):
    assert rewrite_at(parse_term("fact(x,y)", factorial), (), factorial.rules[1]) == (
        parse_term("if(eq(x,y),s(0),times(fact(s(x),y),s(x)))", factorial)
    )
    assert rewrite_at(parse_term("inf(x)", stream), (), stream.rules[0]) == (
        parse_term("cons(x,inf(s(x)))", stream)
    )
    mini = Trs.from_rules([Rule(app("a"), app("b"))], ())
    assert rewrite_at(app("f", app("a")), (1,), mini.rules[0]) == app("f", app("b"))


def test_rewrite_at_errors(factorial):
    with pytest.raises(NotARedex):
        rewrite_at(parse_term("fact(x,y)", factorial), (), factorial.rules[0])
    with pytest.raises(PositionOutOfTerm):
        rewrite_at(parse_term("fact(x,y)", factorial), (3,), factorial.rules[1])


def test_parallel_rewrite_examples():
    mini = Trs.from_rules([Rule(app("a"), app("b"))], ())
    t = app("f", app("a"), app("a"))
    assert parallel_rewrite(t, [((1,), 0), ((2,), 0)], mini) == app(
        "f", app("b"), app("b")
    )
    assert parallel_rewrite(t, [((1,), 0)], mini) == rewrite_at(t, (1,), mini.rules[0])
    with pytest.raises(NotParallel):
        parallel_rewrite(t, [((), 0), ((1,), 0)], mini)
    with pytest.raises(NotParallel):
        parallel_rewrite(t, [], mini)
    with pytest.raises(RuleIndexOutOfRange):
        parallel_rewrite(t, [((1,), 99)], mini)


def test_parallel_rewrite_is_order_independent(factorial, factorial_par_inner_loop):
    loop = factorial_par_inner_loop
    t = loop.terms[0]
    step = list(loop.certificate.steps[0])
    expected = parallel_rewrite(t, step, factorial)
    for perm in itertools.permutations(step):
        assert parallel_rewrite(t, list(perm), factorial) == expected


# ---------------------------------------------------------------------------
# Concrete strategy checks


def test_strategy_allows_examples(factorial, stream, stream_patterns):
    t = parse_term("if(false,s(0),times(fact(s(x),y),s(x)))", factorial)
    # The root redex has the fact redex strictly below it.
    assert not strategy_allows(t, {()}, factorial, "innermost")
    # Full rewriting has no components: every step is allowed.
    assert concrete_checks(StrategySpec("full")) == ()

    s = parse_term("2nd(inf(0))", stream)
    assert strategy_allows(s, {(1,)}, stream, "forbidden", stream_patterns)
    # Leftmost and forbidden contract one redex per step, never two.
    u = parse_term("times(eq(x,y),eq(y,x))", factorial)
    assert not strategy_allows(u, {(1,), (2,)}, factorial, "leftmost")
    assert not strategy_allows(u, {(1,), (2,)}, factorial, "forbidden")


def test_strategy_allows_requires_redexes(factorial):
    t = parse_term("fact(x,y)", factorial)
    for check in ("leftmost", "innermost", "outermost", "max-parallel", "forbidden"):
        with pytest.raises(NotARedex):
            strategy_allows(t, {(1,)}, factorial, check)
    with pytest.raises(ValueError, match="unknown strategy component"):
        strategy_allows(t, {()}, factorial, "full")
    with pytest.raises(NotParallel, match="at least one position"):
        strategy_allows(t, set(), factorial, "leftmost")
    with pytest.raises(ValueError, match="unknown strategy 'full-ish'"):
        StrategySpec("full-ish")
    pattern = ForbiddenPattern(t, (), PatternKind.HERE)
    with pytest.raises(ValueError, match="only the forbidden strategy carries patterns"):
        StrategySpec("leftmost", (pattern,))


def test_leftmost_ignores_redexes_above(factorial):
    # Prefix-comparable redexes do not block each other; only a redex at a
    # properly diverging smaller branch does.
    t = parse_term("if(false,s(0),times(fact(s(x),y),s(x)))", factorial)
    assert strategy_allows(t, {()}, factorial, "leftmost")
    assert strategy_allows(t, {(3, 1)}, factorial, "leftmost")
    u = parse_term("times(eq(x,y),eq(y,x))", factorial)
    assert strategy_allows(u, {(1,)}, factorial, "leftmost")
    assert not strategy_allows(u, {(2,)}, factorial, "leftmost")


def test_leftmost_allowed_positions_form_a_prefix_chain():
    rng = random.Random(19)
    for _ in range(150):
        trs = genlib.random_looping_trs(rng)
        t, _ = genlib.random_redex_instance(rng, trs)
        allowed = [
            q
            for q in {q for q, _ in redex_positions(t, trs)}
            if strategy_allows(t, {q}, trs, "leftmost")
        ]
        assert allowed
        for a, b in itertools.combinations(sorted(allowed), 2):
            assert not is_left_of(a, b) and not is_left_of(b, a)


def test_max_parallel_requires_all_parallel_redexes(factorial):
    mini = Trs.from_rules([Rule(app("a"), app("b"))], ())
    t = app("f", app("a"), app("a"))
    assert strategy_allows(t, {(1,), (2,)}, mini, "max-parallel")
    assert not strategy_allows(t, {(1,)}, mini, "max-parallel")
    # Nested redexes are not parallel, so no step may contract both.
    u = parse_term("if(false,s(0),times(fact(s(x),y),s(x)))", factorial)
    assert not strategy_allows(u, {(), (3, 1)}, factorial, "max-parallel")


def test_outermost_rejects_redexes_above(factorial):
    t = parse_term("if(false,s(0),times(fact(s(x),y),s(x)))", factorial)
    assert strategy_allows(t, {()}, factorial, "outermost")
    assert not strategy_allows(t, {(3, 1)}, factorial, "outermost")


def _allows_or_error(allows, t, qs, trs, check, patterns=()):
    try:
        return allows(t, qs, trs, check, patterns)
    except NotARedex as e:
        return str(e)


def test_region_checks_agree_with_the_whole_term_reference():
    # Each component reads only its own region of the term; the reference
    # collects every redex first.  Non-redexes and positions off the term
    # must raise the same NotARedex.
    rng = random.Random(61)
    seen = Counter()
    for _ in range(200):
        trs = genlib.random_looping_trs(rng)
        t, _ = genlib.random_redex_instance(rng, trs)
        spots = {p + tail for p in positions(t) for tail in ((), (1,), (4,))}
        redexes = sorted({q for q, _ in redex_positions(t, trs)})
        steps = [{q} for q in sorted(spots)]
        steps += [set(rng.sample(redexes, 2)) for _ in range(3) if len(redexes) > 1]
        for qs in steps:
            for check in ("leftmost", "innermost", "outermost", "max-parallel"):
                want = _allows_or_error(genlib.reference_strategy_allows, t, qs, trs, check)
                assert _allows_or_error(strategy_allows, t, qs, trs, check) == want
                seen[check, want if isinstance(want, bool) else "error"] += 1
    assert min(seen.values()) >= 50 and len(seen) == 12, seen


# ---------------------------------------------------------------------------
# Forbidden-pattern encodings


def test_builtin_patterns_innermost(factorial):
    pats = innermost_patterns(factorial.lhss())
    assert len(pats) == 12
    assert set(pats) == {
        ForbiddenPattern(rule.lhs, (), PatternKind.ABOVE) for rule in factorial.rules
    }


def test_builtin_patterns_outermost(stream):
    pats = outermost_patterns(stream.lhss())
    assert set(pats) == {
        ForbiddenPattern(rule.lhs, (), PatternKind.BELOW) for rule in stream.rules
    }
    assert len(pats) == 2


def test_builtin_patterns_q_restricted(factorial):
    chk = factorial.rules[10]
    # Q-restricted rewriting is innermost with respect to Q's left-hand sides.
    pats = innermost_patterns((chk.lhs,))
    assert pats == (ForbiddenPattern(chk.lhs, (), PatternKind.ABOVE),)


def test_builtin_patterns_context_sensitive(stream):
    pats = context_sensitive_patterns({"cons": (1,)}, stream)
    lhs = app("cons", v("x1"), v("x2"))
    assert set(pats) == {
        ForbiddenPattern(lhs, (2,), PatternKind.HERE),
        ForbiddenPattern(lhs, (2,), PatternKind.BELOW),
    }


def test_builtin_patterns_context_sensitive_validation(stream):
    with pytest.raises(ArityMismatch):
        context_sensitive_patterns({"bogus": (1,)}, stream)
    with pytest.raises(ArityMismatch):
        context_sensitive_patterns({"cons": (3,)}, stream)


def test_encodings_agree_with_native_checks():
    # The forbidden-pattern forms of innermost and outermost must allow
    # exactly the same single steps as the native checks.
    rng = random.Random(5)
    checked = 0
    while checked < 1000:
        trs = genlib.random_looping_trs(rng)
        inner = innermost_patterns(trs.lhss())
        outer = outermost_patterns(trs.lhss())
        for _ in range(25):
            t, q = genlib.random_redex_instance(rng, trs)
            assert strategy_allows(t, {q}, trs, "innermost") == strategy_allows(
                t, {q}, trs, "forbidden", inner
            )
            assert strategy_allows(t, {q}, trs, "outermost") == strategy_allows(
                t, {q}, trs, "forbidden", outer
            )
            checked += 1


# ---------------------------------------------------------------------------
# Step transport into unrolled terms


def test_step_transport_into_wrapped_terms(factorial, factorial_loop):
    loop = factorial_loop
    c, mu = loop.certificate.context, loop.certificate.subst
    p = c.hole_pos
    t1, t2 = loop.terms[0], loop.terms[1]
    for n in range(4):
        wrapped = apply_context_substitution(t1, c, mu, n)
        stepped = rewrite_at(wrapped, p * n, factorial.rules[1])
        assert stepped == apply_context_substitution(t2, c, mu, n)
