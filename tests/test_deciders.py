"""Per-step problem construction and the loop verdicts built from it.

The worked systems pin exact problem sets, witnesses, and confirmation
levels; the randomized parts check the h-problem reduction against a direct
evaluation of its defining condition, and every verdict against concrete
replay of the unrolled derivations.
"""

import random
from collections import Counter

import pytest

import genlib
from loopcert import deciders
from loopcert.cli import resolve_strategy
from loopcert import (
    STRATEGIES,
    Application,
    ContextSubstitution,
    DeciderConfig,
    ForbiddenPattern,
    LoopcertError,
    PatternKind,
    ShapeMismatch,
    Solvable,
    SolverConfig,
    StrategySpec,
    Substitution,
    Unknown,
    Variable,
    VariableRedex,
    a_problems,
    apply_context_substitution,
    concrete_checks,
    decide_loop,
    h_problems,
    leftmost_problems,
    match_pattern,
    max_parallel_problems,
    parse_term,
    positions,
    solve_matching,
    solve_position_equation,
    step_problems,
    subterm_at,
    verdict_to_document,
)


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


def answers(trs, loop, *names, config=DeciderConfig()):
    return tuple(
        decide_loop(trs, loop, StrategySpec(name), config).answer for name in names
    )


# ---------------------------------------------------------------------------
# Position equations


def test_solve_position_equation_examples():
    assert solve_position_equation((2,), (), (2, 2)) == (2, ())
    assert solve_position_equation((), (1, 2), (2,)) == (0, (1,))
    assert solve_position_equation((1,), (), (2,)) is None


def test_solve_position_equation_yields_the_suffix_split():
    rng = random.Random(13)
    for _ in range(300):
        p = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        q = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        o = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        solved = solve_position_equation(p, q, o)
        if solved is None:
            continue
        n0, head = solved
        assert p * n0 + q == head + o
        # Larger exponents extend the head by copies of p.
        if p:
            assert p * (n0 + 2) + q == (p * 2 + head) + o


# ---------------------------------------------------------------------------
# Leftmost problem sets


def test_factorial_loop_has_no_leftmost_problems(factorial, factorial_loop):
    assert step_problems(factorial_loop, factorial, StrategySpec("leftmost")) == ()


def test_inner_loop_leftmost_problem_set(factorial, factorial_inner_loop):
    instances = step_problems(
        factorial_inner_loop, factorial, StrategySpec("leftmost")
    )
    # Five steps, each pairing the three subterms that could sit to the
    # left (false, s(0), 0) with all twelve left-hand sides.
    assert len(instances) == 180
    assert Counter(inst.step for inst in instances) == {
        1: 36, 2: 36, 3: 36, 4: 36, 5: 36
    }
    by_family = {
        family: {str(i.problem.pairs[0][0]) for i in instances if i.family == family}
        for family in {i.family for i in instances}
    }
    assert by_family == {
        "left-term": {"false"},
        "left-context": {"false", "s(0)", "0"},
    }
    subjects = Counter(str(inst.problem.pairs[0][0]) for inst in instances)
    assert subjects == {"false": 60, "s(0)": 60, "0": 60}


def test_inner_loop_step_four_also_sees_false_on_its_left(
    factorial, factorial_inner_loop
):
    loop = factorial_inner_loop
    t4 = loop.terms[3]
    (q4, _), = loop.certificate.steps[3]
    assert q4 == (1, 2)
    instances = leftmost_problems(
        t4, q4, loop.certificate.context, loop.certificate.subst, factorial
    )
    families = Counter(inst.family for inst in instances)
    assert families == {"left-term": 12, "left-context": 24}
    term_side = [i for i in instances if i.family == "left-term"]
    assert {str(i.problem.pairs[0][0]) for i in term_side} == {"false"}
    assert {i.position for i in term_side} == {(1, 1)}


def test_max_parallel_families_empty_for_a_root_redex(collapse, collapse_loop):
    loop = collapse_loop
    instances = max_parallel_problems(
        loop.terms[0],
        [()],
        loop.certificate.context,
        loop.certificate.subst,
        collapse,
    )
    assert instances
    assert {i.family for i in instances} <= {
        "parallel-context",
        "parallel-context-image",
    }


# ---------------------------------------------------------------------------
# Verdict tables for the worked loops


def test_factorial_loop_verdicts(factorial, factorial_loop):
    assert answers(
        factorial,
        factorial_loop,
        "leftmost",
        "outermost",
        "innermost",
        "leftmost-outermost",
        "leftmost-innermost",
    ) == ("yes", "yes", "no", "yes", "no")


def test_inner_loop_verdicts(factorial, factorial_inner_loop):
    assert answers(
        factorial,
        factorial_inner_loop,
        "leftmost",
        "innermost",
        "outermost",
        "leftmost-innermost",
        "leftmost-outermost",
    ) == ("yes", "yes", "no", "yes", "no")


def test_factorial_loop_innermost_evidence(factorial, factorial_loop):
    verdict = decide_loop(factorial, factorial_loop, StrategySpec("innermost"))
    assert verdict.answer == "no"
    ev = verdict.evidence
    assert ev.instance.step == 4
    assert ev.instance.family == "pattern-above-term"
    assert ev.instance.pattern.lhs == parse_term("chk(x)", factorial)
    assert isinstance(ev.result, Solvable)
    assert ev.result.witness.n == 0
    assert ev.result.witness.sigma == Substitution({"x": v("y")})
    assert (ev.level, ev.violation_step) == (0, 4)


def test_collapse_loop_leftmost_evidence(collapse, collapse_loop):
    verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
    assert verdict.answer == "no"
    ev = verdict.evidence
    assert ev.instance.family == "left-context"
    assert ev.instance.position == (1,)
    assert ev.instance.rule_index == 1
    assert ev.instance.problem.pairs[0][0] == parse_term("g(x,y)", collapse)
    assert ev.result.witness.n == 2
    assert ev.result.witness.sigma == Substitution({"x": v("z")})
    assert (ev.level, ev.violation_step) == (3, 1)


def test_shift_loop_needs_exponent_nine(shift, shift_loop):
    verdict = decide_loop(shift, shift_loop, StrategySpec("leftmost"))
    assert verdict.answer == "no"
    assert verdict.evidence.result.witness.n == 9

    low = decide_loop(
        shift, shift_loop, StrategySpec("leftmost"), DeciderConfig(bound=4)
    )
    assert low.answer == "unknown"
    assert len(low.open_problems) == 1


def test_parallel_loop_verdicts(
    factorial,
    factorial_loop,
    factorial_inner_loop,
    factorial_par_inner_loop,
    factorial_par_outer_loop,
):
    assert answers(
        factorial, factorial_par_outer_loop, "max-parallel-outermost"
    ) == ("yes",)
    assert answers(
        factorial, factorial_par_inner_loop, "max-parallel-innermost"
    ) == ("yes",)
    # The sequential loops leave redexes unfired, so max-parallel refutes
    # them immediately, at level zero in the second step.
    for loop in (factorial_loop, factorial_inner_loop):
        verdict = decide_loop(factorial, loop, StrategySpec("max-parallel"))
        assert verdict.answer == "no"
        assert (verdict.evidence.level, verdict.evidence.violation_step) == (0, 2)


def test_plain_parallel_accepts_everything(factorial, factorial_par_inner_loop):
    verdict = decide_loop(factorial, factorial_par_inner_loop, StrategySpec("parallel"))
    assert verdict.answer == "yes"
    assert verdict.total == 0


def test_per_position_parallel_verdicts(factorial, factorial_loop):
    # A sequential certificate is the singleton case of a parallel one.
    assert answers(
        factorial,
        factorial_loop,
        "parallel",
        "parallel-innermost",
        "parallel-outermost",
    ) == ("yes", "no", "yes")


def test_sequential_strategies_reject_parallel_certificates(
    factorial, factorial_par_inner_loop
):
    with pytest.raises(ShapeMismatch):
        decide_loop(factorial, factorial_par_inner_loop, StrategySpec("leftmost"))


def test_a_problems_reject_variable_redexes(collapse, collapse_loop):
    pattern = ForbiddenPattern(parse_term("g(x,x)", collapse), (), PatternKind.ABOVE)
    with pytest.raises(VariableRedex):
        a_problems(
            app("g", v("x"), v("y")),
            (1,),
            collapse_loop.certificate.context,
            collapse_loop.certificate.subst,
            pattern,
        )


# ---------------------------------------------------------------------------
# Forbidden-pattern strategies


def test_stream_loop_violates_its_pattern(stream, stream_loop, stream_patterns):
    verdict = decide_loop(
        stream, stream_loop, StrategySpec("forbidden", stream_patterns)
    )
    assert verdict.answer == "no"
    ev = verdict.evidence
    assert ev.instance.family == "pattern-here"
    assert ev.instance.n0 == 2
    assert ev.instance.o0prime == ()
    assert ev.result.witness.n == 0
    assert ev.result.witness.sigma == Substitution(
        {"y": app("s", v("x")), "z": app("s", app("s", v("x")))}
    )
    assert (ev.level, ev.violation_step) == (2, 1)


def test_growing_loop_stays_unknown(growing, growing_loop):
    verdict = decide_loop(growing, growing_loop, StrategySpec("leftmost"))
    assert verdict.answer == "unknown"
    assert len(verdict.open_problems) == 1
    open_problem = verdict.open_problems[0].problem
    assert open_problem.pairs[0][0] == parse_term("g(x,y)", growing)
    assert verdict.evidence is None


# ---------------------------------------------------------------------------
# The h-problem reduction against its defining condition


def condition_one_hits(t, q, c, mu, pattern, levels):
    """Levels n <= levels at which some instance of the pattern forbids
    rewriting the wrapped term at p^n q."""
    cs = ContextSubstitution(c, mu)
    p = c.hole_pos
    hits = []
    for n in range(levels + 1):
        tn = apply_context_substitution(t, cs, n)
        target = p * n + q
        for spot in positions(tn):
            if spot + pattern.pos != target:
                continue
            if match_pattern(pattern.lhs, subterm_at(tn, spot)) is not None:
                hits.append(n)
                break
    return hits


def test_h_problems_match_direct_evaluation():
    rng = random.Random(29)
    config = SolverConfig(bound=24)
    compared = 0
    while compared < 200:
        t = genlib.random_term(rng, depth=2)
        q = rng.choice(tuple(positions(t)))
        c = genlib.random_context(rng)
        mu = genlib.random_substitution(rng, wild=0.0)
        lhs = genlib.random_pattern(rng)
        o = rng.choice(tuple(positions(lhs)))
        pattern = ForbiddenPattern(lhs, o, PatternKind.HERE)

        instances = h_problems(t, q, c, mu, pattern)
        results = [solve_matching(inst.problem, config) for inst in instances]
        if any(isinstance(r, Unknown) for r in results):
            continue
        compared += 1

        hits = condition_one_hits(t, q, c, mu, pattern, 4)
        solvable = [
            (inst, r) for inst, r in zip(instances, results) if isinstance(r, Solvable)
        ]
        if not solvable:
            assert hits == []
            continue
        if hits:
            assert solvable
        inst, result = solvable[0]
        level = inst.n0 + result.witness.n
        if level <= 6:
            assert level in condition_one_hits(t, q, c, mu, pattern, level)


# ---------------------------------------------------------------------------
# Verdicts against concrete replay, on the file corpus


def test_corpus_verdicts_cohere_with_replay(corpus):
    for trs, loop in corpus:
        if loop.certificate.is_sequential():
            names = genlib.SEQUENTIAL_COHERENCE
        else:
            names = genlib.PARALLEL_COHERENCE
        assert genlib.coherence_failures(trs, loop, names) == []


# Problem families each strategy component may emit, by family-name prefix.
COMPONENT_FAMILIES = {
    "leftmost": "left-",
    "max-parallel": "parallel-",
    "innermost": "pattern-",
    "outermost": "pattern-",
    "forbidden": "pattern-",
}


def test_strategy_table_drives_generation_replay_and_resolution(
    factorial, factorial_inner_loop, factorial_par_inner_loop
):
    for name, (sequential, components) in STRATEGIES.items():
        loop = factorial_inner_loop if sequential else factorial_par_inner_loop
        spec = StrategySpec(name)
        prefixes = tuple(COMPONENT_FAMILIES[c] for c in components)
        families = {inst.family for inst in step_problems(loop, factorial, spec)}
        assert all(f.startswith(prefixes) for f in families), (name, families)
        assert concrete_checks(spec, factorial) == components
        if name == "forbidden":
            # Bare "forbidden" has no patterns; the CLI wants forbidden:<file>.
            with pytest.raises(LoopcertError, match="unknown strategy 'forbidden'"):
                resolve_strategy(name, factorial)
        else:
            assert resolve_strategy(name, factorial) == spec


def test_decider_is_deterministic(factorial, factorial_inner_loop):
    first = decide_loop(factorial, factorial_inner_loop, StrategySpec("outermost"))
    second = decide_loop(factorial, factorial_inner_loop, StrategySpec("outermost"))
    assert verdict_to_document(first) == verdict_to_document(second)


def test_each_distinct_problem_is_solved_once_per_decision(
    monkeypatch, factorial, factorial_loop
):
    spec = StrategySpec("max-parallel")
    instances = step_problems(factorial_loop, factorial, spec)
    distinct = {inst.problem for inst in instances}
    assert len(distinct) < len(instances)  # steps repeat problems here

    solved = []
    solve = deciders.solve_problem

    def counting(problem, config):
        solved.append(problem)
        return solve(problem, config)

    monkeypatch.setattr(deciders, "solve_problem", counting)
    verdict = decide_loop(factorial, factorial_loop, spec)
    assert len(solved) == len(distinct) and set(solved) == distinct
    assert verdict.total == len(instances)
    assert verdict.unsolvable + verdict.solvable + verdict.unknown == len(instances)
