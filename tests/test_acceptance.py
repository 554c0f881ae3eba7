"""End-to-end acceptance checks.

Each test is one acceptance criterion: the worked verdict tables and their
exact witnesses, the randomized identity/solver/decider harnesses at their
required sample sizes, and the finder-to-checker pipeline.  Run with -v to
get one pass/fail line per criterion.
"""

import json
import random
import time
from collections import Counter

import genlib
from loopcert import (
    DeciderConfig,
    StrategySpec,
    Substitution,
    Variable,
    decide_loop,
    find_loops,
    parse_term,
    step_problems,
    validate_loop,
)
from loopcert.cli import main


def verdicts(trs, loop, *names):
    return {
        name: decide_loop(trs, loop, StrategySpec(name)).answer for name in names
    }


def test_c01_outermost_loop_that_is_not_innermost(factorial, factorial_loop):
    started = time.perf_counter()
    table = verdicts(
        factorial,
        factorial_loop,
        "leftmost",
        "outermost",
        "innermost",
        "leftmost-outermost",
        "leftmost-innermost",
    )
    elapsed = time.perf_counter() - started
    assert table == {
        "leftmost": "yes",
        "outermost": "yes",
        "innermost": "no",
        "leftmost-outermost": "yes",
        "leftmost-innermost": "no",
    }
    assert elapsed < 1.0


def test_c02_innermost_loop_with_its_problem_families(
    factorial, factorial_inner_loop
):
    started = time.perf_counter()
    table = verdicts(
        factorial,
        factorial_inner_loop,
        "leftmost",
        "innermost",
        "outermost",
        "leftmost-innermost",
        "leftmost-outermost",
    )
    instances = step_problems(
        factorial_inner_loop, factorial, StrategySpec("leftmost")
    )
    elapsed = time.perf_counter() - started
    assert table == {
        "leftmost": "yes",
        "innermost": "yes",
        "outermost": "no",
        "leftmost-innermost": "yes",
        "leftmost-outermost": "no",
    }
    # The leftmost check constructs exactly the expected problems: the one
    # subterm to the left inside the rewritten term (false), and the three
    # subterms to the left of the hole in the closing context.
    by_family = {
        family: {str(i.problem.pairs[0][0]) for i in instances if i.family == family}
        for family in {i.family for i in instances}
    }
    assert by_family == {
        "left-term": {"false"},
        "left-context": {"false", "s(0)", "0"},
    }
    assert elapsed < 1.0


def test_c03_collapsing_blocker_at_exponent_two(collapse, collapse_loop):
    verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
    assert verdict.answer == "no"
    assert verdict.evidence.result.witness.n == 2
    assert verdict.evidence.result.witness.sigma == Substitution(
        {"x": Variable("z")}
    )
    assert verdict.evidence.instance.problem.pairs[0] == (
        parse_term("g(x,y)", collapse),
        parse_term("g(x,x)", collapse),
    )


def test_c04_shifted_blocker_at_exponent_nine(shift, shift_loop):
    verdict = decide_loop(shift, shift_loop, StrategySpec("leftmost"))
    assert verdict.answer == "no"
    assert verdict.evidence.result.witness.n == 9
    # The witness sits past the default small bounds, so a shallow solver
    # must answer unknown rather than miss it.
    shallow = decide_loop(
        shift, shift_loop, StrategySpec("leftmost"), DeciderConfig(bound=4)
    )
    assert shallow.answer == "unknown"


def test_c05_parallel_certificates(
    factorial,
    factorial_loop,
    factorial_inner_loop,
    factorial_par_inner_loop,
    factorial_par_outer_loop,
):
    outer = decide_loop(
        factorial, factorial_par_outer_loop, StrategySpec("max-parallel-outermost")
    )
    inner = decide_loop(
        factorial, factorial_par_inner_loop, StrategySpec("max-parallel-innermost")
    )
    assert (outer.answer, inner.answer) == ("yes", "yes")
    assert len(factorial_par_outer_loop.certificate.steps) == 2
    assert len(factorial_par_inner_loop.certificate.steps) == 1
    # Both sequential loops leave parallel redexes unfired and fail the
    # max-parallel check concretely at level 0 in their second step.
    for loop in (factorial_loop, factorial_inner_loop):
        verdict = decide_loop(factorial, loop, StrategySpec("max-parallel"))
        assert verdict.answer == "no"
        assert (verdict.evidence.level, verdict.evidence.violation_step) == (0, 2)


def test_c06_forbidden_pattern_stops_the_stream_loop(
    stream, stream_loop, stream_patterns
):
    verdict = decide_loop(
        stream, stream_loop, StrategySpec("forbidden", stream_patterns)
    )
    assert verdict.answer == "no"
    ev = verdict.evidence
    assert ev.instance.n0 == 2
    assert ev.instance.o0prime == ()
    assert ev.result.witness.n == 0
    assert ev.result.witness.sigma == Substitution(
        {"y": parse_term("s(x)", stream), "z": parse_term("s(s(x))", stream)}
    )


def test_c07_wrap_identities_hold_on_random_instances():
    checked, failures = genlib.wrap_identity_failures(random.Random(7), 40)
    assert checked >= 1000
    assert failures == []


def test_c08_solver_agrees_with_brute_force():
    rng = random.Random(11)
    kinds = Counter()
    failures = []
    for _ in range(500):
        problem = genlib.random_problem(rng)
        # Identity constraints alone are a matching problem with no pairs.
        kind = type(problem).__name__
        if kind == "MatchingProblem" and not problem.pairs:
            kind = "identity"
        kinds[kind] += 1
        failures.extend(genlib.solver_oracle_failures(problem, bound=32))
    assert failures == []
    assert set(kinds) == {"MatchingProblem", "identity", "ExtendedMatchingProblem"}


def test_c09_decider_verdicts_cohere_with_concrete_replay(corpus):
    failures = []
    for trs, loop in corpus:
        if loop.certificate.is_sequential():
            names = genlib.SEQUENTIAL_COHERENCE
        else:
            names = genlib.PARALLEL_COHERENCE
        failures.extend(genlib.coherence_failures(trs, loop, names))
    random_corpus = genlib.coherence_corpus(random.Random(23), 100)
    assert len(random_corpus) >= 100
    for trs, loop in random_corpus:
        failures.extend(
            genlib.coherence_failures(trs, loop, genlib.SEQUENTIAL_COHERENCE)
        )
    assert failures == []


def test_c10_finder_output_feeds_the_checker(factorial, capsys, tmp_path, data_dir):
    loops = find_loops(
        factorial, depth=6, start=parse_term("fact(x,y)", factorial)
    )
    target_context = parse_term("times([],s(x))", factorial, allow_hole=True)
    target_subst = Substitution({"x": parse_term("s(x)", factorial)})

    def renamed(term, mapping):
        if isinstance(term, Variable):
            return Variable(mapping.get(term.name, term.name))
        return type(term)(term.symbol, tuple(renamed(a, mapping) for a in term.args))

    def matches_up_to_renaming(cert):
        names = sorted(
            {v.name for v in genlib._leaves(cert.context.body) if isinstance(v, Variable)}
            | set(cert.subst.domain())
        )
        targets = sorted(
            {v.name for v in genlib._leaves(target_context) if isinstance(v, Variable)}
            | set(target_subst.domain())
        )
        if len(names) != len(targets):
            return False
        mapping = dict(zip(names, targets))
        return renamed(cert.context.body, mapping) == target_context and Substitution(
            {mapping[x]: renamed(u, mapping) for x, u in cert.subst.items()}
        ) == target_subst

    matching = [c for c in loops if matches_up_to_renaming(c)]
    assert matching
    validate_loop(factorial, matching[0])

    cert_file = tmp_path / "found.json"
    cert_file.write_text(genlib.render_loop_certificate(matching[0]))
    code = main([
        "check",
        "--trs", str(data_dir / "factorial.trs"),
        "--loop", str(cert_file),
        "--strategy", "leftmost-outermost",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("YES")
