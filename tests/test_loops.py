"""Loop certificates: validation by replay and unrolling to deeper levels."""

import random

import pytest

import genlib
import loopcert.cli
from loopcert import (
    ClosingMismatch,
    EMPTY_SUBSTITUTION,
    LoopCertificate,
    LoopcertError,
    NotARedex,
    NotParallel,
    PositionOutOfTerm,
    Rule,
    RuleIndexOutOfRange,
    Substitution,
    Trs,
    apply_context_substitution,
    find_loops,
    parallel_rewrite,
    parse_term,
    unroll_loop,
    validate_loop,
)
from loopcert import Application, Variable


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


def closing(loop):
    """The closing pair (C, mu) of a validated loop."""
    return loop.certificate.context, loop.certificate.subst


# ---------------------------------------------------------------------------
# Validation


def test_validate_factorial_loop(factorial, factorial_loop):
    loop = factorial_loop
    assert loop.certificate.context.hole_pos == (1,)
    assert len(loop.terms) == 6
    assert loop.terms[0] == parse_term("fact(x,y)", factorial)
    assert loop.terms[-1] == apply_context_substitution(
        loop.terms[0], *closing(loop), 1
    )


def test_validate_parallel_loop(factorial_par_inner_loop):
    loop = factorial_par_inner_loop
    assert loop.certificate.context.hole_pos == (3, 1)
    assert len(loop.certificate.steps) == 1
    assert len(loop.certificate.steps[0]) == 5


def test_validate_rejects_missing_subst(factorial, factorial_loop):
    c = factorial_loop.certificate
    cert = LoopCertificate(c.start, c.steps, c.context, EMPTY_SUBSTITUTION)
    with pytest.raises(ClosingMismatch) as info:
        validate_loop(factorial, cert)
    assert info.value.expected != info.value.actual


def test_validate_reports_the_failing_step(factorial, factorial_loop):
    steps = list(factorial_loop.certificate.steps)
    steps[1] = (((1,), 3),)
    c = factorial_loop.certificate
    cert = LoopCertificate(c.start, tuple(steps), c.context, c.subst)
    with pytest.raises(NotARedex, match="step 2"):
        validate_loop(factorial, cert)


def test_validate_rejects_overlapping_parallel_positions():
    trs = Trs.from_rules([Rule(app("f", v("x")), app("f", app("f", v("x"))))], ("x",))
    cert = LoopCertificate(
        start=app("f", v("x")),
        steps=((((), 0), ((1,), 0)),),
        context=_context(trs, "f([])"),
        subst=EMPTY_SUBSTITUTION,
    )
    with pytest.raises(NotParallel, match="step 1"):
        validate_loop(trs, cert)


def test_shared_replay_matches_a_fresh_one(find_outputs):
    for name, trs, certs in find_outputs:
        replayed: dict = {}  # one map for every start, as find_loops uses it
        for cert in certs:
            shared = validate_loop(trs, cert, replayed)
            assert shared == validate_loop(trs, cert), name


def test_find_loops_matches_the_reference_finder(corpus):
    # Small max_size values cut the search, so rewrites are dropped by the
    # size check that runs before the rewritten term is built.  Systems that
    # copy arguments reach terms with many parallel redexes, where the sleep
    # sets skip the most.
    corpus_systems = dict.fromkeys(trs for trs, _ in corpus)
    sizes = (6, 9, 14, 25, 80)
    systems = [(f"corpus {k}", trs, 8, sizes) for k, trs in enumerate(corpus_systems)]
    systems += [
        (f"golden {seed}", trs, depth, sizes)
        for seed, trs, depth in genlib.golden_find_systems()
    ]
    rng = random.Random(23)
    systems += [(f"looping {k}", genlib.random_looping_trs(rng), 4, sizes) for k in range(40)]
    # Copying systems stop at 25: at 80 one of them reaches 48,581
    # certificates, which would double the time of this test.
    systems += [
        (f"copying {k}", genlib.random_copying_trs(rng), 5, sizes[:-1]) for k in range(30)
    ]
    cut = 0
    for name, trs, depth, max_sizes in systems:
        counts = []
        for max_size in max_sizes:
            got = find_loops(trs, depth, max_size)
            assert got == genlib.reference_find_loops(trs, depth, max_size), (name, max_size)
            counts.append(len(got))
        cut += counts[0] < counts[-1]
    assert cut > len(systems) // 2


def test_find_loops_wakes_a_step_whose_result_was_too_large(factorial):
    # A step left asleep after its result from the parent exceeded max_size
    # would lose the terms it reaches after a shrinking step: at these
    # depths, 30 and 54 certificates in all.
    for depth, count in ((6, 30), (8, 54)):
        got = find_loops(factorial, depth, 27)
        assert got == genlib.reference_find_loops(factorial, depth, 27)
        assert len(got) == count


def test_find_loops_from_a_given_start_matches_the_reference_finder(corpus):
    # Starts that lhs roots cannot produce, variable starts and random
    # starts exercise the pruning of terms that hold no symbol able to
    # produce the start's root.
    factorial = corpus[0][0]
    starts = [
        (f"corpus {k} lhs {i}", trs, 8, 80, lhs)
        for k, trs in enumerate(dict.fromkeys(trs for trs, _ in corpus))
        for i, lhs in enumerate(trs.lhss())
    ]
    starts += [
        ("factorial(s(x))", factorial, 8, 80, parse_term("factorial(s(x))", factorial)),
        ("variable", factorial, 3, 30, v("x")),
    ]
    rng = random.Random(27)
    for k in range(20):
        trs = genlib.random_looping_trs(rng)
        start, _ = genlib.random_redex_instance(rng, trs)
        starts.append((f"looping {k}", trs, 4, 25, start))
    for k in range(20):
        trs = genlib.random_copying_trs(rng)
        start, _ = genlib.random_redex_instance(rng, trs)
        starts.append((f"copying {k}", trs, 4, 14, start))
    for name, trs, depth, max_size, start in starts:
        got = find_loops(trs, depth, max_size, start)
        assert got == genlib.reference_find_loops(trs, depth, max_size, start), name


def test_find_loops_skips_exactly_the_variant_starts():
    # f(y,x) is a variant of f(x,y); f(x,x) and f(v0,x), with the constant
    # v0 where a renamed variable might be numbered 0, are not.
    x, y = v("x"), v("y")
    lhss = (app("f", x, y), app("f", y, x), app("f", x, x), app("f", app("v0"), x))
    rules = [Rule(lhss[0], app("g", app("f", y, x)))]
    rules += [Rule(lhs, app("f", app("g", x), x)) for lhs in lhss[1:]]
    trs = Trs.from_rules(rules, ("x", "y"))
    got = find_loops(trs, 3)
    assert got == genlib.reference_find_loops(trs, 3, 80)
    assert {cert.start for cert in got} == {lhss[0], lhss[2], lhss[3]}


def test_find_loops_keeps_a_start_whose_root_nothing_produces():
    # No rule produces g, but g is never rewritten either, so every term
    # reached from g(f(x)) still holds it.
    trs = Trs.from_rules([Rule(app("f", v("x")), app("f", app("s", v("x"))))], ("x",))
    got = find_loops(trs, 3, start=app("g", app("f", v("x"))))
    assert got == genlib.reference_find_loops(trs, 3, 80, app("g", app("f", v("x"))))
    assert len(got) == 3
    assert all(cert.context.hole_pos == () for cert in got)


def test_find_loops_builds_no_term_that_cannot_reach_its_start(factorial, monkeypatch):
    built = []

    def replace_at(*args):
        built.append(args)
        return original(*args)

    original = loopcert.cli.replace_at
    monkeypatch.setattr(loopcert.cli, "replace_at", replace_at)
    # fact(0,y) holds no symbol that produces factorial.
    assert find_loops(factorial, 10, start=parse_term("factorial(y)", factorial)) == ()
    assert built == []
    certs = find_loops(factorial, 10)
    assert (len(built), len(certs)) == (1632, 1472)


def test_find_loops_rejects_a_certificate_whose_closing_fails(factorial, monkeypatch):
    # Each certificate find emits closes at its own last term, where plugs_to
    # only compares one subterm; a start match with one image changed must
    # still fail the closing check.
    start = parse_term("fact(x,y)", factorial)
    real = loopcert.cli.match_pattern

    def match_pattern(pattern, subject):
        mu = real(pattern, subject)
        if pattern is not start or mu is None:
            return mu
        return Substitution({**dict(mu.items()), "x": app("s", mu.apply(v("x")))})

    assert find_loops(factorial, 6, start=start)
    monkeypatch.setattr(loopcert.cli, "match_pattern", match_pattern)
    with pytest.raises(ClosingMismatch):
        find_loops(factorial, 6, start=start)


def test_find_loops_stops_at_an_empty_frontier(factorial):
    # At max_size 20 every start's frontier empties within 30 levels.
    certs = find_loops(factorial, 30, 20)
    assert len(certs) == 9
    assert find_loops(factorial, 10**12, 20) == certs


def test_shared_replay_keeps_starts_apart():
    # Equal steps from different starts replay to different terms.
    trs = Trs.from_rules([Rule(app("f", v("x")), app("c", app("f", v("x"))))], ("x",))
    replayed: dict = {}
    starts = (app("f", app("a")), app("f", app("b")))
    for start in starts:
        cert = LoopCertificate(
            start=start,
            steps=((((), 0),),),
            context=_context(trs, "c([])"),
            subst=EMPTY_SUBSTITUTION,
        )
        assert validate_loop(trs, cert, replayed) == validate_loop(trs, cert)
    step = cert.steps[0]
    assert replayed[starts[0], step] is not replayed[starts[1], step]


def test_shared_replay_still_checks_every_step_and_the_closing(factorial, factorial_loop):
    cert = factorial_loop.certificate
    terms = factorial_loop.terms
    replayed: dict = {}
    assert validate_loop(factorial, cert, replayed) == factorial_loop
    # The map holds each step of the replay under the term it applies to.
    for i, step in enumerate(cert.steps):
        assert replayed[terms[i], step] is terms[i + 1]
    # The last step fires if(true,...) where if(false,...) stands; that
    # (term, step) pair is missing from the map, so it is replayed and checked.
    bad_step = LoopCertificate(
        cert.start, cert.steps[:-1] + ((((), 2),),), cert.context, cert.subst
    )
    assert (terms[-2], bad_step.steps[-1]) not in replayed
    with pytest.raises(NotARedex) as fresh:
        validate_loop(factorial, bad_step)
    with pytest.raises(NotARedex) as shared:
        validate_loop(factorial, bad_step, replayed)
    assert str(shared.value) == str(fresh.value)
    assert str(shared.value).startswith(f"step {len(cert.steps)}: ")
    # The map keeps contracta too; a step's position and rule index are
    # still checked against the term it applies to.
    assert any(isinstance(key[1], int) for key in replayed)
    for last, error in (((((), 99),), RuleIndexOutOfRange), ((((9, 9), 0),), PositionOutOfTerm)):
        bad = LoopCertificate(cert.start, cert.steps[:-1] + (last,), cert.context, cert.subst)
        with pytest.raises(error) as fresh:
            validate_loop(factorial, bad)
        with pytest.raises(error) as shared:
            validate_loop(factorial, bad, replayed)
        assert str(shared.value) == str(fresh.value)
    # Every step is found in the map; the closing pair is still checked.
    bad_closing = LoopCertificate(cert.start, cert.steps, cert.context, EMPTY_SUBSTITUTION)
    with pytest.raises(ClosingMismatch):
        validate_loop(factorial, bad_closing, replayed)


def _context(trs, text):
    from loopcert import Context

    return Context.from_term(parse_term(text, trs, allow_hole=True))


def test_validate_empty_certificates_rejected(factorial, factorial_loop):
    cert = factorial_loop.certificate
    with pytest.raises(LoopcertError):
        LoopCertificate(cert.start, (), cert.context, cert.subst)


# ---------------------------------------------------------------------------
# Unrolling


def test_unroll_level_zero_is_the_replay(factorial_loop):
    unrolled = unroll_loop(factorial_loop, 0)
    assert unrolled.terms == factorial_loop.terms
    assert unrolled.certificate == factorial_loop.certificate


def test_unroll_prefixes_positions(factorial_loop):
    unrolled = unroll_loop(factorial_loop, 2)
    prefix = factorial_loop.certificate.context.hole_pos * 2
    for level_step, base_step in zip(
        unrolled.certificate.steps, factorial_loop.certificate.steps
    ):
        assert level_step == tuple((prefix + q, i) for q, i in base_step)


def test_unroll_first_term_matches_direct_wrapping(factorial_loop):
    unrolled = unroll_loop(factorial_loop, 1)
    assert unrolled.terms[0] == apply_context_substitution(
        factorial_loop.terms[0], *closing(factorial_loop), 1
    )


def test_unroll_replays_and_closes_at_every_level(corpus):
    # Each unrolled step must be a real rewrite, and the level-n derivation
    # must end exactly one wrap above where it started.
    for trs, loop in corpus:
        cs = closing(loop)
        for n in range(4):
            unrolled = unroll_loop(loop, n)
            assert unrolled.terms[0] == apply_context_substitution(
                loop.terms[0], *cs, n
            )
            current = unrolled.terms[0]
            for j, step in enumerate(unrolled.certificate.steps):
                current = parallel_rewrite(current, step, trs)
                assert current == unrolled.terms[j + 1]
            assert current == apply_context_substitution(loop.terms[0], *cs, n + 1)
            # So level n is a loop of its own, closed by the same (C, mu).
            assert validate_loop(trs, unrolled.certificate) == unrolled


def test_unroll_from_the_level_below_equals_unrolling_from_scratch(corpus):
    for _, loop in corpus:
        below = unroll_loop(loop, 0)
        for n in range(1, 7):
            below = unroll_loop(loop, n, below)
            assert below == unroll_loop(loop, n)
