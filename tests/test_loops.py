"""Loop certificates: validation by replay and unrolling to deeper levels."""

import dataclasses

import pytest

from loopcert import (
    ClosingMismatch,
    EMPTY_SUBSTITUTION,
    LoopCertificate,
    LoopcertError,
    NotARedex,
    NotParallel,
    Rule,
    Trs,
    apply_context_substitution,
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
    cert = dataclasses.replace(
        factorial_loop.certificate, subst=EMPTY_SUBSTITUTION
    )
    with pytest.raises(ClosingMismatch) as info:
        validate_loop(factorial, cert)
    assert info.value.expected != info.value.actual


def test_validate_reports_the_failing_step(factorial, factorial_loop):
    steps = list(factorial_loop.certificate.steps)
    steps[1] = (((1,), 3),)
    cert = dataclasses.replace(factorial_loop.certificate, steps=tuple(steps))
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
        memos: dict = {}
        for cert in certs:
            shared = validate_loop(trs, cert, memos.setdefault(cert.start, {}))
            assert shared == validate_loop(trs, cert), name


def test_shared_replay_still_checks_every_step_and_the_closing(factorial, factorial_loop):
    cert = factorial_loop.certificate
    replayed: dict = {}
    assert validate_loop(factorial, cert, replayed) == factorial_loop
    assert cert.steps[:-1] in replayed
    # The last step fires if(true,...) where if(false,...) stands.
    bad_step = dataclasses.replace(cert, steps=cert.steps[:-1] + ((((), 2),),))
    with pytest.raises(NotARedex) as fresh:
        validate_loop(factorial, bad_step)
    with pytest.raises(NotARedex) as shared:
        validate_loop(factorial, bad_step, replayed)
    assert str(shared.value) == str(fresh.value)
    assert str(shared.value).startswith(f"step {len(cert.steps)}: ")
    # Every step is in the map now; the closing pair is still checked.
    bad_closing = dataclasses.replace(cert, subst=EMPTY_SUBSTITUTION)
    with pytest.raises(ClosingMismatch):
        validate_loop(factorial, bad_closing, replayed)


def _context(trs, text):
    from loopcert import Context

    return Context.from_term(parse_term(text, trs, allow_hole=True))


def test_validate_empty_certificates_rejected(factorial, factorial_loop):
    with pytest.raises(LoopcertError):
        dataclasses.replace(factorial_loop.certificate, steps=())


# ---------------------------------------------------------------------------
# Unrolling


def test_unroll_level_zero_is_the_replay(factorial_loop):
    unrolled = unroll_loop(factorial_loop, 0)
    assert unrolled.terms == factorial_loop.terms
    assert unrolled.steps == factorial_loop.certificate.steps


def test_unroll_prefixes_positions(factorial_loop):
    unrolled = unroll_loop(factorial_loop, 2)
    prefix = factorial_loop.certificate.context.hole_pos * 2
    for level_step, base_step in zip(unrolled.steps, factorial_loop.certificate.steps):
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
            for j, step in enumerate(unrolled.steps):
                current = parallel_rewrite(current, step, trs)
                assert current == unrolled.terms[j + 1]
            assert current == apply_context_substitution(loop.terms[0], *cs, n + 1)
