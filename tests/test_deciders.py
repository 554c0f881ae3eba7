"""Per-step problem construction and the loop verdicts built from it.

The worked systems pin exact problem sets, witnesses, and confirmation
levels; the randomized parts check the h-problem reduction against a direct
evaluation of its defining condition, and every verdict against concrete
replay of the unrolled derivations.
"""

import hashlib
import json
import random
import time
from collections import Counter

import pytest

import genlib
from loopcert import deciders, problems
from loopcert.cli import resolve_strategy
from loopcert import (
    STRATEGIES,
    Application,
    Context,
    EMPTY_SUBSTITUTION,
    ForbiddenPattern,
    HOLE,
    LoopCertificate,
    LoopcertError,
    PatternKind,
    Rule,
    ShapeMismatch,
    Solvable,
    StrategySpec,
    Substitution,
    Trs,
    Unknown,
    Unsolvable,
    UnsolvableReason,
    ValidatedLoop,
    Variable,
    VariableRedex,
    apply_context_substitution,
    certificates_to_json,
    concrete_checks,
    decide_loop,
    exponent_bound,
    find_loops,
    is_strict_prefix,
    match_pattern,
    parse_loop_certificate,
    parse_patterns,
    parse_term,
    parse_trs,
    positions,
    render_verdict,
    solve_position_equation,
    solve_problem,
    step_problems,
    subterm_at,
    subterms,
    term_size,
    unroll_loop,
    validate_loop,
    variable_closure,
    verdict_to_document,
)


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


def answers(trs, loop, *names):
    return tuple(decide_loop(trs, loop, StrategySpec(name)).answer for name in names)


def one_step_loop(t, q, c, mu):
    """A one-step loop built by hand: t contracted at q, closed by (C, mu).

    Nothing is replayed, so the step need not be a redex of any system;
    pattern components read only t, q, C and mu.
    """
    return ValidatedLoop(LoopCertificate(t, (((q, 0),),), c, mu), (t,))


# A forbidden component reads no rules, so any fixed system serves it.
NO_RULES = Trs.from_rules((), ())


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
# Pattern frames against enumerations of their definitions


def reference_here(c, mu, t, anchor, o, family, q):
    # The least n0 with p^n0 anchor = o0' o for some o0', by trying each n0;
    # the row names the step position q it was posed for.
    p = c.hole_pos
    for n0 in range(len(o) + 1):
        full = p * n0 + anchor
        if len(full) >= len(o) and full[len(full) - len(o):] == o:
            o0prime = full[: len(full) - len(o)]
            base = apply_context_substitution(t, c, mu, n0)
            return [(family, q, n0, o0prime, subterm_at(base, o0prime), None)]
    return []


def reference_above(c, mu, t, q, o):
    # Every prefix o2 of every position of the redex with the redex
    # position strictly below o2 o, at the least n0 with |p^n0 q| >= |o|.
    redex = subterm_at(t, q)
    p = c.hole_pos
    n0 = 0
    while p and len(p) * n0 + len(q) < len(o):
        n0 += 1
    base = apply_context_substitution(t, c, mu, n0)
    redex_pos = p * n0 + q
    anchors = set()
    for q2 in positions(redex):
        tip = redex_pos + q2
        for cut in range(len(tip) + 1):
            if is_strict_prefix(redex_pos, tip[:cut] + o):
                anchors.add(tip[:cut])
    frame = [
        ("pattern-above-term", q, n0, o2, subterm_at(base, o2), None)
        for o2 in sorted(anchors)
    ]
    closure = sorted(variable_closure(redex, mu))
    images = [s for x in closure for _, s in subterms(mu.apply(Variable(x)))]
    return frame + [("pattern-above-image", q, n0, None, u, None) for u in images]


def reference_below(c, mu, t, q, o):
    # Here-frames at the strict prefixes of q, then one extended problem per
    # strict prefix of p at the least n0 with |p2| + n0 |p| > |o|.
    p = c.hole_pos
    frame = []
    for cut in range(len(q)):
        frame += reference_here(c, mu, t, q[:cut], o, "pattern-below-prefix", q)
    for cut in range(len(p)):
        d = c.subcontext(p[:cut])
        p2 = d.hole_pos
        n0 = 0
        while len(p2) + n0 * len(p) <= len(o):
            n0 += 1
        if is_strict_prefix(o, p2 + p * n0):
            subject = mu.apply(apply_context_substitution(t, c, mu, n0))
            frame.append(("pattern-below-context", q, n0, None, subject, d))
    return frame


def test_above_and_below_frames_match_their_definitions():
    rng = random.Random(41)
    seen = Counter()
    for _ in range(600):
        c = genlib.random_context(rng, genlib.VARS, rng.randint(1, 3))
        mu = genlib.random_substitution(rng)
        t = genlib.random_term(rng, genlib.VARS, 3)
        q = rng.choice([q for q, u in subterms(t) if isinstance(u, Application)] or [()])
        o = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        below = deciders._below_frame(c, mu, t, q, o)
        assert below == reference_below(c, mu, t, q, o)
        if isinstance(subterm_at(t, q), Variable):
            continue
        above = deciders._above_frame(c, mu, t, q, o, {})
        assert above == reference_above(c, mu, t, q, o)
        seen.update(entry[0] for entry in above + below)
    # Every family the two frames emit was exercised.
    assert min(seen[f] for f in (
        "pattern-above-term", "pattern-above-image",
        "pattern-below-prefix", "pattern-below-context",
    )) >= 50, seen


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
        family: {str(i.problem.subject) for i in instances if i.family == family}
        for family in {i.family for i in instances}
    }
    assert by_family == {
        "left-term": {"false"},
        "left-context": {"false", "s(0)", "0"},
    }
    subjects = Counter(str(inst.problem.subject) for inst in instances)
    assert subjects == {"false": 60, "s(0)": 60, "0": 60}


def test_inner_loop_step_four_also_sees_false_on_its_left(
    factorial, factorial_inner_loop
):
    loop = factorial_inner_loop
    (q4, _), = loop.certificate.steps[3]
    assert q4 == (1, 2)
    instances = [
        i
        for i in step_problems(loop, factorial, StrategySpec("leftmost"))
        if i.step == 4
    ]
    families = Counter(inst.family for inst in instances)
    assert families == {"left-term": 12, "left-context": 24}
    term_side = [i for i in instances if i.family == "left-term"]
    assert {str(i.problem.subject) for i in term_side} == {"false"}
    assert {i.position for i in term_side} == {(1, 1)}


def test_max_parallel_families_empty_for_a_root_redex(collapse, collapse_loop):
    loop = collapse_loop
    # The loop's one step contracts loop.terms[0] at the root.
    assert loop.certificate.steps == ((((), 0),),)
    instances = step_problems(loop, collapse, StrategySpec("max-parallel"))
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
    assert ev.instance.problem.subject == parse_term("g(x,y)", collapse)
    assert ev.result.witness.n == 2
    assert ev.result.witness.sigma == Substitution({"x": v("z")})
    assert (ev.level, ev.violation_step) == (3, 1)


def test_shift_loop_needs_exponent_nine(shift, shift_loop):
    verdict = decide_loop(shift, shift_loop, StrategySpec("leftmost"))
    assert verdict.answer == "no"
    assert verdict.evidence.result.witness.n == 9
    assert verdict.open_problems == ()


def test_confirmation_stops_where_terms_outgrow_the_size_limit(monkeypatch):
    # mu doubles x, so level n of the unrolled loop holds 2^n copies of it,
    # while the witness puts the first violation at level 15 (g(s^14(y))
    # turns up left of the step), far past the level the limit stops at.
    trs = parse_trs(
        "(VAR x y)\n(RULES\n  f(x,y) -> h(g(y),f(d(x,x),s(y)))\n"
        f"  g({'s(' * 14}x{')' * 14}) -> x\n)\n"
    )
    cert = parse_loop_certificate(
        '{"start": "f(x,y)", "steps": [[{"pos": [], "rule": 0}]],'
        ' "context": "h(g(y),[])", "subst": {"x": "d(x,x)", "y": "s(y)"}}',
        trs,
    )
    loop = validate_loop(trs, cert)
    assert term_size(unroll_loop(loop, 10).terms[0]) > 1000
    began = time.perf_counter()
    monkeypatch.setattr(problems, "MAX_TERM_SIZE", 1000)
    capped = decide_loop(trs, loop, StrategySpec("leftmost"))
    assert time.perf_counter() - began < 0.5
    assert capped.answer == "no"
    assert capped.evidence.result.witness.n == 14
    assert capped.evidence.level is None


def test_confirmation_pumps_each_level_once(monkeypatch, shift, shift_loop):
    # Level n is one pump t -> C[t mu] of each term of level n - 1, so no
    # level plugs C more than once per term.
    plug, unroll = Context.plug, deciders.unroll_loop
    pumps, inside = Counter(), []

    def counted_plug(c, t):
        if inside:
            pumps[inside[-1]] += 1
        return plug(c, t)

    def traced_unroll(loop, n, *args, **kwargs):
        inside.append(n)
        try:
            return unroll(loop, n, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(Context, "plug", counted_plug)
    monkeypatch.setattr(deciders, "unroll_loop", traced_unroll)
    verdict = decide_loop(shift, shift_loop, StrategySpec("leftmost"))
    level = verdict.evidence.level
    assert level >= 3
    assert set(pumps) == set(range(1, level + 1))
    assert all(count <= len(shift_loop.terms) for count in pumps.values())


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
    loop = one_step_loop(
        app("g", v("x"), v("y")),
        (1,),
        collapse_loop.certificate.context,
        collapse_loop.certificate.subst,
    )
    with pytest.raises(VariableRedex):
        step_problems(loop, collapse, StrategySpec("forbidden", (pattern,)))


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


def test_growing_loop_is_decided(growing, growing_loop):
    # g(x,y) against g(w,w) needs s^2n(x) = s^n(y): no state ever repeats,
    # and the exponent bound |{x, y}| * (1 + 1) = 4 refutes it.
    spec = StrategySpec("leftmost")
    verdict = decide_loop(growing, growing_loop, spec)
    assert (verdict.answer, verdict.unknown, verdict.open_problems) == ("yes", 0, ())
    assert verdict.evidence is None
    growing_pair = (parse_term("g(x,y)", growing), parse_term("g(w,w)", growing))
    [problem] = [
        inst.problem
        for inst in step_problems(growing_loop, growing, spec)
        if (inst.problem.subject, inst.problem.pattern) == growing_pair
    ]
    assert exponent_bound(problem) == 4
    assert solve_problem(problem) == Unsolvable(UnsolvableReason.EXPONENT_BOUND)


# ---------------------------------------------------------------------------
# The h-problem reduction against its defining condition


def condition_one_hits(t, q, c, mu, pattern, levels):
    """Levels n <= levels at which some instance of the pattern forbids
    rewriting the wrapped term at p^n q."""
    p = c.hole_pos
    hits = []
    for n in range(levels + 1):
        tn = apply_context_substitution(t, c, mu, n)
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
    compared = 0
    while compared < 200:
        t = genlib.random_term(rng, depth=2)
        q = rng.choice(tuple(positions(t)))
        c = genlib.random_context(rng)
        mu = genlib.random_substitution(rng, wild=0.0)
        lhs = genlib.random_pattern(rng)
        o = rng.choice(tuple(positions(lhs)))
        pattern = ForbiddenPattern(lhs, o, PatternKind.HERE)

        loop = one_step_loop(t, q, c, mu)
        instances = step_problems(loop, NO_RULES, StrategySpec("forbidden", (pattern,)))
        results = [solve_problem(inst.problem) for inst in instances]
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


def renamed_system(trs, loop, patterns, rho):
    """trs, loop and forbidden patterns under the variable renaming rho."""
    new_trs = Trs.from_rules(
        (Rule(rho.apply(r.lhs), rho.apply(r.rhs)) for r in trs.rules),
        (rho.apply(v(x)).name for x in trs.variables),
    )
    cert = loop.certificate
    new_cert = LoopCertificate(
        rho.apply(cert.start),
        cert.steps,
        cert.context.substitute(rho),
        Substitution({rho.apply(v(x)).name: rho.apply(u) for x, u in cert.subst.items()}),
    )
    new_patterns = tuple(
        ForbiddenPattern(rho.apply(p.lhs), p.pos, p.kind) for p in patterns
    )
    return new_trs, validate_loop(new_trs, new_cert), new_patterns


def verdict_summary(trs, loop, spec, rho=EMPTY_SUBSTITUTION):
    """What a variable renaming must keep: the answer, the counts, where the
    evidence and the open problems sit, and the witness, its sigma renamed
    by rho."""
    try:
        verdict = decide_loop(trs, loop, spec)
    except LoopcertError as e:
        return type(e).__name__

    def place(inst):
        return inst.family, inst.step, inst.position, inst.rule_index, inst.n0

    out = [verdict.answer, verdict.total, verdict.unsolvable, verdict.solvable]
    out += [verdict.unknown] + [place(inst) for inst, _ in verdict.open_problems]
    if verdict.evidence is not None:
        w = verdict.evidence.result.witness
        sigma = w.sigma and Substitution(
            {rho.apply(v(x)).name: rho.apply(u) for x, u in w.sigma.items()}
        )
        out += [place(verdict.evidence.instance), verdict.evidence.instance.m, w.n, sigma]
        out += [verdict.evidence.level, verdict.evidence.violation_step]
    return out


def test_variable_renaming_keeps_every_corpus_verdict(corpus, stream, stream_patterns):
    # The exponent bound counts variables, so their names must not matter.
    # Each renaming permutes the variables and moves some to fresh names.
    rng = random.Random(5)
    for trs, loop in corpus:
        olds = sorted(trs.variables)
        news = rng.sample(olds + [f"r{i}" for i in range(len(olds))], len(olds))
        rho = Substitution({x: v(y) for x, y in zip(olds, news)})
        patterns = stream_patterns if trs is stream else ()
        new_trs, new_loop, new_patterns = renamed_system(trs, loop, patterns, rho)
        specs = [
            (StrategySpec(name), StrategySpec(name))
            for name in STRATEGIES
            if name != "forbidden"
        ]
        if patterns:
            specs.append(
                (StrategySpec("forbidden", patterns), StrategySpec("forbidden", new_patterns))
            )
        for spec, new_spec in specs:
            assert verdict_summary(trs, loop, spec, rho) == verdict_summary(
                new_trs, new_loop, new_spec
            ), (str(loop.certificate.start), spec.name)


def power_answer(trs, loop, name):
    try:
        return decide_loop(trs, loop, StrategySpec(name)).answer
    except ShapeMismatch:
        return "shape mismatch"


def test_k_fold_powers_keep_every_answer(corpus):
    # Running a loop k times in one certificate is the same loop, so it
    # keeps its answer under every strategy; a power's hole sits at p^k.
    names = [name for name in STRATEGIES if name != "forbidden"]
    for trs, loop in corpus:
        for k in (2, 4):
            powered = genlib.power(trs, loop, k)
            assert powered.certificate.context.hole_pos == (
                loop.certificate.context.hole_pos * k
            )
            for name in names:
                assert power_answer(trs, powered, name) == power_answer(
                    trs, loop, name
                ), (str(loop.certificate.start), k, name)
    for trs, loop in genlib.coherence_corpus(random.Random(29), 100):
        powered = genlib.power(trs, loop, 2)
        for name in genlib.SEQUENTIAL_COHERENCE:
            assert power_answer(trs, powered, name) == power_answer(
                trs, loop, name
            ), (str(loop.certificate.start), name)


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
        assert concrete_checks(spec) == components
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


def test_no_step_poses_a_problem_twice(corpus, stream, stream_patterns):
    for trs, loop in corpus:
        specs = [StrategySpec(name) for name in STRATEGIES if name != "forbidden"]
        if trs is stream:
            specs.append(StrategySpec("forbidden", stream_patterns))
        for spec in specs:
            try:
                instances = step_problems(loop, trs, spec)
            except ShapeMismatch:
                continue
            posed = Counter((inst.step, inst.problem) for inst in instances)
            assert max(posed.values(), default=1) == 1, (str(loop.certificate.start), spec)


def test_a_shared_problem_is_reported_under_the_first_component(collapse, collapse_loop):
    # Leftmost's left-context rows and innermost's pattern-above-term rows
    # reach four of the same problems here; leftmost is listed first.
    def family_problems(name, family):
        instances = step_problems(collapse_loop, collapse, StrategySpec(name))
        return {inst.problem for inst in instances if inst.family == family}

    shared = family_problems("leftmost", "left-context") & family_problems(
        "innermost", "pattern-above-term"
    )
    assert len(shared) == 4
    both = step_problems(collapse_loop, collapse, StrategySpec("leftmost-innermost"))
    assert [inst.family for inst in both if inst.problem in shared] == ["left-context"] * 4


def test_each_distinct_problem_is_solved_once_per_decision(
    monkeypatch, factorial, factorial_loop
):
    spec = StrategySpec("max-parallel")
    instances = step_problems(factorial_loop, factorial, spec)
    distinct = {inst.problem for inst in instances}
    assert len(distinct) < len(instances)  # steps repeat problems here

    solved = []
    solve = deciders.solve_problem

    def counting(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(deciders, "solve_problem", counting)
    verdict = decide_loop(factorial, factorial_loop, spec)
    assert len(solved) == len(distinct) and set(solved) == distinct
    assert verdict.total == len(instances)
    assert verdict.unsolvable + verdict.solvable + verdict.unknown == len(instances)


def test_each_key_gets_one_problem_object_and_one_solve(
    monkeypatch, corpus, stream, stream_patterns
):
    # mu is fixed per decision, so (subject, lhs) fixes a problem, an
    # extended problem's slices included: one object per key, solved once,
    # however many steps and rows reach it.
    def key(problem):
        return problem.subject, problem.pattern

    generate, solve = deciders.step_problems, deciders.solve_problem
    seen, solved = [], []
    monkeypatch.setattr(deciders, "step_problems", lambda *a: seen.append(generate(*a)) or seen[-1])
    monkeypatch.setattr(deciders, "solve_problem", lambda p: solved.append(p) or solve(p))
    decisions = 0
    for trs, loop in corpus:
        specs = [StrategySpec(name) for name in STRATEGIES if name != "forbidden"]
        if trs is stream:
            specs.append(StrategySpec("forbidden", stream_patterns))
        for spec in specs:
            seen.clear(), solved.clear()
            try:
                decide_loop(trs, loop, spec)
            except ShapeMismatch:
                continue
            decisions += 1
            objects: dict = {}
            for inst in seen[0]:
                objects.setdefault(key(inst.problem), set()).add(id(inst.problem))
            assert all(len(ids) == 1 for ids in objects.values()), spec.label
            assert sorted(map(id, solved)) == sorted(i for ids in objects.values() for i in ids)
    assert decisions == 85


# Strategies whose verdicts on found loops are pinned; their components are
# every family but forbidden's own patterns.
FOUND_LOOP_STRATEGIES = ("leftmost", "innermost", "outermost", "max-parallel")


def test_found_loops_decide_as_pinned(data_dir):
    # Loops that find produces repeat rows and problems across and within
    # steps far more than the hand-sized golden loops: pin every verdict.
    digest = hashlib.sha256()
    for name, depth, count in (("factorial.trs", 6, 93), ("collapse.trs", 8, 34)):
        trs = parse_trs((data_dir / name).read_text())
        certs = find_loops(trs, depth=depth)
        assert len(certs) == count
        for cert in certs:
            loop = validate_loop(trs, cert)
            for strategy in FOUND_LOOP_STRATEGIES:
                verdict = decide_loop(trs, loop, StrategySpec(strategy))
                digest.update(render_verdict(verdict, "json").encode() + b"\n")
    want = "b5ee415407c557bd4c1ca621c8d378a9210d10f5feddb9831f850801ba1c8d10"
    assert digest.hexdigest() == want


# BELOW patterns anchored below the root, beside the root ones of outermost.
BELOW_PATTERNS = {
    "collapse.trs": "h(x,y) @ 2 : b\n",
    "factorial.trs": "times(x,y) @ 1 : b\nif(x,y,z) @ eps : b\n",
    "stream.trs": "cons(x,inf(y)) @ 2 : b\n",
}


def test_found_certificates_decide_as_their_json_round_trip(data_dir):
    # find keeps the term it reached as a context's term, so the subterm at
    # the hole is the start instance, not the hole; read back from find's
    # JSON, the context's term has the hole there.  No verdict may differ.
    below_context = Counter()
    for name, depth in (("collapse.trs", 6), ("factorial.trs", 4), ("stream.trs", 6)):
        trs = parse_trs((data_dir / name).read_text())
        specs = [StrategySpec(s) for s in ("outermost", "leftmost", "max-parallel")]
        specs.append(StrategySpec("forbidden", parse_patterns(BELOW_PATTERNS[name], trs)))
        certs = find_loops(trs, depth=depth)
        docs = json.loads(certificates_to_json(certs))
        assert len(docs) == len(certs) > 0
        for cert, doc in zip(certs, docs):
            back = parse_loop_certificate(json.dumps(doc), trs)
            for c, hole in ((cert.context, False), (back.context, True)):
                assert (subterm_at(c.term, c.hole_pos) is HOLE) is hole
            found, read = validate_loop(trs, cert), validate_loop(trs, back)
            for spec in specs:
                texts = [render_verdict(decide_loop(trs, x, spec), "json") for x in (found, read)]
                assert texts[0] == texts[1], (name, str(cert.start), spec.label)
                below_context[spec.name] += sum(
                    inst.family == "pattern-below-context"
                    for inst in step_problems(found, trs, spec)
                )
    assert below_context["outermost"] > 0 and below_context["forbidden"] > 0
