"""Parsing and rendering of systems, patterns, certificates, and verdicts.

Round trips run over the file corpus and over randomized terms; malformed
inputs pin the error type and, for text formats, the reported location.  A
Hypothesis fuzz holds every parser to a value or a LoopcertError.
"""

import copy
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlib
from loopcert import (
    Application,
    ArityMismatch,
    ClosingMismatch,
    Context,
    EMPTY_SUBSTITUTION,
    ExtraRhsVariable,
    ForbiddenPattern,
    HOLE,
    LoopCertificate,
    LoopcertError,
    ParseError,
    PatternKind,
    PositionOutOfTerm,
    RuleIndexOutOfRange,
    StrategySpec,
    Substitution,
    Variable,
    VariableLhs,
    certificate_to_document,
    certificates_to_json,
    decide_loop,
    innermost_patterns,
    outermost_patterns,
    parse_loop_certificate,
    parse_patterns,
    parse_replacement_map,
    parse_term,
    parse_trs,
    render_verdict,
    replace_at,
    subterms,
)
from loopcert import problems


# ---------------------------------------------------------------------------
# System files


def test_parse_trs_reads_rules_in_order(stream):
    text = """
    (VAR x y zs)
    (RULES
      inf(x) -> cons(x,inf(s(x)))
      2nd(cons(x,cons(y,zs))) -> y
    )
    """
    trs = parse_trs(text)
    assert len(trs.rules) == 2
    assert trs.rules == stream.rules
    assert trs.variables == frozenset({"x", "y", "zs"})


def test_parse_trs_rejects_variable_lhs():
    with pytest.raises(VariableLhs, match=r"\(line 1, column 16\)$"):
        parse_trs("(VAR x) (RULES x -> x)")


def test_parse_trs_locates_rule_and_arity_errors():
    # A bad rule is reported at its first token, a wrong arity at its symbol.
    for text, error, message in (
        (
            "(VAR x y)\n(RULES\n  g(x) -> y\n)",
            ExtraRhsVariable,
            "right-hand side of g(x) -> y uses fresh ['y'] (line 3, column 3)",
        ),
        (
            "(VAR x) (RULES f(x) -> f(x,x))",
            ArityMismatch,
            "f used with 2 arguments, expected 1 (line 1, column 24)",
        ),
        (
            "(VAR x)\n(RULES\n  f(x) -> a\n)\n(RULES\n  a(x) -> x\n)",
            ArityMismatch,
            "a used with 1 arguments, expected 0 (line 6, column 3)",
        ),
    ):
        with pytest.raises(error) as err:
            parse_trs(text)
        assert str(err.value) == message
    # A name declared a variable only after rules used it as a symbol is
    # caught once the whole system is read.  The clash named is the first in
    # preorder: x, not y, whose arity the parser records first.
    for text in ("(RULES f(x) -> x) (VAR x)", "(RULES f(x(y)) -> a) (VAR x y)"):
        with pytest.raises(ArityMismatch, match="^'x' is declared as a variable but used"):
            parse_trs(text)


def test_parse_trs_requires_a_rules_section():
    with pytest.raises(ParseError, match="RULES") as info:
        parse_trs("(VAR x)\n")
    assert info.value.line >= 1
    assert info.value.col >= 1


def test_parse_trs_rejects_unknown_sections():
    with pytest.raises(ParseError, match="VAR or RULES"):
        parse_trs("(THEORY)")


def test_trs_documents_round_trip(data_dir):
    for name in sorted(data_dir.glob("*.trs")):
        trs = parse_trs(name.read_text())
        again = parse_trs(genlib.render_trs(trs))
        assert again == trs


# ---------------------------------------------------------------------------
# Terms


def test_parse_term_round_trips_random_terms():
    trs = parse_trs("(VAR x y z w) (RULES g(x) -> g(x))")
    rng = random.Random(5)
    for _ in range(300):
        t = genlib.random_term(rng)
        assert parse_term(str(t), trs) == t


def test_parse_term_checks_known_arities(factorial):
    with pytest.raises(ArityMismatch):
        parse_term("fact(x)", factorial)


def test_parse_term_accepts_consistent_new_symbols(factorial):
    parse_term("mystery(x)", factorial)
    # A new symbol's arity is set by its first application read to its end.
    with pytest.raises(ArityMismatch, match=r"expected 0 \(line 1, column 1\)"):
        parse_term("mystery(x, mystery)", factorial)


def test_parse_term_hole_handling(factorial):
    parse_term("times([],s(x))", factorial, allow_hole=True)
    with pytest.raises(ParseError):
        parse_term("times([],s(x))", factorial)


def test_parse_term_reports_unbalanced_input(factorial):
    with pytest.raises(ParseError):
        parse_term("fact(x,y", factorial)


# ---------------------------------------------------------------------------
# Forbidden-pattern files


def test_parse_patterns_reads_the_stream_file(stream, stream_patterns, data_dir):
    parsed = parse_patterns((data_dir / "stream_patterns.txt").read_text(), stream)
    assert parsed == stream_patterns
    (pattern,) = parsed
    assert pattern.lhs == parse_term("cons(x,cons(y,inf(z)))", stream)
    assert pattern.pos == (2, 2)
    assert pattern.kind is PatternKind.HERE


def test_parse_patterns_validates_the_position(stream):
    with pytest.raises(PositionOutOfTerm, match=r"\(line 1, column 10\)$"):
        parse_patterns("inf(x) @ 3 : a", stream)
    with pytest.raises(PositionOutOfTerm) as err:
        parse_patterns("inf(x) @ eps : h\n cons(x,y) @ 1.1 : b", stream)
    assert str(err.value) == "pattern position 1.1 not in cons(x,y) (line 2, column 14)"
    # int() would read these as 10 and 1; only ASCII digits make an index.
    for text in ("1_0", "+1", "1.+2"):
        with pytest.raises(ParseError, match="bad position") as err:
            parse_patterns(f"inf(x) @ {text} : h", stream)
        assert (err.value.line, err.value.col) == (1, 10)


def test_parse_patterns_checks_arities(stream):
    with pytest.raises(ArityMismatch, match="inf used with 2 arguments, expected 1"):
        parse_patterns("inf(x,y) @ eps : h", stream)
    text = "inf(x) @ eps : h\n  cons(x, inf(x,y)) @ 1 : a\n"
    with pytest.raises(ArityMismatch) as err:
        parse_patterns(text, stream)
    assert str(err.value) == "inf used with 2 arguments, expected 1 (line 2, column 11)"


def test_parse_patterns_accepts_eps_and_all_kinds(stream):
    (pattern,) = parse_patterns("inf(x) @ eps : b", stream)
    assert pattern.pos == ()
    assert pattern.kind is PatternKind.BELOW


def test_parse_patterns_rejects_unknown_kinds(stream):
    with pytest.raises(ParseError, match="h, a, or b"):
        parse_patterns("inf(x) @ eps : q", stream)


def test_patterns_round_trip(factorial, stream, stream_patterns):
    for trs, patterns in (
        (stream, stream_patterns),
        (factorial, innermost_patterns(factorial.lhss())),
        (stream, outermost_patterns(stream.lhss())),
    ):
        assert parse_patterns(genlib.render_patterns(patterns), trs) == tuple(patterns)


# ---------------------------------------------------------------------------
# Replacement maps


def test_parse_replacement_map_shapes(factorial):
    assert parse_replacement_map("times: 2", factorial) == {"times": (2,)}
    assert parse_replacement_map("times:", factorial) == {"times": ()}
    assert parse_replacement_map("times: 2,1, 2", factorial) == {"times": (1, 2)}
    assert parse_replacement_map("", factorial) == {}


def test_parse_replacement_map_errors(factorial):
    with pytest.raises(ParseError, match="symbol"):
        parse_replacement_map("times", factorial)
    with pytest.raises(ParseError, match="index"):
        parse_replacement_map("times: two", factorial)
    with pytest.raises(ParseError, match="twice"):
        parse_replacement_map("times: 1\ntimes: 2", factorial)
    # A bad or repeated name is reported at its own column.
    for text, message, line, col in (
        ("  ti mes: 1", "expected ':' after symbol 'ti'", 1, 3),
        ("times: 1\n   times: 2", "symbol 'times' listed twice", 2, 4),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_replacement_map(text, factorial)
        assert (err.value.line, err.value.col) == (line, col)
    # '²'.isdigit() holds but int('²') raises; int() also reads '1_0' and '+1'.
    for text, message, col in (
        ("²", "unexpected character '²'", 8),
        ("1, ²", "unexpected character '²'", 11),
        ("1_0", "bad argument index '1_0'", 8),
        ("+1", "bad argument index '\\+1'", 8),
        ("1,,2", "bad argument index ','", 10),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_replacement_map(f"\ntimes: {text}", factorial)
        assert (err.value.line, err.value.col) == (2, col)
    # Only '\n' ends a line, as in every other input.
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_replacement_map("times: 1\x0btimes: x", factorial)
    assert (err.value.line, err.value.col) == (1, 9)
    # Only space, tab and '\r' are blanks, as tokenize has them.
    for text, message, line, col in (
        ("\x0btimes: 1\x85", "unexpected character '\\x0b'", 1, 1),
        ("times: 1\x85", "unexpected character '\\x85'", 1, 9),
        ("times\x0c: 1", "unexpected character '\\x0c'", 1, 6),
        ("\ntimes:\u3000", "unexpected character '\\u3000'", 2, 7),
        ("times: 1,\x1f2", "unexpected character '\\x1f'", 1, 10),
        ("\x1c", "unexpected character '\\x1c'", 1, 1),
        (" \t\r\n\xa0", "unexpected character '\\xa0'", 2, 1),
    ):
        with pytest.raises(ParseError) as err:
            parse_replacement_map(text, factorial)
        assert str(err.value) == f"{message} (line {line}, column {col})"
    assert parse_replacement_map(" \ttimes :\r1 ,2\r\n\r", factorial) == {"times": (1, 2)}


def test_replacement_map_entries_fit_the_system_where_read(factorial):
    # An unknown symbol is reported at its name, an argument index outside
    # the symbol's arity at that index.
    for text, message, line, col in (
        ("times: 1\nfoo: 1", "replacement map names unknown symbol 'foo'", 2, 1),
        ("times: 7", "replacement map for 'times' (arity 2) lists arguments [7]", 1, 8),
        ("\n fact: 2, 0,3", "replacement map for 'fact' (arity 2) lists arguments [0]", 2, 11),
    ):
        with pytest.raises(ArityMismatch) as err:
            parse_replacement_map(text, factorial)
        assert str(err.value) == f"{message} (line {line}, column {col})"


def render_replacement_map(rng: random.Random, mapping: dict[str, list[int]]) -> str:
    """*mapping* as a map file, with random blanks, blank lines and repeats."""

    def blank() -> str:
        return "".join(rng.choice(" \t\r") for _ in range(rng.randrange(3)))

    lines = []
    for name, indices in mapping.items():
        lines.extend(blank() for _ in range(rng.randrange(2)))
        listed = ",".join(blank() + str(i) + blank() for i in indices)
        lines.append(blank() + name + blank() + ":" + (blank() + listed if listed else ""))
    return "\n".join(lines) + rng.choice(["", "\n", "\r\n", "\n \t"])


def test_replacement_maps_round_trip(factorial):
    rng = random.Random(7)
    arities = dict(factorial.signature)
    for _ in range(300):
        names = rng.sample(sorted(arities), rng.randrange(len(arities) + 1))
        mapping = {
            f: [rng.randint(1, arities[f]) for _ in range(rng.randrange(arities[f] * 2 + 1))]
            if arities[f] and rng.random() < 0.8
            else []
            for f in names
        }
        text = render_replacement_map(rng, mapping)
        want = {f: tuple(sorted(set(ix))) for f, ix in mapping.items()}
        assert parse_replacement_map(text, factorial) == want, repr(text)


def test_replacement_map_refusals_are_located(factorial):
    for text, error, message in (
        ("times: 1,", ParseError, "expected an argument index after ',' (line 1, column 9)"),
        (
            "times: 1,\nplus: 2",
            ParseError,
            "expected an argument index after ',' (line 1, column 9)",
        ),
        ("times: 1 2", ParseError, "expected ',' or a new line, found '2' (line 1, column 10)"),
        (
            "times: 1 plus: 2",
            ParseError,
            "expected ',' or a new line, found 'plus' (line 1, column 10)",
        ),
        ("times\n: 1", ParseError, "expected ':' after symbol 'times' (line 1, column 1)"),
        ("times: 1\x0b", ParseError, "unexpected character '\\x0b' (line 1, column 9)"),
        (
            "times: 2\n\ntimes:",
            ParseError,
            "symbol 'times' listed twice (line 3, column 1)",
        ),
        (
            "plus: 1, 3",
            ArityMismatch,
            "replacement map for 'plus' (arity 2) lists arguments [3] (line 1, column 10)",
        ),
    ):
        with pytest.raises(error) as err:
            parse_replacement_map(text, factorial)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Loop certificates


def test_certificate_shapes(factorial_loop, factorial_par_inner_loop):
    cert = factorial_loop.certificate
    assert len(cert.steps) == 5
    assert all(len(step) == 1 for step in cert.steps)
    par = factorial_par_inner_loop.certificate
    assert len(par.steps) == 1
    assert len(par.steps[0]) == 5


def test_certificates_round_trip(corpus):
    for trs, loop in corpus:
        cert = loop.certificate
        assert parse_loop_certificate(genlib.render_loop_certificate(cert), trs) == cert


def test_certificate_rule_indices_are_checked(factorial, data_dir):
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    doc["steps"][0][0]["rule"] = 99
    with pytest.raises(RuleIndexOutOfRange):
        parse_loop_certificate(json.dumps(doc), factorial)


def test_certificates_to_json_matches_the_document_writer(
    find_outputs, factorial_loop, factorial_par_outer_loop, collapse_loop
):
    def first_difference(certs) -> int | None:
        # An index, not the texts: a diff of megabytes of JSON takes minutes.
        got = certificates_to_json(certs)
        want = json.dumps([certificate_to_document(c) for c in certs], sort_keys=True, indent=2)
        want += "\n"
        if got == want:
            return None
        return next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))

    assert certificates_to_json([]) == "[]\n"
    assert first_difference([]) is None
    for name, _, certs in find_outputs:
        assert first_difference(certs) is None, name
    # A parallel step, a root position, an empty substitution, repeated steps.
    par = factorial_par_outer_loop.certificate
    assert len(par.steps[0]) > 1 and par.steps[-1][0][0] == ()
    cert = factorial_loop.certificate
    bare = LoopCertificate(cert.start, cert.steps, cert.context, EMPTY_SUBSTITUTION)
    assert first_difference([par, bare, collapse_loop.certificate, par, bare]) is None
    # One term as start, substitution image and argument off the hole spine,
    # with the hole at every position of the start.
    x, y = Variable("x"), Variable("y")
    shared = Application("g", (Application("s", (x,)), y))
    big = Application("h", (shared, Application("k", (y, shared, Application("s", (shared,))))))
    certs = [
        LoopCertificate(
            big, STEP, Context(replace_at(big, p, HOLE), p), Substitution({"x": shared, "y": u})
        )
        for p, u in subterms(big)
    ]
    assert first_difference(certs + certs[::-1]) is None
    # A context and a substitution image 2,000 levels deep: no recursion limit.
    deep = _deep_chain_certificate(2000)
    assert len(deep.context.hole_pos) > 2000
    assert first_difference([deep, par, deep]) is None


# One root step by rule 0: certificates here are only rendered, never replayed.
STEP = ((((), 0),),)


def _deep_chain_certificate(n: int) -> LoopCertificate:
    """A certificate whose context hole and substitution image sit below n
    nested s(...), with arguments on both sides of the hole spine."""
    x, y = Variable("x"), Variable("y")
    image, body = x, Application("k", (y, HOLE, Application("s", (x,))))
    for _ in range(n):
        image, body = Application("s", (image,)), Application("s", (body,))
    body = Application("k", (Application("a"), body, image))
    context = Context.from_term(body)
    return LoopCertificate(Application("f", (x, y)), STEP, context, Substitution({"x": image}))


def test_certificates_to_json_memory_is_linear_in_its_output():
    # The text dict holds whole terms the output contains, never the text of
    # every suffix of a deep term, which would grow with depth times size.
    cert = _deep_chain_certificate(3000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = certificates_to_json([cert])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(out) > 2 * 3 * 3000  # "s(" and ")" per level, in the context and the image
    assert peak <= 20 * len(out), (peak, len(out))


def test_certificate_subst_must_bind_declared_variables(factorial, data_dir):
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    doc["subst"]["nonsuch"] = "s(x)"
    with pytest.raises(ParseError, match="nonsuch"):
        parse_loop_certificate(json.dumps(doc), factorial)


def test_certificate_requires_all_keys(factorial, data_dir):
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    del doc["context"]
    with pytest.raises(ParseError, match="context"):
        parse_loop_certificate(json.dumps(doc), factorial)


def test_certificate_rejects_empty_steps(factorial, data_dir):
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    doc["steps"] = []
    with pytest.raises(ParseError, match="nonempty"):
        parse_loop_certificate(json.dumps(doc), factorial)


def test_certificate_rejects_malformed_redexes(factorial, data_dir):
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    doc["steps"][0][0]["pos"] = [0]
    with pytest.raises(ParseError, match="redex"):
        parse_loop_certificate(json.dumps(doc), factorial)
    doc["steps"][0][0]["pos"] = [True]
    with pytest.raises(ParseError, match="redex"):
        parse_loop_certificate(json.dumps(doc), factorial)


def test_certificate_terms_report_arity_locations(factorial, data_dir):
    # Lines and columns count within the term string, not the JSON file.
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    doc["start"] = "fact(x,\n  s(x, y))"
    with pytest.raises(ArityMismatch) as err:
        parse_loop_certificate(json.dumps(doc), factorial)
    assert str(err.value) == "start: s used with 2 arguments, expected 1 (line 2, column 3)"


def test_certificate_errors_name_their_field(factorial, data_dir):
    # A term string's error is led by its field; a structural error names
    # its field in the message and has no line or column to report.
    unclosed = "expected rparen, found 'end of input'"
    for key, value, message in (
        ("start", "fact(x", f"start: {unclosed} (line 1, column 7)"),
        ("context", "s([],x", f"context: {unclosed} (line 1, column 7)"),
        ("subst", {"x": "s(x"}, f"subst x: {unclosed} (line 1, column 4)"),
        ("subst", {"q": "x"}, "subst binds 'q', which is not a declared variable"),
        ("subst", {"x": 7}, "subst x must be a term string"),
        ("steps", [], "steps must be a nonempty list"),
    ):
        doc = json.loads((data_dir / "factorial_loop.json").read_text())
        doc[key] = value
        with pytest.raises(ParseError) as err:
            parse_loop_certificate(json.dumps(doc, indent=2), factorial)
        assert str(err.value) == message


def test_located_errors_keep_their_line_and_column(factorial, stream, data_dir):
    # Every error that names a place in its input keeps it as .line and .col,
    # the same numbers its message ends with.
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    cases = [
        (lambda text: parse_trs(text), text)
        for text in (
            "(RULES f(x) -> x;)",
            "(VAR x)\n(THEORY)",
            "(VAR x) (RULES\n  x -> x)",
            "(VAR x y) (RULES g(x) -> y)",
            "(VAR x) (RULES f(x) -> f(x,x))",
            "(VAR x) (RULES\n  x(y) -> a)",
        )
    ]
    cases += [
        (lambda text: parse_patterns(text, stream), text)
        for text in ("inf(x) @ 3 : a", "inf(x,y) @ eps : h", "inf(x) @ 1_0 : h", "inf(x) @ 1 : q")
    ]
    cases += [
        (lambda text: parse_replacement_map(text, factorial), text)
        for text in ("times: 1,", "times: 1\nfoo: 1", "times: 7", "times: ²", "times: 1\ntimes:")
    ]
    cases += [
        (lambda text: parse_loop_certificate(text, factorial), json.dumps({**doc, key: value}))
        for key, value in (
            ("start", "fact(x,\n  s(x, y))"),
            ("context", "s([],x"),
            ("subst", {"x": "s(x"}),
        )
    ]
    cases.append((lambda text: parse_loop_certificate(text, factorial), "{\n  nope"))
    for parse, text in cases:
        with pytest.raises(LoopcertError) as err:
            parse(text)
        e = err.value
        assert e.line is not None and e.col is not None, (text, str(e))
        assert str(e).endswith(f" (line {e.line}, column {e.col})"), (text, str(e))
    # Errors that name no place in their input have neither.
    with pytest.raises(LoopcertError) as err:
        parse_loop_certificate(json.dumps({**doc, "steps": []}), factorial)
    assert (err.value.line, err.value.col) == (None, None)


def test_every_error_survives_pickle_and_copy():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    x = Variable("x")
    errors = [LoopcertError("plain"), LoopcertError("located", 2, 5)]
    for cls in subclasses(LoopcertError):
        if cls is ClosingMismatch:
            errors.append(ClosingMismatch(x, Application("s", (x,))))
        else:
            errors += [cls("plain"), cls("located", 3, 7)]
    assert ClosingMismatch in {type(e) for e in errors}
    for e in errors:
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert type(twin) is type(e)
            assert (str(twin), twin.line, twin.col) == (str(e), e.line, e.col)
            if isinstance(e, ClosingMismatch):
                assert (twin.expected, twin.actual) == (e.expected, e.actual)


# ---------------------------------------------------------------------------
# Verdict rendering


def test_yes_verdict_text(factorial, factorial_loop):
    verdict = decide_loop(factorial, factorial_loop, StrategySpec("leftmost"))
    text = render_verdict(verdict, "text")
    assert text.startswith("YES: loop under strategy leftmost\n")
    assert "checked 0 problems" in text
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_verdict(verdict, "xml")


def test_no_verdict_text_block(collapse, collapse_loop):
    verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
    assert render_verdict(verdict, "text") == (
        "NO: not a loop under strategy leftmost\n"
        "  checked 8 problems: 7 unsolvable, 1 solvable, 0 unknown\n"
        "  evidence at step 1, family left-context, position 1, rule 1\n"
        "  problem: g(x,y) matches g(x,x) under {x/y, y/z}\n"
        "  witness: n=2, sigma={x/z}\n"
        "  concrete violation at unrolling level 3, step 1\n"
    )


def test_no_verdict_json_document(collapse, collapse_loop):
    verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
    doc = json.loads(render_verdict(verdict, "json"))
    assert sorted(doc) == ["evidence", "open_problems", "problems", "strategy", "verdict"]
    assert doc["verdict"] == "no"
    assert doc["strategy"] == "leftmost"
    assert doc["problems"] == {
        "total": 8, "unsolvable": 7, "solvable": 1, "unknown": 0
    }
    ev = doc["evidence"]
    assert ev["witness"] == {"n": 2}
    assert ev["sigma"] == {"x": "z"}
    assert ev["confirmed"] == {"level": 3, "step": 1}
    assert ev["instance"]["family"] == "left-context"
    assert ev["instance"]["position"] == "1"
    assert ev["instance"]["rule"] == 1
    assert ev["instance"]["problem"]["mu"] == {"x": "y", "y": "z"}


def test_unknown_verdict_rendering(stalled, stalled_loop, monkeypatch):
    # Stalled's slices s^(m+1)(f(y,y)), m = 0..2, are all refuted; under a
    # size limit of 5 the last one, 6 nodes, is open instead.
    spec = StrategySpec("outermost")
    assert decide_loop(stalled, stalled_loop, spec).answer == "yes"
    monkeypatch.setattr(problems, "MAX_TERM_SIZE", 5)
    verdict = decide_loop(stalled, stalled_loop, spec)
    doc = json.loads(render_verdict(verdict, "json"))
    assert doc["verdict"] == "unknown"
    assert doc["evidence"] is None
    [open_problem] = doc["open_problems"]
    assert open_problem["stopped"] == "state size limit reached"
    assert open_problem["problem"]["pairs"] == [
        {"subject": "s(s(s(f(y,y))))", "pattern": "s(s(b))"}
    ]
    assert render_verdict(verdict, "text") == (
        "UNKNOWN: undecided for strategy outermost\n"
        "  checked 4 problems: 3 unsolvable, 0 solvable, 1 unknown\n"
        "  open at step 1, family pattern-below-context, position eps,"
        " pattern s(s(b)) @ eps : b, n0 0\n"
        "    problem: s(s(s(f(y,y)))) matches s(s(b)) under {x/y}\n"
        "    stopped: state size limit reached\n"
    )


def test_verdict_rendering_is_deterministic(collapse, collapse_loop):
    def render_once():
        verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
        return render_verdict(verdict, "json"), render_verdict(verdict, "text")

    assert render_once() == render_once()


def test_bound_appears_in_the_document(stalled, stalled_loop):
    # The document no longer carries a bound: stalled, once unknown at
    # "exponent bound 4 reached", is decided, and neither form names a bound.
    verdict = decide_loop(stalled, stalled_loop, StrategySpec("outermost"))
    doc = json.loads(render_verdict(verdict, "json"))
    assert sorted(doc) == ["evidence", "open_problems", "problems", "strategy", "verdict"]
    assert doc["verdict"] == "yes"
    assert doc["open_problems"] == []
    assert "bound" not in render_verdict(verdict, "text")


# ---------------------------------------------------------------------------
# Fuzzing: every parser returns a value or raises a LoopcertError.

# Surrogates (category Cs) are excluded by default; keep them in, lone ones
# included, next to quotes, backslashes and control characters.
json_text_st = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff'),
    ),
    max_size=12,
)
json_doc_st = st.recursive(
    st.none()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | json_text_st,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_text_st, children, max_size=4),
    max_leaves=24,
)


TOKEN_PIECES = (
    "(", ")", ",", "->", "-", ">", "[]", "[", "]", "@", ":", " ", "\n", "\t",
    "x", "y", "zs", "s", "0", "1", "2", ".", "eps", "h", "a", "b", "inf", "cons",
    "2nd", "VAR", "RULES", "²", "é", "\x0b",
)
soup_st = st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join)
input_text_st = st.one_of(soup_st, st.text(max_size=30))
certificate_text_st = st.one_of(
    input_text_st,
    json_doc_st.map(json.dumps),
    st.fixed_dictionaries(
        {
            "start": soup_st,
            "steps": st.lists(
                st.lists(
                    st.fixed_dictionaries(
                        {"pos": st.lists(st.integers(-1, 3), max_size=3),
                         "rule": st.integers(-1, 3)}
                    ),
                    max_size=2,
                ),
                max_size=2,
            ),
            "context": soup_st,
            "subst": st.dictionaries(st.sampled_from(["x", "zs", "q"]), soup_st, max_size=2),
        }
    ).map(json.dumps),
)


@pytest.mark.parametrize(
    "parse, text_st",
    [
        (lambda text, trs: parse_trs(text), input_text_st),
        (parse_term, input_text_st),
        (parse_patterns, input_text_st),
        (parse_replacement_map, input_text_st),
        (parse_loop_certificate, certificate_text_st),
    ],
    ids=["trs", "term", "patterns", "replacement-map", "certificate"],
)
@given(data=st.data())
def test_parsers_return_a_value_or_a_loopcert_error(stream, parse, text_st, data):
    try:
        parse(data.draw(text_st), stream)
    except LoopcertError:
        pass
