"""Parsing and rendering of systems, patterns, certificates, and verdicts.

Round trips run over the file corpus and over randomized terms; malformed
inputs pin the error type and, for text formats, the reported location.  A
Hypothesis fuzz holds every parser to a value or a LoopcertError.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlib
from loopcert import (
    ArityMismatch,
    DeciderConfig,
    EMPTY_SUBSTITUTION,
    ExtraRhsVariable,
    ForbiddenPattern,
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
)
from loopcert.formats import _json


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
    # caught once the whole system is read.
    with pytest.raises(ArityMismatch, match="'x' is declared as a variable"):
        parse_trs("(RULES f(x) -> x) (VAR x)")


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
        ("  ti mes: 1", "bad symbol name 'ti mes'", 1, 3),
        ("times: 1\n   times: 2", "symbol 'times' listed twice", 2, 4),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_replacement_map(text, factorial)
        assert (err.value.line, err.value.col) == (line, col)
    # '²'.isdigit() holds but int('²') raises; int() also reads '1_0' and '+1'.
    for text, col in (("²", 8), ("1, ²", 11), ("1_0", 8), ("+1", 8), ("1,,2", 10)):
        with pytest.raises(ParseError, match="index") as err:
            parse_replacement_map(f"\ntimes: {text}", factorial)
        assert (err.value.line, err.value.col) == (2, col)
    # Only '\n' ends a line, as in every other input.
    with pytest.raises(ParseError, match="index") as err:
        parse_replacement_map("times: 1\x0btimes: x", factorial)
    assert (err.value.line, err.value.col) == (1, 8)
    # Only space, tab and '\r' are blanks, as tokenize has them.
    for text, message, line, col in (
        ("\x0btimes: 1\x85", "bad symbol name '\\x0btimes'", 1, 1),
        ("times: 1\x85", "bad argument index '1\\x85'", 1, 8),
        ("times\x0c: 1", "bad symbol name 'times\\x0c'", 1, 1),
        ("\ntimes:\u3000", "bad argument index '\\u3000'", 2, 7),
        ("times: 1,\x1f2", "bad argument index '\\x1f2'", 1, 10),
        ("\x1c", "expected 'symbol: indices'", 1, 1),
        (" \t\r\n\xa0", "expected 'symbol: indices'", 2, 1),
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
        want = _json([certificate_to_document(c) for c in certs])
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
    bare = dataclasses.replace(factorial_loop.certificate, subst=EMPTY_SUBSTITUTION)
    assert first_difference([par, bare, collapse_loop.certificate, par, bare]) is None


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


# ---------------------------------------------------------------------------
# Verdict rendering


def test_yes_verdict_text(factorial, factorial_loop):
    verdict = decide_loop(factorial, factorial_loop, StrategySpec("leftmost"))
    text = render_verdict(verdict, "text")
    assert text.startswith("YES: loop under strategy leftmost\n")
    assert "checked 0 problems" in text


def test_no_verdict_text_block(collapse, collapse_loop):
    verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
    assert render_verdict(verdict, "text") == (
        "NO: not a loop under strategy leftmost\n"
        "  checked 8 problems: 7 unsolvable, 1 solvable, 0 unknown (bound 64)\n"
        "  evidence at step 1, family left-context, position 1, rule 1\n"
        "  problem: g(x,y) matches g(x,x) under {x/y, y/z}\n"
        "  witness: n=2, sigma={x/z}\n"
        "  concrete violation at unrolling level 3, step 1\n"
    )


def test_no_verdict_json_document(collapse, collapse_loop):
    verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
    doc = json.loads(render_verdict(verdict, "json"))
    assert sorted(doc) == [
        "bound", "evidence", "open_problems", "problems", "strategy", "verdict"
    ]
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


def test_unknown_verdict_rendering(stalled, stalled_loop):
    spec = StrategySpec("outermost")
    verdict = decide_loop(stalled, stalled_loop, spec)
    doc = json.loads(render_verdict(verdict, "json"))
    assert doc["verdict"] == "unknown"
    assert doc["evidence"] is None
    [open_problem] = doc["open_problems"]
    assert open_problem["stopped"] == "exponent bound 64 reached"
    assert open_problem["problem"]["type"] == "extended"
    assert render_verdict(verdict, "text") == (
        "UNKNOWN: undecided for strategy outermost\n"
        "  checked 2 problems: 1 unsolvable, 0 solvable, 1 unknown (bound 64)\n"
        "  open at step 1, family pattern-below-context, position eps,"
        " pattern s(s(b)) @ eps : b, n0 0\n"
        "    problem: s([])[f(y,y)(s([]),{x/y})^m] mu^k matches s(s(b))\n"
        "    stopped: exponent bound 64 reached\n"
    )
    # Each open problem says which limit stopped it.
    capped = decide_loop(stalled, stalled_loop, spec, DeciderConfig(max_term_size=5))
    assert "    stopped: state size limit reached\n" in render_verdict(capped, "text")
    [open_problem] = json.loads(render_verdict(capped, "json"))["open_problems"]
    assert open_problem["stopped"] == "state size limit reached"


def test_verdict_rendering_is_deterministic(collapse, collapse_loop):
    def render_once():
        verdict = decide_loop(collapse, collapse_loop, StrategySpec("leftmost"))
        return render_verdict(verdict, "json"), render_verdict(verdict, "text")

    assert render_once() == render_once()


def test_bound_appears_in_the_document(stalled, stalled_loop):
    verdict = decide_loop(
        stalled, stalled_loop, StrategySpec("outermost"), DeciderConfig(bound=4)
    )
    doc = json.loads(render_verdict(verdict, "json"))
    assert doc["bound"] == 4
    assert doc["verdict"] == "unknown"
    assert doc["open_problems"][0]["stopped"] == "exponent bound 4 reached"


# ---------------------------------------------------------------------------
# The canonical JSON writer

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


@given(json_doc_st)
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [True, 1.5, (1, 2)])
def test_json_writer_rejects_other_types(value):
    for doc in (value, [value], {"key": value}):
        with pytest.raises(TypeError):
            _json(doc)
    with pytest.raises(TypeError):
        _json({1: "not a str key"})


# ---------------------------------------------------------------------------
# Fuzzing: every parser returns a value or raises a LoopcertError.

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
