"""Term algebra: positions, substitutions, contexts, and the wrapping operator.

The n-fold wrapping identities at the end are the load-bearing part: every
decider reduction leans on them, so they get both pinned examples and a
randomized sweep.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlib
from loopcert import (
    EMPTY_SUBSTITUTION,
    Application,
    Context,
    ContextSubstitution,
    MalformedContext,
    PositionOutOfTerm,
    PositionRelation,
    Substitution,
    Variable,
    apply_context_substitution,
    apply_substitution,
    are_parallel,
    format_position,
    is_left_of,
    is_prefix,
    is_strict_prefix,
    parse_term,
    position_relation,
    positions,
    replace_at,
    subterm_at,
    term_size,
    variable_closure,
    variables_of,
)


def v(name: str) -> Variable:
    return Variable(name)


def app(symbol: str, *args) -> Application:
    return Application(symbol, tuple(args))


position_st = st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple)


# ---------------------------------------------------------------------------
# Positions


def test_position_relation_examples():
    assert position_relation((1, 2), (2,)) is PositionRelation.LEFT_OF
    assert position_relation((), (1, 1)) is PositionRelation.STRICTLY_ABOVE
    assert position_relation((2, 1), (2, 1)) is PositionRelation.EQUAL
    assert position_relation((2,), (1, 2)) is PositionRelation.RIGHT_OF
    assert position_relation((1, 1), (1,)) is PositionRelation.STRICTLY_BELOW


def test_position_helpers():
    assert is_left_of((1, 2), (2,))
    assert not is_left_of((2,), (1, 2))
    assert not is_left_of((), (1,))
    assert are_parallel((1,), (2,))
    assert not are_parallel((1,), (1, 2))
    assert is_prefix((), (5,))
    assert is_prefix((1, 2), (1, 2))
    assert is_strict_prefix((1,), (1, 2))
    assert not is_strict_prefix((1,), (1,))


def test_format_position():
    assert format_position(()) == "eps"
    assert format_position((1, 2)) == "1.2"
    assert format_position((3,)) == "3"


@given(position_st, position_st)
def test_position_relation_total_and_antisymmetric(p, q):
    rel = position_relation(p, q)
    back = position_relation(q, p)
    assert (rel is PositionRelation.EQUAL) == (p == q) == (back is PositionRelation.EQUAL)
    mirror = {
        PositionRelation.EQUAL: PositionRelation.EQUAL,
        PositionRelation.STRICTLY_ABOVE: PositionRelation.STRICTLY_BELOW,
        PositionRelation.STRICTLY_BELOW: PositionRelation.STRICTLY_ABOVE,
        PositionRelation.LEFT_OF: PositionRelation.RIGHT_OF,
        PositionRelation.RIGHT_OF: PositionRelation.LEFT_OF,
    }
    assert back is mirror[rel]
    assert are_parallel(p, q) == (
        rel in (PositionRelation.LEFT_OF, PositionRelation.RIGHT_OF)
    )
    assert is_strict_prefix(p, q) == (rel is PositionRelation.STRICTLY_ABOVE)


# ---------------------------------------------------------------------------
# Subterms and replacement


def test_subterm_at_examples(factorial):
    t = parse_term("times(fact(s(x),y),s(x))", factorial)
    assert subterm_at(t, (1,)) == parse_term("fact(s(x),y)", factorial)
    assert subterm_at(v("x"), ()) == v("x")
    assert subterm_at(app("f", app("a"), app("g", app("b"))), (2, 1)) == app("b")


def test_subterm_at_out_of_term():
    with pytest.raises(PositionOutOfTerm):
        subterm_at(v("x"), (1,))
    with pytest.raises(PositionOutOfTerm):
        subterm_at(app("f", app("a")), (2,))


def test_replace_at_examples():
    assert replace_at(app("f", app("a"), app("b")), (2,), app("c")) == app(
        "f", app("a"), app("c")
    )
    assert replace_at(app("a"), (), app("b")) == app("b")
    with pytest.raises(PositionOutOfTerm):
        replace_at(app("a"), (1,), app("b"))


def test_positions_preorder_and_size():
    t = app("f", app("g", v("x")), app("a"))
    assert tuple(positions(t)) == ((), (1,), (1, 1), (2,))
    assert term_size(t) == 4
    assert variables_of(t) == frozenset({"x"})


def test_replace_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(100):
        t = genlib.random_term(rng)
        spots = tuple(positions(t))
        for p in spots:
            assert replace_at(t, p, subterm_at(t, p)) == t
        assert term_size(t) == len(spots)


# ---------------------------------------------------------------------------
# Substitutions


def test_substitution_drops_identity_bindings():
    mu = Substitution({"x": v("x"), "y": app("a")})
    assert mu.domain() == frozenset({"y"})
    assert mu == Substitution({"y": app("a")})
    assert mu.apply(v("x")) == v("x")
    assert str(Substitution({"x": app("s", v("x"))})) == "{x/s(x)}"


def test_apply_substitution_examples():
    mu = Substitution({"x": v("y"), "y": v("z")})
    assert apply_substitution(app("g", v("x"), v("y")), mu, 2) == app(
        "g", v("z"), v("z")
    )
    t = app("g", v("x"), v("y"))
    assert apply_substitution(t, mu, 0) == t
    rotate = Substitution({"x": v("y"), "y": v("z"), "z": app("s", v("x"))})
    assert apply_substitution(app("g", v("x")), rotate, 9) == app(
        "g", app("s", app("s", app("s", v("x"))))
    )


def test_variable_closure_examples():
    chain = Substitution(
        {"y": v("y1"), "y1": v("y2"), "y2": v("x"), "x": app("f", v("x"))}
    )
    assert variable_closure(v("y"), chain) == frozenset({"y", "y1", "y2", "x"})
    assert variable_closure(app("a"), chain) == frozenset()
    assert variable_closure(v("x"), EMPTY_SUBSTITUTION) == frozenset({"x"})


def test_variable_closure_covers_iterated_images():
    # The closure must contain every variable of t mu^k, not just of t mu.
    rng = random.Random(11)
    for _ in range(300):
        t = genlib.random_term(rng)
        mu = genlib.random_substitution(rng)
        closure = variable_closure(t, mu)
        for k in range(11):
            assert variables_of(apply_substitution(t, mu, k)) <= closure


# ---------------------------------------------------------------------------
# Contexts


def test_hole_position_examples(factorial, stream):
    assert Context.from_term(
        parse_term("times([],s(x))", factorial, allow_hole=True)
    ).hole_pos == (1,)
    assert Context.from_term(
        parse_term("cons(x,[])", stream, allow_hole=True)
    ).hole_pos == (2,)
    assert Context.from_term(
        parse_term("[]", factorial, allow_hole=True)
    ).hole_pos == ()


def test_malformed_contexts():
    from loopcert import HOLE

    with pytest.raises(MalformedContext):
        Context.from_term(app("s", v("x")))
    with pytest.raises(MalformedContext):
        Context.from_term(app("f", HOLE, HOLE))
    with pytest.raises(MalformedContext):
        ContextSubstitution(
            Context.from_term(app("f", HOLE)), Substitution({"x": HOLE})
        )


def test_context_plug_and_substitute(factorial):
    c = Context.from_term(parse_term("times([],s(x))", factorial, allow_hole=True))
    t = parse_term("fact(s(x),y)", factorial)
    assert c.plug(t) == parse_term("times(fact(s(x),y),s(x))", factorial)
    stepped = c.substitute(Substitution({"x": app("s", v("x"))}))
    assert stepped.body == parse_term("times([],s(s(x)))", factorial, allow_hole=True)
    assert stepped.hole_pos == (1,)


def test_apply_context_substitution_examples(factorial, stream):
    inf_cs = ContextSubstitution(
        Context.from_term(parse_term("cons(x,[])", stream, allow_hole=True)),
        Substitution({"x": app("s", v("x"))}),
    )
    assert apply_context_substitution(parse_term("inf(x)", stream), inf_cs, 2) == (
        parse_term("cons(x,cons(s(x),inf(s(s(x)))))", stream)
    )

    empty = ContextSubstitution(
        Context.from_term(parse_term("[]", factorial, allow_hole=True)),
        Substitution({"x": v("y")}),
    )
    t = parse_term("fact(x,y)", factorial)
    assert apply_context_substitution(t, empty, 1) == apply_substitution(
        t, empty.subst, 1
    )

    fact_cs = ContextSubstitution(
        Context.from_term(parse_term("times([],s(x))", factorial, allow_hole=True)),
        Substitution({"x": app("s", v("x"))}),
    )
    assert apply_context_substitution(t, fact_cs, 1) == parse_term(
        "times(fact(s(x),y),s(x))", factorial
    )
    assert apply_context_substitution(t, fact_cs, 0) == t


def test_wrapping_identities_randomized():
    # (i) commuting with mu, (ii) additivity of exponents, (iii) the subterm
    # at p^n, and (iv) step transport; checked by direct computation.
    rng = random.Random(3)
    checked, failures = genlib.wrap_identity_failures(rng, 12)
    assert failures == []
    assert checked >= 300


# ---------------------------------------------------------------------------
# Term identity: structural equality over cached hashes and sizes


def shape(t):
    """Structural key of a term, independent of the term classes."""
    if isinstance(t, Variable):
        return ("V", t.name)
    return ("A", t.symbol, tuple(shape(a) for a in t.args))


def copy_of(t):
    """A structurally equal term that shares no node with t."""
    if isinstance(t, Variable):
        return Variable(t.name)
    return Application(t.symbol, tuple(copy_of(a) for a in t.args))


def count_nodes(t) -> int:
    if isinstance(t, Variable):
        return 1
    return 1 + sum(count_nodes(a) for a in t.args)


# "c" is both a variable name and a symbol, so equal names of different kinds meet.
term_st = st.recursive(
    st.one_of(
        st.sampled_from(["x", "y", "c"]).map(Variable),
        st.sampled_from(["a", "c"]).map(Application),
    ),
    lambda kids: st.builds(
        lambda f, args: Application(f, tuple(args)),
        st.sampled_from(["f", "g", "c"]),
        st.lists(kids, min_size=1, max_size=3),
    ),
    max_leaves=10,
)


@given(term_st, term_st, st.booleans(), st.booleans())
def test_equality_is_structural_whatever_is_cached(t, u, hash_t, hash_u):
    for a, b in ((t, u), (t, copy_of(t)), (copy_of(u), u)):
        if hash_t:
            hash(a)
        if hash_u:
            hash(b)
        assert (a == b) == (shape(a) == shape(b))
        assert (a != b) == (shape(a) != shape(b))
        if a == b:
            assert hash(a) == hash(b)


@given(term_st)
def test_term_size_counts_nodes(t):
    assert term_size(t) == count_nodes(t)
    assert term_size(copy_of(t)) == term_size(t)  # fresh nodes, no cache yet


@given(term_st, st.dictionaries(st.sampled_from(["x", "y", "z", "w"]), term_st, max_size=3))
def test_substitution_returns_untouched_terms_themselves(t, mapping):
    mu = Substitution(mapping)
    image = mu.apply(t)
    if not variables_of(t) & mu.domain():
        assert image is t
    expected = Substitution({x: copy_of(u) for x, u in mapping.items()}).apply(copy_of(t))
    assert shape(image) == shape(expected)


@given(st.lists(term_st, max_size=8))
def test_terms_work_as_dict_and_set_keys(ts):
    index = {}
    for i, t in enumerate(ts):
        index.setdefault(t, i)
    for t in ts:
        assert index[copy_of(t)] == index[t]
        assert copy_of(t) in set(ts)
    assert len(index) == len({shape(t) for t in ts})


def test_a_variable_never_equals_a_constant_of_the_same_name():
    assert Variable("c") != Application("c")
    assert Application("c") != Variable("c")
    assert not Variable("c") == Application("c")
    assert len({Variable("c"), Application("c")}) == 2
