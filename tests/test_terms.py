"""Term algebra: positions, substitutions, contexts, and the wrapping operator.

The n-fold wrapping identities at the end are the load-bearing part: every
decider reduction leans on them, so they get both pinned examples and a
randomized sweep.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlib
from loopcert import terms
from loopcert import (
    EMPTY_SUBSTITUTION,
    HOLE,
    LoopCertificate,
    Application,
    Context,
    MalformedContext,
    PositionOutOfTerm,
    Substitution,
    Variable,
    apply_context_substitution,
    apply_substitution,
    are_parallel,
    certificates_to_json,
    format_position,
    is_left_of,
    is_prefix,
    is_strict_prefix,
    parse_term,
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


def relation(p, q) -> str:
    """Which of the five position relations holds; exactly one must."""
    holds = [
        name
        for name, ok in (
            ("equal", p == q),
            ("strictly-above", is_strict_prefix(p, q)),
            ("strictly-below", is_strict_prefix(q, p)),
            ("left-of", is_left_of(p, q)),
            ("right-of", is_left_of(q, p)),
        )
        if ok
    ]
    assert len(holds) == 1, (p, q, holds)
    return holds[0]


def test_position_relation_examples():
    assert relation((1, 2), (2,)) == "left-of"
    assert relation((), (1, 1)) == "strictly-above"
    assert relation((2, 1), (2, 1)) == "equal"
    assert relation((2,), (1, 2)) == "right-of"
    assert relation((1, 1), (1,)) == "strictly-below"


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
    rel = relation(p, q)
    back = relation(q, p)
    assert (rel == "equal") == (p == q) == (back == "equal")
    mirror = {
        "equal": "equal",
        "strictly-above": "strictly-below",
        "strictly-below": "strictly-above",
        "left-of": "right-of",
        "right-of": "left-of",
    }
    assert back == mirror[rel]
    assert are_parallel(p, q) == (rel in ("left-of", "right-of"))
    assert is_strict_prefix(p, q) == (rel == "strictly-above")


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
    # Equality, hashing and repr read the sorted bindings, not the lookup dict.
    twin = Substitution({"y": app("a"), "x": v("x")})
    assert twin._map is not mu._map and hash(twin) == hash(mu)
    assert repr(twin) == "Substitution(bindings=(('y', Application(symbol='a', args=())),))"
    assert mu != Substitution({"y": app("b")}) and mu != mu.bindings
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
    with pytest.raises(MalformedContext):
        Context.from_term(app("s", v("x")))
    with pytest.raises(MalformedContext):
        Context.from_term(app("f", HOLE, HOLE))
    # A closing pair whose mu reintroduces a hole is refused where it enters,
    # also when the hole sits deep inside an image.
    for image in (HOLE, app("s", app("s", HOLE))):
        with pytest.raises(MalformedContext):
            LoopCertificate(
                app("f", v("x")),
                ((((), 0),),),
                Context.from_term(app("f", HOLE)),
                Substitution({"y": app("a"), "x": image}),
            )


def test_context_plug_and_substitute(factorial):
    c = Context.from_term(parse_term("times([],s(x))", factorial, allow_hole=True))
    t = parse_term("fact(s(x),y)", factorial)
    assert c.plug(t) == parse_term("times(fact(s(x),y),s(x))", factorial)
    stepped = c.substitute(Substitution({"x": app("s", v("x"))}))
    assert stepped.plug(HOLE) == parse_term("times([],s(s(x)))", factorial, allow_hole=True)
    assert stepped.hole_pos == (1,)


def test_plugs_to_agrees_with_plug():
    rng = random.Random(41)
    for _ in range(400):
        c = genlib.random_context(rng, depth=rng.randint(0, 4))
        t = genlib.random_term(rng, depth=2)
        plugged = c.plug(t)
        spot = rng.choice(list(positions(plugged)))
        candidates = [
            plugged,
            replace_at(plugged, spot, genlib.random_term(rng, depth=1)),
            c.plug(genlib.random_term(rng, depth=2)),
            genlib.random_term(rng),
        ]
        for u in candidates:
            assert c.plugs_to(t, u) == (plugged is u)
    # The same symbol with another arity is a mismatch, not an error.
    c = Context(app("f", app("a"), HOLE), (2,))
    assert not c.plugs_to(app("b"), app("f", app("a")))
    assert c.plugs_to(app("b"), app("f", app("a"), app("b")))


def test_a_context_built_from_a_term_equals_its_holed_body():
    # find builds Context(s, p) from the term it reached, never reading the
    # subterm at p; it must be the context from_term gives s[p <- hole].
    rng = random.Random(43)
    for _ in range(300):
        s = genlib.random_term(rng, depth=rng.randint(0, 4))
        p = rng.choice(list(positions(s)))
        lazy, holed = Context(s, p), Context.from_term(replace_at(s, p, HOLE))
        assert lazy == holed and hash(lazy) == hash(holed)
        assert (str(lazy), repr(lazy)) == (str(holed), repr(holed))
        texts = {
            certificates_to_json([LoopCertificate(s, ((((), 0),),), c, EMPTY_SUBSTITUTION)])
            for c in (Context(s, p), holed)
        }
        assert len(texts) == 1
        t = genlib.random_term(rng, depth=2)
        mu = genlib.random_substitution(rng)
        assert lazy.plug(t) is holed.plug(t)
        for u in (s, lazy.plug(t), genlib.random_term(rng)):
            for w in (t, subterm_at(s, p)):
                assert lazy.plugs_to(w, u) == holed.plugs_to(w, u)
        assert lazy.plugs_to(subterm_at(s, p), s)
        assert lazy.substitute(mu) == holed.substitute(mu)
        for cut in range(len(p) + 1):
            assert lazy.subcontext(p[:cut]) == holed.subcontext(p[:cut])
        for c in (Context(s, p), holed):
            for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
                assert clone == holed and hash(clone) == hash(holed)
                assert clone.plug(HOLE) is holed.plug(HOLE) and clone.hole_pos == p


def test_derived_contexts_keep_one_hole_at_hole_pos():
    # substitute and subcontext pass on a hole position without walking the
    # term again; count the holes in the term of every context they build.
    from loopcert import HOLE

    rng = random.Random(37)
    for _ in range(400):
        c = genlib.random_context(rng, depth=rng.randint(0, 4))
        mu = genlib.random_substitution(rng)
        for base in (c, c.substitute(mu)):
            derived = [base.substitute(mu)]
            derived += [
                base.subcontext(base.hole_pos[:cut])
                for cut in range(len(base.hole_pos) + 1)
            ]
            for d in derived:
                holes = [p for p in positions(d.term) if subterm_at(d.term, p) == HOLE]
                assert holes == [d.hole_pos]


def test_apply_context_substitution_examples(factorial, stream):
    inf_c = Context.from_term(parse_term("cons(x,[])", stream, allow_hole=True))
    inf_mu = Substitution({"x": app("s", v("x"))})
    assert apply_context_substitution(parse_term("inf(x)", stream), inf_c, inf_mu, 2) == (
        parse_term("cons(x,cons(s(x),inf(s(s(x)))))", stream)
    )

    empty = Context.from_term(parse_term("[]", factorial, allow_hole=True))
    rename = Substitution({"x": v("y")})
    t = parse_term("fact(x,y)", factorial)
    assert apply_context_substitution(t, empty, rename, 1) == apply_substitution(
        t, rename, 1
    )

    fact_c = Context.from_term(parse_term("times([],s(x))", factorial, allow_hole=True))
    fact_mu = Substitution({"x": app("s", v("x"))})
    assert apply_context_substitution(t, fact_c, fact_mu, 1) == parse_term(
        "times(fact(s(x),y),s(x))", factorial
    )
    assert apply_context_substitution(t, fact_c, fact_mu, 0) == t


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
    """t rebuilt by a constructor call per node."""
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
    assert term_size(copy_of(t)) == term_size(t)


@given(term_st)
def test_equal_terms_are_one_node(t):
    assert copy_of(t) is t


def test_deep_terms_are_one_node_with_their_size():
    # Past the depth that any recursive walk reaches, equality, hashing and
    # the node count still read one node.
    def tower(n):
        t = v("x")
        for _ in range(n):
            t = app("g", app("a"), t)
        return t

    t, u = tower(3000), tower(3000)
    assert t is u and t == u and hash(t) == hash(u)
    assert term_size(t) == sum(1 for _ in positions(t)) == 6001


@given(term_st)
def test_copied_and_unpickled_terms_are_the_term_itself(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_a_term_leaves_the_table_with_its_last_reference():
    before = len(terms._table)
    t = app("fresh", v("fresh_x"), app("fresh_c"))
    assert len(terms._table) == before + 3
    del t
    assert len(terms._table) == before


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
