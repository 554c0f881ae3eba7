"""First-order terms, positions, substitutions, contexts.

Terms are immutable trees built from variables and function applications,
hash-consed so that equal terms are one object and equality is identity.
Positions address subterms as tuples of 1-based argument indices; the empty
tuple is the root.  A substitution maps finitely many variable names to
terms and can be applied in powers.  A context is a term with one hole,
kept as a term and the hole's position; the term's subterm there is never
read, and the reserved hole symbol ``[]`` is plugged in to compare or print
the context.  A context C and a substitution mu together act on a term t by

    t(C, mu)^0     = t
    t(C, mu)^(n+1) = C[ t(C, mu)^n mu ]

which is the closed form of pumping one loop iteration.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from operator import attrgetter
from weakref import KeyedRef

from .errors import MalformedContext, PositionOutOfTerm

HOLE_SYMBOL = "[]"


# The one live node of each term, by key: a variable's name, or an
# application's (symbol, args) of nodes, which hashes and compares in
# O(arity).  Entries are weak: a node leaves with its last reference.
_table: dict = {}


def _forget(entry: KeyedRef, table: dict = _table) -> None:
    # A node built later under the same key may already own the entry.
    if table.get(entry.key) is entry:
        del table[entry.key]


class Variable:
    """A variable.  Terms are immutable once built: never assign to one."""

    __slots__ = ("name", "__weakref__")
    _size = 1

    def __new__(cls, name: str):
        entry = _table.get(name)
        node = entry and entry()
        if node is None:
            node = object.__new__(cls)
            node.name = name
            _table[name] = KeyedRef(node, _forget, name)
        return node

    def __reduce__(self):
        return Variable, (self.name,)

    def __repr__(self) -> str:
        return f"Variable(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Application:
    """A function symbol applied to argument terms, with its node count."""

    __slots__ = ("symbol", "args", "_size", "__weakref__")

    def __new__(cls, symbol: str, args: tuple["Term", ...] = ()):
        key = (symbol, args)
        entry = _table.get(key)
        node = entry and entry()
        if node is None:
            node = object.__new__(cls)
            node.symbol = symbol
            node.args = args
            size = 1
            for a in args:
                size += a._size
            node._size = size
            _table[key] = KeyedRef(node, _forget, key)
        return node

    def __reduce__(self):
        # Copies and unpickled terms are looked up in the table too.
        return Application, (self.symbol, self.args)

    def __repr__(self) -> str:
        return f"Application(symbol={self.symbol!r}, args={self.args!r})"

    def __str__(self) -> str:
        # An explicit stack of terms and punctuation, so any depth renders.
        out: list[str] = []
        stack: list = [self]
        while stack:
            u = stack.pop()
            if u.__class__ is not Application:
                out.append(u if u.__class__ is str else u.name)
            elif not u.args:
                out.append(u.symbol)
            else:
                out.append(u.symbol + "(")
                stack.append(")")
                for a in reversed(u.args[1:]):
                    stack += (a, ",")
                stack.append(u.args[0])
        return "".join(out)


Term = Variable | Application

Position = tuple[int, ...]
EPSILON: Position = ()

HOLE = Application(HOLE_SYMBOL, ())


def format_position(p: Position) -> str:
    """Dot-separated rendering; the root position prints as ``eps``."""
    return ".".join(str(i) for i in p) if p else "eps"


def is_left_of(p: Position, q: Position) -> bool:
    """p and q diverge, and p takes the smaller argument index where they do."""
    for a, b in zip(p, q):
        if a != b:
            return a < b
    return False


def are_parallel(p: Position, q: Position) -> bool:
    n = min(len(p), len(q))
    return p[:n] != q[:n]


def is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def is_strict_prefix(p: Position, q: Position) -> bool:
    return len(p) < len(q) and q[: len(p)] == p


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """(position, subterm) pairs of t in preorder, left to right."""
    stack = [(EPSILON, t)]
    while stack:
        p, u = stack.pop()
        yield p, u
        if isinstance(u, Application):
            for i in range(len(u.args), 0, -1):
                stack.append((p + (i,), u.args[i - 1]))


def positions(t: Term) -> Iterator[Position]:
    """All positions of t in preorder, left to right."""
    return (p for p, _ in subterms(t))


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, Application) or not 1 <= i <= len(t.args):
            raise PositionOutOfTerm(f"no position {format_position(p)} in {t}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    spine = []
    for k, i in enumerate(p):
        if not isinstance(t, Application) or not 1 <= i <= len(t.args):
            raise PositionOutOfTerm(f"no position {format_position(p[k:])} in {t}")
        spine.append((t, i))
        t = t.args[i - 1]
    for u, i in reversed(spine):
        s = Application(u.symbol, u.args[: i - 1] + (s,) + u.args[i:])
    return s


def variables_of(t: Term) -> frozenset[str]:
    if isinstance(t, Variable):
        return frozenset((t.name,))
    out: set[str] = set()
    stack = list(t.args)
    while stack:
        u = stack.pop()
        if isinstance(u, Variable):
            out.add(u.name)
        else:
            stack.extend(u.args)
    return frozenset(out)


def term_size(t: Term) -> int:
    """Node count, set when the node is built."""
    return t._size


class Value:
    """A value: equality, hashing and repr go by the fields a subclass names
    in _fields and sets in __init__.  Immutable once built: never assign to one."""

    __slots__ = ()

    def __init_subclass__(cls):
        # The field values of an instance (a tuple, or the value of one field).
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Substitution(Value):
    """Finite mapping from variable names to terms.

    Identity bindings are dropped on construction, so two substitutions are
    equal exactly when they act identically on every term.
    """

    __slots__ = ("bindings", "_map")
    _fields = ("bindings",)

    def __init__(self, mapping: Mapping[str, Term] | None = None):
        kept = {
            x: u
            for x, u in (mapping or {}).items()
            if u.__class__ is not Variable or u.name != x
        }
        self.bindings = tuple(sorted(kept.items()))
        self._map = kept

    def get(self, name: str) -> Term | None:
        return self._map.get(name)

    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def items(self) -> tuple[tuple[str, Term], ...]:
        return self.bindings

    def apply(self, t: Term) -> Term:
        """t with every variable replaced by its image, walked on an explicit
        stack so any depth works; t itself when no variable of t is bound,
        since terms are hash-consed."""
        get = self._map.get
        if t.__class__ is Variable:
            return get(t.name, t)
        if not t.args:
            return t
        stack = [(t.symbol, iter(t.args), [])]
        while True:
            symbol, rest, done = stack[-1]
            for a in rest:
                if a.__class__ is Variable:
                    done.append(get(a.name, a))
                elif a.args:
                    stack.append((a.symbol, iter(a.args), []))
                    break
                else:
                    done.append(a)
            else:
                stack.pop()
                image = Application(symbol, tuple(done))
                if not stack:
                    return image
                stack[-1][2].append(image)

    def __str__(self) -> str:
        inner = ", ".join(f"{x}/{u}" for x, u in self.bindings)
        return "{" + inner + "}"


EMPTY_SUBSTITUTION = Substitution()


def apply_substitution(t: Term, mu: Substitution, n: int = 1) -> Term:
    """t mu^n for n >= 0."""
    if n < 0:
        raise ValueError("substitution power must be nonnegative")
    for _ in range(n):
        t = mu.apply(t)
    return t


def variable_closure(t: Term, mu: Substitution) -> frozenset[str]:
    """Smallest variable set containing V(t) and closed under x -> V(x mu).

    The closure is what a pumped instance t mu^n can ever mention, so it is
    the right index set when scanning substitution images for redexes.
    """
    out = set(variables_of(t))
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        img = mu.get(x)
        if img is None:
            continue
        for y in variables_of(img):
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


class Context:
    """A term with exactly one hole, kept as a term and the hole position:
    the subterm of *term* at hole_pos is never read, so Context(s, p) needs
    no holed copy of s.  Equality, hashing, str and repr are those of the
    holed term plug(HOLE) and hole_pos, built on each call and not kept.
    Context(term, hole_pos) trusts its caller; from_term is the checked
    constructor.  Immutable once built: never assign to one."""

    __slots__ = ("term", "hole_pos")

    def __init__(self, term: Term, hole_pos: Position):
        self.term = term
        self.hole_pos = hole_pos

    @staticmethod
    def from_term(body: Term) -> "Context":
        holes = [p for p, u in subterms(body) if u == HOLE]
        if len(holes) != 1:
            raise MalformedContext(f"context must contain exactly one hole: {body}")
        return Context(body, holes[0])

    def plug(self, t: Term) -> Term:
        return replace_at(self.term, self.hole_pos, t)

    def plugs_to(self, t: Term, u: Term) -> bool:
        """Whether self.plug(t) is u, walking the hole position of the term
        and u together instead of building the plugged term.  Below a node
        where the two walks meet one object, as they do from the root for
        every certificate find emits (Context(u, p)), only u|p is left to
        compare: terms are hash-consed, so u[p <- t] is u exactly when t is
        u|p."""
        term = self.term
        for i in self.hole_pos:
            if term is not u and (
                u.__class__ is not Application
                or u.symbol != term.symbol
                or len(u.args) != len(term.args)
                or u.args[: i - 1] != term.args[: i - 1]
                or u.args[i:] != term.args[i:]
            ):
                return False
            term, u = term.args[i - 1], u.args[i - 1]
        return u is t

    def substitute(self, mu: Substitution) -> "Context":
        # mu keeps every position; the unread subterm's image is never read.
        return Context(mu.apply(self.term), self.hole_pos)

    def subcontext(self, p: Position) -> "Context":
        """C restricted to its subterm at p, which must still contain the hole."""
        if not is_prefix(p, self.hole_pos):
            raise MalformedContext(
                f"subterm at {format_position(p)} does not contain the hole"
            )
        return Context(subterm_at(self.term, p), self.hole_pos[len(p):])

    def __eq__(self, other) -> bool:
        if other.__class__ is not Context:
            return NotImplemented
        return self.hole_pos == other.hole_pos and self.plug(HOLE) is other.plug(HOLE)

    def __hash__(self) -> int:
        return hash((self.plug(HOLE), self.hole_pos))

    def __reduce__(self):
        return Context, (self.term, self.hole_pos)

    def __repr__(self) -> str:
        return f"Context(term={self.plug(HOLE)!r}, hole_pos={self.hole_pos!r})"

    def __str__(self) -> str:
        return str(self.plug(HOLE))


def apply_context_substitution(t: Term, c: Context, mu: Substitution, n: int) -> Term:
    """t(C, mu)^n."""
    if n < 0:
        raise ValueError("context-substitution power must be nonnegative")
    for _ in range(n):
        t = c.plug(mu.apply(t))
    return t
