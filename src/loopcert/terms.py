"""First-order terms, positions, substitutions, contexts.

Terms are immutable trees built from variables and function applications.
Positions address subterms as tuples of 1-based argument indices; the empty
tuple is the root.  A substitution maps finitely many variable names to
terms and can be applied in powers.  A context is a term containing exactly
one occurrence of the reserved hole symbol ``[]``.  A context C and a
substitution mu together act on a term t by

    t(C, mu)^0     = t
    t(C, mu)^(n+1) = C[ t(C, mu)^n mu ]

which is the closed form of pumping one loop iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import MalformedContext, PositionOutOfTerm

HOLE_SYMBOL = "[]"


class Variable:
    """A variable.  Terms are immutable once built: never assign to one."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not Variable:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Variable(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Application:
    """A function symbol applied to argument terms.

    Equality is structural.  The hash and the node count are computed on
    first use and cached on the node, so hashing a term built from hashed
    subterms, or comparing two terms whose hashes differ, costs O(arity).
    """

    __slots__ = ("symbol", "args", "_hash", "_size")

    def __init__(self, symbol: str, args: tuple["Term", ...] = ()):
        self.symbol = symbol
        self.args = args
        self._hash = None
        self._size = 0

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Application:
            return NotImplemented
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return self.symbol == other.symbol and self.args == other.args

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.symbol, self.args))
        return h

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


Term = Union[Variable, Application]

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
    """Node count; cached on the term, so O(1) after the first call."""
    if isinstance(t, Variable):
        return 1
    n = t._size
    if not n:
        n = t._size = 1 + sum(map(term_size, t.args))
    return n


@dataclass(frozen=True)
class Substitution:
    """Finite mapping from variable names to terms.

    Identity bindings are dropped on construction, so two substitutions are
    equal exactly when they act identically on every term.
    """

    bindings: tuple[tuple[str, Term], ...]
    _map: Mapping[str, Term] = field(compare=False, repr=False, hash=False, default=None)

    def __init__(self, mapping: Mapping[str, Term] | None = None):
        kept = {
            x: u
            for x, u in (mapping or {}).items()
            if u.__class__ is not Variable or u.name != x
        }
        object.__setattr__(self, "bindings", tuple(sorted(kept.items())))
        object.__setattr__(self, "_map", kept)

    def get(self, name: str) -> Term | None:
        return self._map.get(name)

    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def items(self) -> tuple[tuple[str, Term], ...]:
        return self.bindings

    def apply(self, t: Term) -> Term:
        """t with every variable replaced by its image; t itself when no
        variable of t is bound, so untouched subterms keep their cached facts."""
        if isinstance(t, Variable):
            return self._map.get(t.name, t)
        if not t.args:
            return t
        args = tuple(map(self.apply, t.args))
        for a, b in zip(args, t.args):
            if a is not b:
                return Application(t.symbol, args)
        return t

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


@dataclass(frozen=True)
class Context:
    """A term with exactly one hole, at hole_pos.  Context(body, hole_pos)
    trusts its caller; from_term is the checked constructor."""

    body: Term
    hole_pos: Position

    @staticmethod
    def from_term(body: Term) -> "Context":
        holes = [p for p, u in subterms(body) if u == HOLE]
        if len(holes) != 1:
            raise MalformedContext(f"context must contain exactly one hole: {body}")
        return Context(body, holes[0])

    def plug(self, t: Term) -> Term:
        return replace_at(self.body, self.hole_pos, t)

    def substitute(self, mu: Substitution) -> "Context":
        # A substitution image never contains the hole, so the position survives.
        return Context(mu.apply(self.body), self.hole_pos)

    def subcontext(self, p: Position) -> "Context":
        """C restricted to its subterm at p, which must still contain the hole."""
        if not is_prefix(p, self.hole_pos):
            raise MalformedContext(
                f"subterm at {format_position(p)} does not contain the hole"
            )
        return Context(subterm_at(self.body, p), self.hole_pos[len(p):])

    def __str__(self) -> str:
        return str(self.body)


def apply_context_substitution(t: Term, c: Context, mu: Substitution, n: int) -> Term:
    """t(C, mu)^n."""
    if n < 0:
        raise ValueError("context-substitution power must be nonnegative")
    for _ in range(n):
        t = c.plug(mu.apply(t))
    return t
