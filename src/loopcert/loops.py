"""Loop certificates and their validation.

A certificate names a start term t1, a list of (possibly parallel) rewrite
steps, and a closing pair (C, mu) with t_{m+1} = t1(C, mu).  Once validated,
the loop can be unrolled: level n runs the same step sequence inside n
nested copies of C, with every position prefixed by p^n for p the hole
position of C, and is again a loop closed by (C, mu).
"""

from __future__ import annotations

from .errors import (
    ClosingMismatch,
    MalformedContext,
    NotARedex,
    NotParallel,
    PositionOutOfTerm,
    RuleIndexOutOfRange,
)
from .rewriting import Trs, parallel_rewrite
from .terms import (
    HOLE,
    Application,
    Context,
    Position,
    Substitution,
    Term,
    Value,
    apply_context_substitution,
)

# One step contracts one or more parallel redexes: ((position, rule index), ...).
Step = tuple[tuple[Position, int], ...]


class LoopCertificate(Value):
    __slots__ = _fields = ("start", "steps", "context", "subst")

    def __init__(self, start: Term, steps: tuple[Step, ...], context: Context, subst: Substitution):
        if not steps:
            raise NotParallel("a certificate needs at least one step")
        # An image of mu with a hole would leave stray holes in t(C, mu)^n.
        stack = [u for _, u in subst.items()]
        while stack:
            u = stack.pop()
            if u is HOLE:
                raise MalformedContext("substitution image contains a hole")
            if u.__class__ is Application:
                stack += u.args
        # Fix an order inside each parallel step so replay is deterministic.
        if steps.__class__ is not tuple or not all(
            step.__class__ is tuple and (len(step) < 2 or list(step) == sorted(step))
            for step in steps
        ):
            steps = tuple(tuple(sorted(step)) for step in steps)
        self.start, self.steps, self.context, self.subst = start, steps, context, subst

    def is_sequential(self) -> bool:
        return all(len(step) == 1 for step in self.steps)


class ValidatedLoop(Value):
    """A certificate together with the replayed terms t1 .. t_{m+1}."""

    __slots__ = _fields = ("certificate", "terms")

    def __init__(self, certificate: LoopCertificate, terms: tuple[Term, ...]):
        self.certificate, self.terms = certificate, terms


def validate_loop(
    trs: Trs,
    cert: LoopCertificate,
    replayed: dict | None = None,
) -> ValidatedLoop:
    """Replay the certificate and check the closing equation.

    Each step is read from *replayed*, which maps (term, step) to the next
    term and (redex, rule index) to the contractum, so one map can serve any
    number of certificates and the search.  A step missing there runs
    through parallel_rewrite and all its checks, and is added.  The closing
    equation t_{m+1} = C[t1 mu] is checked for every certificate, along the
    hole position of C; C[t1 mu] is built only to report a mismatch.
    """
    if replayed is None:
        replayed = {}
    terms = [cert.start]
    for i, step in enumerate(cert.steps, start=1):
        t = terms[-1]
        u = replayed.get((t, step))
        if u is None:
            try:
                u = replayed[t, step] = parallel_rewrite(t, step, trs, replayed)
            except (NotARedex, NotParallel, PositionOutOfTerm, RuleIndexOutOfRange) as e:
                raise type(e)(f"step {i}: {e}") from None
        terms.append(u)
    if not cert.context.plugs_to(cert.subst.apply(cert.start), terms[-1]):
        expected = apply_context_substitution(cert.start, cert.context, cert.subst, 1)
        raise ClosingMismatch(expected, terms[-1])
    return ValidatedLoop(cert, tuple(terms))


def unroll_loop(loop: ValidatedLoop, n: int, below: ValidatedLoop | None = None) -> ValidatedLoop:
    """Level n: the loop closed by (C, mu) whose terms are t_i(C, mu)^n and
    whose positions are those of the certificate, prefixed by p^n.

    Given level n - 1 as *below*, each term is one pump t -> C[t mu] of its
    term there, instead of n pumps of t_i.
    """
    if n < 0:
        raise ValueError("unroll level must be nonnegative")
    cert = loop.certificate
    base, pumps = (loop.terms, n) if below is None else (below.terms, 1)
    terms = tuple(apply_context_substitution(t, cert.context, cert.subst, pumps) for t in base)
    prefix = cert.context.hole_pos * n
    steps = tuple(tuple((prefix + q, i) for q, i in step) for step in cert.steps)
    return ValidatedLoop(LoopCertificate(terms[0], steps, cert.context, cert.subst), terms)
