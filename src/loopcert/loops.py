"""Loop certificates and their validation.

A certificate names a start term t1, a list of (possibly parallel) rewrite
steps, and a closing pair (C, mu) with t_{m+1} = t1(C, mu).  Once validated,
the loop can be unrolled: iteration n runs the same step sequence inside n
nested copies of C, with every position prefixed by p^n for p the hole
position of C.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClosingMismatch, NotARedex, NotParallel, RuleIndexOutOfRange
from .rewriting import Trs, parallel_rewrite
from .terms import (
    Context,
    ContextSubstitution,
    Position,
    Substitution,
    Term,
    apply_context_substitution,
)

# One step contracts one or more parallel redexes: ((position, rule index), ...).
Step = tuple[tuple[Position, int], ...]


@dataclass(frozen=True)
class LoopCertificate:
    start: Term
    steps: tuple[Step, ...]
    context: Context
    subst: Substitution

    def __post_init__(self):
        if not self.steps:
            raise NotParallel("a certificate needs at least one step")
        # Fix an order inside each parallel step so replay is deterministic.
        object.__setattr__(
            self, "steps", tuple(tuple(sorted(step)) for step in self.steps)
        )

    def closing(self) -> ContextSubstitution:
        return ContextSubstitution(self.context, self.subst)

    def is_sequential(self) -> bool:
        return all(len(step) == 1 for step in self.steps)


@dataclass(frozen=True)
class ValidatedLoop:
    """A certificate together with the replayed terms t1 .. t_{m+1}."""

    certificate: LoopCertificate
    terms: tuple[Term, ...]
    p: Position


def validate_loop(trs: Trs, cert: LoopCertificate) -> ValidatedLoop:
    """Replay the certificate and check the closing equation."""
    terms = [cert.start]
    for i, step in enumerate(cert.steps, start=1):
        try:
            terms.append(parallel_rewrite(terms[-1], step, trs))
        except (NotARedex, NotParallel, RuleIndexOutOfRange) as e:
            raise type(e)(f"step {i}: {e}") from None
    expected = apply_context_substitution(cert.start, cert.closing(), 1)
    if terms[-1] != expected:
        raise ClosingMismatch(expected, terms[-1])
    return ValidatedLoop(cert, tuple(terms), cert.context.hole_pos)


@dataclass(frozen=True)
class UnrolledDerivation:
    terms: tuple[Term, ...]
    steps: tuple[Step, ...]


def unroll_loop(loop: ValidatedLoop, n: int) -> UnrolledDerivation:
    """Iteration n of the loop: terms t_i(C, mu)^n, positions prefixed by p^n."""
    if n < 0:
        raise ValueError("unroll level must be nonnegative")
    cs = loop.certificate.closing()
    prefix = loop.p * n
    terms = tuple(apply_context_substitution(t, cs, n) for t in loop.terms)
    steps = tuple(
        tuple((prefix + q, i) for q, i in step) for step in loop.certificate.steps
    )
    return UnrolledDerivation(terms, steps)
