"""Loop certificates and their validation.

A certificate names a start term t1, a list of (possibly parallel) rewrite
steps, and a closing pair (C, mu) with t_{m+1} = t1(C, mu).  Once validated,
the loop can be unrolled: iteration n runs the same step sequence inside n
nested copies of C, with every position prefixed by p^n for p the hole
position of C.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ClosingMismatch,
    MalformedContext,
    NotARedex,
    NotParallel,
    RuleIndexOutOfRange,
)
from .rewriting import Trs, parallel_rewrite
from .terms import (
    HOLE,
    Context,
    Position,
    Substitution,
    Term,
    apply_context_substitution,
    subterms,
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
        # An image of mu with a hole would leave stray holes in t(C, mu)^n.
        if any(s == HOLE for _, u in self.subst.items() for _, s in subterms(u)):
            raise MalformedContext("substitution image contains a hole")
        # Fix an order inside each parallel step so replay is deterministic.
        object.__setattr__(
            self, "steps", tuple(tuple(sorted(step)) for step in self.steps)
        )

    def is_sequential(self) -> bool:
        return all(len(step) == 1 for step in self.steps)


@dataclass(frozen=True)
class ValidatedLoop:
    """A certificate together with the replayed terms t1 .. t_{m+1}."""

    certificate: LoopCertificate
    terms: tuple[Term, ...]


def validate_loop(
    trs: Trs,
    cert: LoopCertificate,
    replayed: dict[tuple[Step, ...], tuple[Term, ...]] | None = None,
) -> ValidatedLoop:
    """Replay the certificate and check the closing equation.

    *replayed* maps step sequences, replayed from one start term, to their
    terms t1 .. t_{k+1}.  Replay resumes after the longest prefix of the
    steps found there, and every prefix it replays is added.  Its keys leave
    the start out, so one map must serve certificates of a single start.
    """
    steps = cert.steps
    terms = [cert.start]
    if replayed is not None:
        for k in range(len(steps), 0, -1):
            prior = replayed.get(steps[:k])
            if prior is not None:
                terms = list(prior)
                break
    for i in range(len(terms) - 1, len(steps)):
        try:
            terms.append(parallel_rewrite(terms[-1], steps[i], trs))
        except (NotARedex, NotParallel, RuleIndexOutOfRange) as e:
            raise type(e)(f"step {i + 1}: {e}") from None
        if replayed is not None:
            replayed[steps[: i + 1]] = tuple(terms)
    expected = apply_context_substitution(cert.start, cert.context, cert.subst, 1)
    if terms[-1] != expected:
        raise ClosingMismatch(expected, terms[-1])
    return ValidatedLoop(cert, tuple(terms))


@dataclass(frozen=True)
class UnrolledDerivation:
    terms: tuple[Term, ...]
    steps: tuple[Step, ...]


def unroll_loop(loop: ValidatedLoop, n: int) -> UnrolledDerivation:
    """Iteration n of the loop: terms t_i(C, mu)^n, positions prefixed by p^n."""
    if n < 0:
        raise ValueError("unroll level must be nonnegative")
    cert = loop.certificate
    prefix = cert.context.hole_pos * n
    terms = tuple(
        apply_context_substitution(t, cert.context, cert.subst, n) for t in loop.terms
    )
    steps = tuple(tuple((prefix + q, i) for q, i in step) for step in cert.steps)
    return UnrolledDerivation(terms, steps)
