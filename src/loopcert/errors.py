"""Exception types shared across the package."""


class LoopcertError(Exception):
    """Base class for all errors raised by this package.  An error in input
    text ends its message with its 1-based line and column, kept as .line and
    .col; other errors have None for both."""

    def __init__(self, message, line=None, col=None):
        where = "" if line is None else f" (line {line}, column {col})"
        super().__init__(message + where)
        self.line = line
        self.col = col


class InternalError(RuntimeError):
    """A result failed an internal consistency check: a bug, never bad input."""


class PositionOutOfTerm(LoopcertError):
    """A position does not exist in the term it was used on."""


class MalformedContext(LoopcertError):
    """A context body does not contain exactly one hole."""


class NotARedex(LoopcertError):
    """A rule was applied at a position where its left-hand side does not match."""


class NotParallel(LoopcertError):
    """Positions of a parallel step are not pairwise parallel (or the step is empty)."""


class ClosingMismatch(LoopcertError):
    """Replaying a certificate does not end in start(C, mu)."""

    def __init__(self, expected, actual):
        super().__init__(f"loop does not close: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual

    def __reduce__(self):
        # Exception.__reduce__ would call ClosingMismatch(message), one argument short.
        return type(self), (self.expected, self.actual), self.__dict__


class ShapeMismatch(LoopcertError):
    """A single-step strategy was asked about a certificate with parallel steps."""


class VariableRedex(LoopcertError):
    """The reduced subterm is a variable, which well-formed rules never allow."""


class ArityMismatch(LoopcertError):
    """A symbol is used with inconsistent arities, or clashes with a variable name."""


class VariableLhs(LoopcertError):
    """A rewrite rule has a bare variable as its left-hand side."""


class ExtraRhsVariable(LoopcertError):
    """A rewrite rule's right-hand side uses a variable missing from the left."""


class RuleIndexOutOfRange(LoopcertError):
    """A certificate refers to a rule index the system does not have."""


class ParseError(LoopcertError):
    """Input text is not well-formed."""
