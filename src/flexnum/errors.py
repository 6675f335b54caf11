"""Exception hierarchy shared across the library."""


class FlexError(Exception):
    """Base class for every error raised by flexnum."""


class DivisionByNeutrix(FlexError):
    """Divisor contains zero (is not zeroless); no reciprocal exists."""


class UnrepresentableDivision(FlexError):
    """The exact quotient has no finite series representation.

    Happens when the divisor's representative has more than one term and the
    result's neutrix is too small ({0} or the microhalo) to absorb the tail
    of the series inverse.
    """


class ZerolessRequired(FlexError):
    """An operation needs a zeroless external number and got one containing 0."""


class EvalDomain(FlexError):
    """Pointwise evaluation left the representable domain."""


class Unnormalizable(FlexError):
    """The term lies outside the decidable fragment of the sequence grammar."""


class HypothesisUnverified(FlexError):
    """A theorem's hypothesis could not be established for the given inputs."""


class NumericOverflow(FlexError):
    """A sampled path left the range of double precision or became not a
    number, or a neutrix's interval is too wide for a double."""


class ContractionRequired(FlexError):
    """The affine coefficient is not appreciably below 1 in absolute value."""


class FullNotConcretizable(FlexError):
    """The full real line has no finite interval model."""


class IndexBeyondPrefix(FlexError):
    """A shadow-expansion check was requested past the stored prefix."""


class NotAttractive(FlexError):
    """Sign sampling refuted attractivity of the slow curve."""


class StepUnstable(FlexError):
    """Integrator step too large relative to the stiffness scale."""


class ResultTooLarge(FlexError):
    """A rational in a result has too many digits to print."""


class ParseError(FlexError):
    """Source text rejected by the expression parser."""

    def __init__(self, message, position=None, expected=None, source=None):
        super().__init__(message)
        self.position = position
        self.expected = expected
        self.source = source

    def __str__(self):
        base = super().__str__()
        if self.position is None:
            return base
        loc = f" at position {self.position}"
        exp = f" (expected {self.expected})" if self.expected else ""
        if self.source:
            caret = "\n  " + self.source + "\n  " + " " * self.position + "^"
        else:
            caret = ""
        return base + loc + exp + caret
