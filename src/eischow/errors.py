"""Domain errors shared by all eischow modules.

Every error carries a stable class name that the CLI reports verbatim as a
machine-readable code.
"""


class EischowError(Exception):
    """Base class for all domain errors raised by this package."""


class NonSquarefree(EischowError):
    """The level N has a square factor."""


class LevelTooLarge(EischowError):
    """The level exceeds gamma0.MAX_LEVEL, the largest level factored."""


class NotADivisor(EischowError):
    """The given prime does not divide the level."""


class PrecisionUnreachable(EischowError):
    """The internal series cannot certify the requested error bound."""


class DegenerateGenus(EischowError):
    """A genus-dependent denominator g - 2*g_{N/p} + 1 vanishes, or g = 0."""


class BasisMismatch(EischowError):
    """Two objects do not share the same Eisenstein basis."""


class BadHeckePrime(EischowError):
    """l is not prime or divides the level."""


class OutsideDomain(EischowError):
    """A partial operator was applied outside its domain of definition."""


class BadInvolutionParam(EischowError):
    """d is not an admissible Atkin-Lehner parameter for the level."""


class FractionalLeadingPower(EischowError):
    """The eta quotient's leading q-power is not a positive integer."""


class PrecisionTooSmall(EischowError):
    """Not enough q-expansion coefficients for the requested operation."""


class LevelNotCoprimeTo6(EischowError):
    """The level shares a factor with 6."""


class ParseError(EischowError):
    """An input file does not match the documented schema."""


class InvariantViolation(EischowError):
    """Ingested coefficient data violates a structural invariant.

    The attribute ``index`` holds the first offending coefficient index.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InsufficientCoefficients(EischowError):
    """The coefficient list is too short for the certified tail bound.

    The attribute ``required`` holds the number of coefficients that would
    suffice.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class WrongSign(EischowError):
    """The functional-equation sign does not permit the requested quantity."""


class NegativeHeightBeyondTolerance(EischowError):
    """A height came out negative beyond numerical tolerance."""


class QuadratureNotConverged(EischowError):
    """Doubling the quadrature order still moves the result too much."""


class BoundaryNonVanishing(EischowError):
    """A function required to vanish on the boundary circle does not."""
