"""Exception types shared across the package."""


class OneMotivesError(Exception):
    """Base class for every package-specific failure."""


class DivisionByZero(OneMotivesError, ZeroDivisionError):
    """Division by an exact p-adic zero."""


class PrecisionExhausted(OneMotivesError):
    """A structural decision (pivot, rank, dimension) could not be settled
    at the working precision."""


class NonSimpleRoot(OneMotivesError):
    """Hensel lifting requires a root that is simple modulo p."""


class ZeroPolynomial(OneMotivesError):
    """Newton polygons are undefined for the zero polynomial."""


class NonSquare(OneMotivesError):
    """The operation requires a square matrix."""


class ContextMismatch(OneMotivesError):
    """Operands live over different p-adic contexts."""


class HasseViolation(OneMotivesError):
    """A Frobenius trace violates the bound t^2 <= 4q."""


class ModeMismatch(OneMotivesError):
    """The requested Hodge-line mode is incompatible with the trace."""


class NonSplitExtension(OneMotivesError):
    """The two-block extension cannot be block-diagonalized."""


class ClosureFailure(OneMotivesError):
    """An endomorphism span failed one of its algebra checks.  This signals
    an internal bug: the solution space of the commutation-plus-filtration
    system is always closed under composition and contains the identity."""


class VerificationFailure(OneMotivesError):
    """An exact self-check of a computed answer failed.  This signals an
    internal bug, not a precision problem: more digits cannot fix it."""


class UnclassifiedShape(OneMotivesError):
    """The computed endomorphism algebra matches none of the known case
    shapes.  Reported as-is, never silently coerced."""
