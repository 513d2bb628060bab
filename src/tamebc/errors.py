"""Exception hierarchy shared by all tamebc modules.

Every failure mode of the library raises a subclass of ``DomainError``
whose class name is the stable, documented error name (the CLI prints
it verbatim on stderr).
"""


class DomainError(Exception):
    """Base class for all tamebc domain errors."""


class ConfigMismatch(DomainError):
    """Operands live over different valuation-ring configurations."""


class NonUnitDivisor(DomainError):
    """Division requested by an element of positive valuation."""


class CongruenceViolation(DomainError):
    """Tame level d shares a factor with the extension degree n."""


class PrecisionExhausted(DomainError):
    """A required valuation reaches the truncation order N."""


class SpecInvariantViolation(DomainError):
    """Input data violates a structural invariant of its type."""


class NotPurelyWild(DomainError):
    """Degree is not a positive power of the residue characteristic."""


class BadDivisor(DomainError):
    """Integer is not a tame divisor of the stabilization index."""


class NonIntegralExponent(DomainError):
    """A denominator exponent that must be integral is not."""


class UniquenessViolated(DomainError):
    """Denominator factors disagree on the candidate pole a/b."""


class NoPole(DomainError):
    """Pole report requested for a rational function with no pole."""


class NotEquivariant(DomainError):
    """Lattice map does not commute with the group action."""


class DegreeBound(DomainError):
    """Polynomial degree exceeds the configured slice bound D."""


class SpecFileError(DomainError):
    """Structured-text spec file is malformed or has unknown keys."""
