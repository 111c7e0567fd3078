"""Exception hierarchy for the gausssep package.

Each class carries the CLI exit code of its failures in ``exit_code``, and
subclasses inherit theirs: 2 for unreadable input or output (``ParseError``),
3 for invalid parameters or matrices, 4 for a domain error, and 5, an
internal assertion, for every other package error.
"""


class GaussSepError(Exception):
    """Base class for all package errors."""

    exit_code = 5


class ParseError(GaussSepError):
    """Input or output that cannot be read, parsed or written."""

    exit_code = 2


class InvalidParameterError(GaussSepError):
    """Parameter set violates a construction invariant (e.g. negative occupation)."""

    exit_code = 3


class StructuralError(GaussSepError):
    """Matrix input violates a structural requirement (Hermiticity, shape)."""

    exit_code = 3


class SingularBlockError(GaussSepError):
    """Upper-left block of a Schur decomposition is numerically singular."""


class DegenerateBoundError(GaussSepError):
    """Closed-form bound is undefined because its denominator is degenerate."""


class DomainError(GaussSepError):
    """Input lies outside the domain of a transform prescription."""

    exit_code = 4


class PrescriptionInapplicableError(DomainError):
    """The invariant-form reduction prescription does not produce the target pattern.

    Carries the residual of the failed reduction in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class SamplingBudgetError(GaussSepError):
    """Rejection sampler exhausted its draw budget."""
