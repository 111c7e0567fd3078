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


class DegenerateBoundError(GaussSepError):
    """Closed-form bound is undefined because its denominator is degenerate.

    Raised as ``DegenerateBoundError(what, d, d_p, n1)``: the bound's name
    and the state's d, d' and n1.  The message is formatted from them only
    when it is read.
    """

    def __str__(self):
        what, d, d_p, n1 = self.args
        return f"no {what}: d = {d:.3e}, d' = {d_p:.3e}, n1 = {float(n1)}"


class DomainError(GaussSepError):
    """Input lies outside the domain of a transform prescription."""

    exit_code = 4


class PrescriptionInapplicableError(DomainError):
    """The invariant-form reduction prescription does not produce the target pattern.

    Raised as ``PrescriptionInapplicableError(form, residual, tol)``: the
    target form, the residual of the failed reduction, carried in
    ``residual``, and the tolerance it exceeds.  The message is formatted
    from them only when it is read.
    """

    @property
    def residual(self):
        return self.args[1]

    def __str__(self):
        form, residual, tol = self.args
        return (f"reduction to {form} failed: residual {residual:.3e} exceeds"
                f" {tol:.1e} x max(1, sqrt(|B_ii| |B_jj|))")


class SamplingBudgetError(GaussSepError):
    """Rejection sampler exhausted its draw budget."""
