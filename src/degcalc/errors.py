"""Exception hierarchy shared across the package."""


class DegcalcError(Exception):
    """Base class for all package errors."""


class ExponentError(DegcalcError, ValueError):
    """An exponent is nan or +/-inf, on which endpoint limits never end."""


class EndpointEvalError(DegcalcError):
    """Pointwise evaluation requested at a domain endpoint; use the limit instead."""


class PreconditionError(DegcalcError):
    """A mathematical precondition is violated (a weight that is not positive
    or not real, non-complete weight, non-elliptic operator, unbounded
    reduced potential, a point outside a deformation chart's window,
    operands on different domains, a closed form contradicted by its
    numeric check, ...)."""


class CompositionError(DegcalcError):
    """Groupoid elements are not composable; carries the mismatch distance."""

    def __init__(self, message, mismatch):
        super().__init__(message)
        self.mismatch = mismatch


class ConvergenceError(DegcalcError):
    """An iterative solver failed to converge, or a numeric inversion of a
    flow's monotone map found no point to return."""


class ConfigError(DegcalcError):
    """Malformed run configuration."""
