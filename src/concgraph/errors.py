"""Exception types shared across the package."""


class ConcgraphError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ConcgraphError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(ConcgraphError, ValueError):
    """Input data could not be parsed or fails basic validation."""


class DegenerateEdge(ConcgraphError):
    """The fixed off-edge entries admit no positive-definite completion."""


class NotPositiveDefinite(ConcgraphError):
    """A matrix required to be positive definite is not."""


class InsufficientSample(ConcgraphError):
    """Too few observations for the requested inference (needs n > N)."""


class ConvergenceError(ConcgraphError, ArithmeticError):
    """An iterative evaluation of a special function did not converge."""
