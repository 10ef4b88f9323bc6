"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so solver code should raise the most
specific class that applies.
"""


class LpmaxError(Exception):
    """Base class for all package errors."""


class ShapeError(LpmaxError, ValueError):
    """Dimension / length mismatch between tensors and vectors."""


class DomainError(LpmaxError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateInputError(DomainError):
    """Structurally valid input on which the operation is undefined (e.g. a zero block)."""


class ResourceLimitError(LpmaxError, RuntimeError):
    """A hard size/budget gate was exceeded."""


class BoundViolationError(LpmaxError, RuntimeError):
    """A computed result breaks a guarantee that the theory proves for it."""


class ConvergenceError(LpmaxError, RuntimeError):
    """Iteration cap hit before the stopping rule; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
