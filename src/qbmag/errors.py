"""Exception types shared across the package."""


class QbmagError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QbmagError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation exactly at (or numerically indistinguishable from) a pole."""


class RangeError(QbmagError, OverflowError):
    """Result or intermediate exceeds double-precision range."""


class ConvergenceError(QbmagError, RuntimeError):
    """An iterative scheme (quadrature tail, series) failed to stabilise."""


class UnsupportedFormError(QbmagError, ValueError):
    """No closed form is available for the requested combination."""


class DegenerateSystemError(DomainError):
    """System parameters leave the mode constants undefined."""
