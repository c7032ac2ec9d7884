"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI lives in :mod:`tsvdkit.cli`; library code only
raises these types.
"""


class TsvdkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TsvdkitError):
    """Operands have incompatible orders or extents."""


class DataError(TsvdkitError):
    """Input values violate a contract (non-finite entries, data off the mask,
    mask entries outside {0, 1})."""


class NumericalError(TsvdkitError):
    """A numerical kernel failed: a slice SVD did not converge, or the
    transformed tensor it was given overflowed to non-finite values."""


class DivergenceError(NumericalError):
    """An iterative solver produced a non-finite iterate."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class InfeasibleError(TsvdkitError):
    """No parameter value can satisfy the request (rank or ratio out of
    reach)."""


class FormatError(TsvdkitError):
    """A file does not conform to its declared format."""


class UndefinedMetricError(TsvdkitError):
    """A metric is undefined for the given inputs (zero reference tensor)."""
