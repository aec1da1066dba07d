"""Exception types shared across the package.

Every error raised on purpose derives from :class:`GndeError` so callers can
catch library failures without swallowing genuine bugs.  The CLI maps
configuration-type errors to exit code 2 and numerical failures to exit
code 3.
"""


class GndeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(GndeError, ValueError):
    """A constructor or operation argument is outside its documented range."""


class WrongRegimeError(GndeError, ValueError):
    """A weighted-only operation was called on a binary object, or vice versa."""


class UnsupportedOperationError(GndeError, TypeError):
    """The operation is not defined for this object (e.g. support geometry
    of a weighted kernel)."""


class ComplexityGuardError(GndeError, ValueError):
    """Input exceeds a hard tractability limit; the message names the limit."""


class InsufficientDataError(GndeError, ValueError):
    """Too few data points for the requested estimate."""


class DimensionMismatchError(GndeError, ValueError):
    """Array shapes or channel counts do not line up."""


class NonConvergenceError(GndeError, RuntimeError):
    """An iterative solver ran out of steps or iterations.

    ``last_time`` carries the last successfully reached time (adaptive
    stepping), ``contraction`` the last observed contraction-factor estimate
    (fixed-point iteration); either may be ``None``.
    """

    def __init__(self, message, last_time=None, contraction=None):
        super().__init__(message)
        self.last_time = last_time
        self.contraction = contraction


class DivergenceError(GndeError, RuntimeError):
    """A state became non-finite during integration."""


class DegenerateReferenceError(GndeError, ValueError):
    """The reference trajectory norm fell below the guard threshold.

    ``time`` names the offending grid time.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class LogDomainError(GndeError, ValueError):
    """A log-log fit received a nonpositive value."""


class EdgeListParseError(GndeError, ValueError):
    """An edge list failed to parse at 1-based ``line``; given the file's
    ``path``, the message reads ``<path>:<line>: <message>``."""

    def __init__(self, message, line=None, path=None):
        super().__init__(message if path is None else f"{path}:{line}: {message}")
        self.line = line


class ConfigError(GndeError, ValueError):
    """A CLI config file or flag combination is invalid."""
