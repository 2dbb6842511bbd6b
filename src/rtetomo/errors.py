"""Exception types shared across the package: three kinds, one type each.

The CLI maps each kind onto an exit code: usage problems exit 1,
numerical failures exit 2, verification failures exit 3.
"""


class RteTomoError(Exception):
    """Base class for all package-specific errors."""


class UsageError(RteTomoError):
    """Bad configuration, malformed or unreadable input files, or invalid arguments."""


class NumericalError(RteTomoError):
    """A computation diverged, stalled, stopped unconverged, or found no usable sample."""


class VerificationError(RteTomoError):
    """A structural property check (gradient, convexity, weight bound) failed."""
