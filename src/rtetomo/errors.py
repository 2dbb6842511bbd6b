"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, numerical
failures exit 2, verification failures exit 3.
"""


class RteTomoError(Exception):
    """Base class for all package-specific errors."""


class UsageError(RteTomoError):
    """Bad configuration, malformed input files, or invalid arguments."""


class NumericalError(RteTomoError):
    """A computation failed to converge or hit degenerate data."""


class ForwardConvergenceError(NumericalError):
    """The fixed-point passes of one z-row of the transport field did not
    contract.

    Carries ``last_diff``, the max-norm update of the row's final pass.
    """

    def __init__(self, message, last_diff=None):
        super().__init__(message)
        self.last_diff = last_diff


class StagnationError(NumericalError):
    """Line search could not find a decreasing step."""


class DegenerateSampleError(NumericalError):
    """A statistical sweep produced no usable samples."""


class VerificationError(RteTomoError):
    """A structural property check (gradient, convexity, weight bound) failed."""
