"""Exception hierarchy shared across the toolkit.

Estimation routines raise these instead of bare ValueError so that callers
(the simulation harness, the CLI) can distinguish "this method cannot produce
an estimate on this data" from programming errors.  Data-dependent failures
are recoverable by design: the Monte Carlo success-rate accounting treats
them as observations, not crashes.
"""


class RDError(Exception):
    """Base class for all toolkit errors.  ``reason`` tags the failure for
    outcomes and failure counts: the tag given at the raise, else the type's
    ``tag``, else its name; as an instance attribute it survives pickling."""

    tag: str | None = None

    def __init__(self, *args, reason: str | None = None):
        super().__init__(*args)
        self.reason = reason or self.tag or type(self).__name__


class NonFiniteError(RDError):
    """Input contains NaN or infinite values."""


class LengthMismatchError(RDError):
    """Paired vectors have different lengths (or the sample is empty)."""


class InsufficientDataError(RDError):
    """Too few (or rank-deficient) observations for the requested fit.

    This is the recoverable "no finite estimate" signal counted by the
    simulation success rates.
    """


class BadBandwidthError(RDError):
    """Bandwidth is not a positive finite number."""


class DegenerateSampleError(RDError):
    """Sample has zero spread where positive spread is required."""


class ZeroCurvatureBoundError(RDError):
    """Curvature bound M = 0 where a strictly positive bound is required."""

    tag = "zero_curvature"


class ZeroSEError(RDError):
    """Standard error is exactly zero where a positive SE is required."""


class EmptyWindowSideError(RDError):
    """A sample or a local-randomization window has no observations on a side."""

    tag = "empty_side"


class OutOfSupportError(RDError):
    """Evaluation point lies outside the function's support."""


class ParseError(RDError):
    """Input file cannot be parsed (empty file, malformed row, ...)."""


class MissingColumnError(RDError):
    """Required column is absent from the input file."""


class SpecValidationError(RDError):
    """Simulation cell specification fails validation.

    The message carries the JSON path of the offending field.
    """
