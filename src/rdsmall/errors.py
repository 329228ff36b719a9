"""Exception hierarchy shared across the toolkit.

Estimation routines raise these instead of bare ValueError so that callers
(the simulation harness, the CLI) can distinguish "this method cannot produce
an estimate on this data" from programming errors.  Data-dependent failures
are recoverable by design: the Monte Carlo success-rate accounting treats
them as observations, not crashes.
"""


class RDError(Exception):
    """Base class for all toolkit errors."""


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


class ZeroSEError(RDError):
    """Standard error is exactly zero where a positive SE is required."""


class EmptyWindowSideError(RDError):
    """A local-randomization window has no observations on one side."""


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
