"""Core domain types: samples, cutoff splits, effect estimates.

Conventions used everywhere in the package:

* The design is sharp: treatment is ``1[x >= cutoff]``.  Observations with
  ``x == cutoff`` exactly are treated (i.e. counted on the *above* side).
  Real score data has ties at real-world cutoffs, so this is worth stating
  loudly rather than leaving to the comparison operator.
* Vectors are dense float arrays with no missing-value encoding.  Ingestion
  (see :mod:`rdsmall.cli`) must drop or reject incomplete rows before an
  :class:`RDSample` is built; ``validate`` rejects NaN/inf outright.
* Index sets are 0-based positions into the sample arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySideWarning, LengthMismatchError, NonFiniteError, ZeroScaleError


@dataclass(frozen=True)
class RDSample:
    """Paired running-variable / response observations with a cutoff.

    Construction only coerces to float arrays; contract checks live in
    :func:`validate` so that bad data raises a semantic error at the point
    of use rather than an opaque one at construction.
    """

    x: np.ndarray
    y: np.ndarray
    cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "cutoff", float(self.cutoff))

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class SideSplit:
    """Partition of sample indices by the sharp-design rule ``x >= c``."""

    below: np.ndarray
    above: np.ndarray

    @property
    def n_below(self) -> int:
        return self.below.size

    @property
    def n_above(self) -> int:
        return self.above.size

    @property
    def empty_side(self) -> str | None:
        """Name of an empty side, or None when both sides are populated."""
        if self.n_below == 0:
            return "below"
        if self.n_above == 0:
            return "above"
        return None


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate and interval for the LATE at the cutoff.

    ``tau_hat`` is the interval's center: the local-linear contrast for
    conventional and fixed-length intervals, the bias-corrected point for
    robust bias-corrected intervals, the window difference-in-means for
    local randomization.  ``se`` is None for methods without a standard
    error concept (local randomization).
    """

    tau_hat: float
    se: float | None
    ci_lower: float
    ci_upper: float
    alpha: float
    bandwidth_or_window: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (self.ci_lower <= self.tau_hat <= self.ci_upper):
            raise ValueError(
                f"interval [{self.ci_lower}, {self.ci_upper}] does not "
                f"contain its center {self.tau_hat}"
            )
        if self.se is not None and not (np.isfinite(self.se) and self.se >= 0):
            raise ValueError(f"se must be finite and nonnegative, got {self.se}")

    @property
    def width(self) -> float:
        return self.ci_upper - self.ci_lower


def validate(sample: RDSample) -> SideSplit:
    """Check sample contracts and return the cutoff partition.

    Raises
    ------
    NonFiniteError
        Any NaN/inf in x, y, or the cutoff.
    LengthMismatchError
        x and y differ in length, or the sample is empty.

    An empty side is a warning-level condition (``EmptySideWarning``), not an
    error: estimators that need both sides check the returned counts.
    """
    if sample.x.size != sample.y.size:
        raise LengthMismatchError(
            f"x has length {sample.x.size}, y has length {sample.y.size}"
        )
    if sample.x.size == 0:
        raise LengthMismatchError("sample is empty")
    if not np.isfinite(sample.cutoff):
        raise NonFiniteError("cutoff is not finite")
    if not np.all(np.isfinite(sample.x)):
        raise NonFiniteError("running variable contains NaN or inf")
    if not np.all(np.isfinite(sample.y)):
        raise NonFiniteError("response contains NaN or inf")

    above_mask = sample.x >= sample.cutoff
    split = SideSplit(
        below=np.flatnonzero(~above_mask),
        above=np.flatnonzero(above_mask),
    )
    if split.empty_side is not None:
        warnings.warn(
            f"no observations {split.empty_side} the cutoff", EmptySideWarning,
            stacklevel=2,
        )
    return split


def affine_transform(sample: RDSample, a: float, b: float) -> RDSample:
    """Rescale the running variable: x' = a*x + b, cutoff' = a*c + b.

    The response is untouched.  With a > 0 every observation stays on its
    side of the cutoff; a < 0 flips the sides (allowed, occasionally useful
    for mirroring a design).
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonFiniteError("affine coefficients must be finite")
    if a == 0:
        raise ZeroScaleError("affine transform requires a != 0")
    return RDSample(x=a * sample.x + b, y=sample.y, cutoff=a * sample.cutoff + b)
