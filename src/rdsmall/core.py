"""Core domain types: samples and their cutoff split, effect estimates.

Conventions used everywhere in the package:

* The design is sharp: treatment is ``1[x >= cutoff]``.  Observations with
  ``x == cutoff`` exactly are treated (i.e. counted on the *above* side).
  Real score data has ties at real-world cutoffs, so this is worth stating
  loudly rather than leaving to the comparison operator.
* Vectors are dense float arrays with no missing-value encoding.  Ingestion
  (see :mod:`rdsmall.cli`) must drop or reject incomplete rows before an
  :class:`RDSample` is built, which rejects NaN/inf outright.
* An :class:`RDSample` is checked and split by side once, when it is built;
  every estimator reads its ``below``/``above`` index sets, 0-based
  ascending positions into the sample arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatchError, NonFiniteError


@dataclass(frozen=True)
class RDSample:
    """Paired running-variable / response observations with a cutoff.

    Construction coerces x and y to float arrays (without copying float
    input), checks the sample's contract and splits it once by the sharp
    rule: ``below`` and ``above`` are the ascending positions with
    ``x < cutoff`` and ``x >= cutoff``.  Every estimator reads these, so no
    other code decides a side.

    Raises
    ------
    NonFiniteError
        Any NaN/inf in x, y, or the cutoff.
    LengthMismatchError
        x and y differ in length, or the sample is empty.

    An empty side is not an error here: each estimator that needs both
    sides reports it as its failure.
    """

    x: np.ndarray
    y: np.ndarray
    cutoff: float
    below: np.ndarray = field(init=False, repr=False, compare=False)
    above: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        cutoff = float(self.cutoff)
        if x.size != y.size:
            raise LengthMismatchError(f"x has length {x.size}, y has length {y.size}")
        if x.size == 0:
            raise LengthMismatchError("sample is empty")
        if not np.isfinite(cutoff):
            raise NonFiniteError("cutoff is not finite")
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("running variable contains NaN or inf")
        if not np.all(np.isfinite(y)):
            raise NonFiniteError("response contains NaN or inf")
        above = x >= cutoff
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "below", np.flatnonzero(~above))
        object.__setattr__(self, "above", np.flatnonzero(above))

    @property
    def n(self) -> int:
        return self.x.size

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
    error concept (local randomization).  The interval is ``[ci_lower,
    ci_upper]`` at ``bandwidth_or_window``, a bandwidth or a window's half
    width; ``diagnostics`` holds the method's branch details.  A NaN or inf
    field raises NonFiniteError, so an estimate that overflows counts as
    its method's failure.
    """

    tau_hat: float
    se: float | None
    ci_lower: float
    ci_upper: float
    bandwidth_or_window: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        values = (self.tau_hat, self.ci_lower, self.ci_upper, 0.0 if self.se is None else self.se)
        if not all(map(math.isfinite, values)):
            raise NonFiniteError(
                f"estimate {self.tau_hat}, interval [{self.ci_lower}, {self.ci_upper}] "
                f"or se {self.se} is not finite"
            )
        if not (self.ci_lower <= self.tau_hat <= self.ci_upper):
            raise ValueError(
                f"interval [{self.ci_lower}, {self.ci_upper}] does not "
                f"contain its center {self.tau_hat}"
            )
        if self.se is not None and self.se < 0:
            raise ValueError(f"se must be nonnegative, got {self.se}")
