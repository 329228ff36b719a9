"""One estimation path for ``rdsmall analyze`` and the Monte Carlo harness.

``estimate`` runs the continuity methods (an ik, ak or akm bandwidth with a
cv, rbc or flci interval) and local randomization (``lr<lr_min>``) on one
sample.  The shared pieces (nearest-neighbor variances, m_hat, one
bandwidth per algorithm, and one set of boundary fits per bandwidth, which
cv, rbc and flci all read) are computed once, only when a requested method
needs them, and a piece that fails fails every method that needs it, with
the piece's reason.  Failures are returned, never raised.  Estimators are
looked up by name at call time, so a wrapper around those names (such as a
tracer) sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import CurvatureBound, ak_bandwidth, estimate_m_hat, ik_bandwidth
from .core import RDSample, SideSplit
from .errors import (
    EmptyWindowSideError,
    RDError,
    SpecValidationError,
    ZeroCurvatureBoundError,
)
from .inference import BoundaryFits, cv_interval, flci_interval, rbc_interval
from .local_poly import nn_variance
from .local_randomization import (
    DEFAULT_GRID_POINTS,
    DEFAULT_MAX_EXACT,
    DEFAULT_N_MC,
    lr_interval,
    select_window,
)

CONTINUITY_METHODS = tuple(
    f"{alg}/{inf}" for alg in ("ik", "ak", "akm") for inf in ("cv", "rbc", "flci")
)

_NAN = float("nan")

# Failure reasons that name a condition rather than the error's type.
_REASONS = {ZeroCurvatureBoundError: "zero_curvature", EmptyWindowSideError: "empty_side"}


def parse_methods(ids, lr_min: int) -> tuple[str, ...]:
    """Canonical method ids, in the order given: matched without case or
    surrounding whitespace, with ``lr`` spelled ``lr<lr_min>``.

    Raises SpecValidationError, naming the position ``methods[i]``, for an
    unknown or repeated id, or when ``ids`` is not a nonempty list.
    """
    if not isinstance(ids, (list, tuple)) or not ids:
        raise SpecValidationError("methods: expected a nonempty list")
    lr_id = f"lr{lr_min}"
    methods = []
    for i, raw in enumerate(ids):
        method = str(raw).strip().lower()
        if method in ("lr", lr_id):
            if lr_min < 1:
                raise SpecValidationError(f"lr_min: >= 1 required, got {lr_min!r}")
            method = lr_id
        elif method not in CONTINUITY_METHODS:
            raise SpecValidationError(f"methods[{i}]: unknown method id {raw!r}")
        if method in methods:
            raise SpecValidationError(f"methods[{i}]: repeated method id {method!r}")
        methods.append(method)
    return tuple(methods)


@dataclass(frozen=True)
class Plan:
    """The methods to run on each sample and the values they run with.

    ``methods`` is parsed by ``parse_methods`` on construction.  The front
    ends differ only in these values: ``window`` is the ``select_window``
    policy (analyze ``"strict"``, the harness ``"capped"``); ``m_bound``
    replaces m_hat for ik/flci and ak/* (analyze's ``--m-bound``; None
    estimates m_hat); ``akm_bound`` is the bound of akm/* (``--m-bound``, or
    the design's bound; None fails them).
    """

    methods: tuple[str, ...]
    alpha: float
    lr_min: int
    window: str
    m_bound: CurvatureBound | None = None
    akm_bound: CurvatureBound | None = None
    max_exact: int = DEFAULT_MAX_EXACT
    n_mc: int = DEFAULT_N_MC
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise SpecValidationError(f"alpha: in (0, 1) required, got {self.alpha!r}")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise SpecValidationError(f"grid_points: odd >= 3 required, got {self.grid_points!r}")
        object.__setattr__(self, "methods", parse_methods(self.methods, self.lr_min))


@dataclass(frozen=True)
class Outcome:
    """One method's result on one sample, as scalars (NaN where none).

    ``bw`` is the bandwidth or window half-width; ``grid_step`` is lr's
    inversion-grid resolution.  ``reason`` is empty on success, else a tag:
    a stage (``nn_variance``, ``m_hat``), a condition (``zero_curvature``,
    ``empty_side``), a bandwidth selector's reason, or an error's type name.
    ``error`` is the caught error, if any.
    """

    bw: float = _NAN
    tau: float = _NAN
    se: float = _NAN
    lo: float = _NAN
    hi: float = _NAN
    grid_step: float = _NAN
    reason: str = ""
    error: RDError | None = None

    @property
    def ok(self) -> bool:
        return not self.reason

    @property
    def bw_ok(self) -> bool:
        return not math.isnan(self.bw)


def _caught(err: RDError, reason: str | None = None, bw: float = _NAN) -> Outcome:
    # the traceback would keep the failing call's frames, sample included, alive
    err = err.with_traceback(None)
    return Outcome(bw=bw, reason=reason or _REASONS.get(type(err), type(err).__name__),
                   error=err)


def _m_hat(sample: RDSample) -> CurvatureBound | Outcome:
    try:
        bound = estimate_m_hat(sample)
    except RDError as err:
        return _caught(err, "m_hat")
    if bound.value <= 0:
        # estimate_m_hat snaps the curvature of a response that is linear on
        # each side to exactly 0, for the bounded-curvature methods to reject
        return _caught(ZeroCurvatureBoundError(
            "estimated curvature bound m_hat is 0 (the response is linear on each side)"
        ))
    return bound


def _bandwidth(alg: str, sample: RDSample, sigma2, bound) -> float | Outcome:
    """The bandwidth of one algorithm, or the failure that prevents it."""
    if alg != "ik":
        if bound is None:
            return _caught(SpecValidationError(
                "akm needs a curvature bound (--m-bound / m_bound not given)"
            ), "no_bound")
        # m_hat's failure comes first: it is estimated before sigma2 is used
        for piece in (bound, sigma2):
            if isinstance(piece, Outcome):
                return piece
    try:
        result = (ik_bandwidth(sample) if alg == "ik"
                  else ak_bandwidth(sample, bound, sigma2=sigma2))
    except RDError as err:
        return _caught(err)
    return result.h if result.ok else Outcome(reason=result.failure_reason)


def _continuity(method: str, sample: RDSample, plan: Plan, sigma2, m_hat,
                bandwidths: dict, fits: dict) -> Outcome:
    alg, inf = method.split("/")
    h = bandwidths[alg]
    if isinstance(h, Outcome):
        return h
    bound = plan.akm_bound if alg == "akm" else m_hat
    for piece in (sigma2, bound if inf == "flci" else None):
        if isinstance(piece, Outcome):
            return Outcome(bw=h, reason=piece.reason, error=piece.error)
    shared = fits.get(alg)
    if isinstance(shared, Outcome):
        return shared
    try:
        if shared is None:
            shared = fits[alg] = BoundaryFits.build(sample, h, sigma2)
        if inf == "flci":
            est = flci_interval(shared, bound, plan.alpha)
        else:
            est = (cv_interval if inf == "cv" else rbc_interval)(shared, plan.alpha)
    except RDError as err:
        failed = _caught(err, bw=h)
        fits.setdefault(alg, failed)  # a failed degree-1 fit fails every method at h
        return failed
    return Outcome(h, est.tau_hat, est.se, est.ci_lower, est.ci_upper)


def _local_randomization(sample: RDSample, plan: Plan, rng) -> Outcome:
    try:
        window = select_window(sample, plan.lr_min, plan.window)
    except RDError as err:
        return _caught(err)
    try:
        est = lr_interval(sample, window, alpha=plan.alpha, grid_points=plan.grid_points,
                          max_exact=plan.max_exact, n_mc=plan.n_mc, rng=rng)
    except RDError as err:
        return _caught(err, bw=window.half_width)
    return Outcome(window.half_width, est.tau_hat, _NAN, est.ci_lower, est.ci_upper,
                   est.diagnostics["grid_step"])


def estimate(sample: RDSample, split: SideSplit, plan: Plan,
             rng: np.random.Generator | None = None) -> dict[str, Outcome]:
    """One ``Outcome`` per method of ``plan``, in the plan's order.

    ``split`` is ``validate(sample)``.  ``rng`` drives local randomization's
    Monte Carlo assignments, used when a window is too large to enumerate.
    """
    algorithms = dict.fromkeys(m.split("/")[0] for m in plan.methods if m in CONTINUITY_METHODS)
    sigma2 = None
    if algorithms:
        try:
            sigma2 = nn_variance(sample, split)
        except RDError as err:
            sigma2 = _caught(err, "nn_variance")
    m_hat = plan.m_bound
    if m_hat is None and ("ak" in algorithms or "ik/flci" in plan.methods):
        m_hat = _m_hat(sample)
    bandwidths = {
        alg: _bandwidth(alg, sample, sigma2, plan.akm_bound if alg == "akm" else m_hat)
        for alg in algorithms
    }
    fits = {}
    return {
        method: _continuity(method, sample, plan, sigma2, m_hat, bandwidths, fits)
        if method in CONTINUITY_METHODS else _local_randomization(sample, plan, rng)
        for method in plan.methods
    }
