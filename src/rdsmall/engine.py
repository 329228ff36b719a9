"""One estimation path for ``rdsmall analyze`` and the Monte Carlo harness.

``estimate`` runs the continuity methods (an ik, ak or akm bandwidth with a
cv, rbc or flci interval) and local randomization (``lr<lr_min>``) on one
sample.  Each method is a straight line of stages.  The shared ones (the
nearest-neighbor variances, m_hat, one bandwidth per algorithm, and one set
of boundary fits per bandwidth, which cv, rbc and flci all read) are built
once per sample, the first time a method needs them.  A stage fails only by
raising an ``RDError``, whose ``reason`` is the failure's tag; the engine
keeps it, fails every method that needs the stage with it, and never raises
it to the caller.  Estimators are looked up by name at call time, so a
wrapper around those names (such as a tracer) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import CurvatureBound, ak_bandwidth, estimate_m_hat, ik_bandwidth
from .core import RDSample
from .errors import RDError, SpecValidationError, ZeroCurvatureBoundError
from .inference import BoundaryFits, cv_interval, flci_interval, rbc_interval
from .local_poly import nn_variance
from .local_randomization import lr_interval, select_window

CONTINUITY_METHODS = tuple(
    f"{alg}/{inf}" for alg in ("ik", "ak", "akm") for inf in ("cv", "rbc", "flci")
)

_NAN = float("nan")


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
    the design's bound; None fails them).  lr uses ``lr_interval``'s defaults.
    """

    methods: tuple[str, ...]
    alpha: float
    lr_min: int
    window: str
    m_bound: CurvatureBound | None = None
    akm_bound: CurvatureBound | None = None

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise SpecValidationError(f"alpha: in (0, 1) required, got {self.alpha!r}")
        object.__setattr__(self, "methods", parse_methods(self.methods, self.lr_min))


@dataclass(frozen=True)
class Outcome:
    """One method's result on one sample, as scalars (NaN where none).

    ``bw`` is the bandwidth or window half-width; ``grid_step`` is lr's
    inversion-grid resolution.  ``error`` is the ``RDError`` that failed the
    method, without its traceback, and ``reason`` its tag: a stage
    (``nn_variance``, ``m_hat``, a bandwidth selector's pilot), a condition
    (``zero_curvature``, ``empty_side``, ``no_bound``) or the type's name.
    """

    bw: float = _NAN
    tau: float = _NAN
    se: float = _NAN
    lo: float = _NAN
    hi: float = _NAN
    grid_step: float = _NAN
    error: RDError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def reason(self) -> str:
        return "" if self.error is None else self.error.reason


def estimate(sample: RDSample, plan: Plan,
             rng: np.random.Generator | None = None) -> dict[str, Outcome]:
    """One ``Outcome`` per method of ``plan``, in the plan's order.

    ``rng`` drives local randomization's Monte Carlo assignments, used when
    a window is too large to enumerate.
    """
    built = {}

    def stage(key, build, reason=None):
        """The piece ``key``, built by ``build()`` on its first need.  A
        failure is kept as its error, retagged ``reason`` if one is given,
        and raised again for every later need."""
        if key not in built:
            try:
                built[key] = build()
            except RDError as err:
                err.reason = reason or err.reason
                built[key] = err
        piece = built[key]
        if isinstance(piece, RDError):
            raise piece
        return piece

    def sigma2():
        return stage("nn_variance", lambda: nn_variance(sample), "nn_variance")

    def bound(alg):
        """akm's bound, else ``plan.m_bound``, else m_hat."""
        if alg == "akm":
            if plan.akm_bound is None:
                raise SpecValidationError("akm needs a curvature bound (--m-bound / "
                                          "m_bound not given)", reason="no_bound")
            return plan.akm_bound
        if plan.m_bound is not None:
            return plan.m_bound
        m_hat = stage("m_hat", lambda: estimate_m_hat(sample), "m_hat")
        if m_hat.value <= 0:  # outside the stage, so that it keeps its own tag
            # estimate_m_hat snaps the curvature of a response that is linear on
            # each side to exactly 0, for the bounded-curvature methods to reject
            raise ZeroCurvatureBoundError(
                "estimated curvature bound m_hat is 0 (the response is linear on each side)")
        return m_hat

    def bandwidth(alg):
        # ak and akm read their bound before sigma2
        return (ik_bandwidth(sample) if alg == "ik"
                else ak_bandwidth(sample, bound(alg), sigma2=sigma2())).h

    outcomes = {}
    for method in plan.methods:
        bw = _NAN
        try:
            if method in CONTINUITY_METHODS:
                alg, inf = method.split("/")
                bw = stage(("bandwidth", alg), lambda: bandwidth(alg))
                variances = sigma2()
                m = bound(alg) if inf == "flci" else None
                fits = stage(("fits", alg), lambda: BoundaryFits.build(sample, bw, variances))
                est = (flci_interval(fits, m, plan.alpha) if inf == "flci"
                       else (cv_interval if inf == "cv" else rbc_interval)(fits, plan.alpha))
            else:
                window = stage("window", lambda: select_window(sample, plan.lr_min, plan.window))
                bw = window.half_width
                est = lr_interval(sample, window, plan.alpha, rng=rng)
        except RDError as err:
            # its traceback, or its context's, would keep the failing call's
            # frames, sample included, alive
            err.__context__ = None
            outcomes[method] = Outcome(bw=bw, error=err.with_traceback(None))
        else:
            outcomes[method] = Outcome(bw, est.tau_hat, _NAN if est.se is None else est.se,
                                       est.ci_lower, est.ci_upper,
                                       est.diagnostics.get("grid_step", _NAN))
    return outcomes
