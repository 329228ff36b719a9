"""rdsmall: regression discontinuity estimation for small studies.

The package covers the full small-study RD workflow:

* ``core`` — samples, checked and split at the cutoff once; effect
  estimates
* ``local_poly`` — boundary local-polynomial fits as linear-in-y weights,
  with the triangular kernel (the uniform one for ik's curvature pilot)
* ``bandwidth`` — rule-of-thumb, plug-in (ik) and bounded-curvature (ak)
  bandwidth selection
* ``diss`` — the density-inclusive study size metric, sample and population
* ``inference`` — conventional, robust bias-corrected and fixed-length
  intervals
* ``local_randomization`` — window selection, sharp-null permutation tests,
  interval inversion
* ``engine`` — the method-id parser and the one estimation path that runs
  every method on a sample, for the CLI and the harness alike
* ``simulation`` — the seeded Monte Carlo evaluation harness
* ``cli`` — CSV analysis, study-size reports, simulation runs
"""

from ._version import __version__
from .bandwidth import (
    BandwidthResult,
    CurvatureBound,
    ak_bandwidth,
    estimate_m_hat,
    ik_bandwidth,
    silverman_rot,
    silverman_rot_population,
)
from .core import EffectEstimate, RDSample
from .diss import (
    BetaSpec,
    beta_cdf,
    beta_quantile,
    beta_sigma_star,
    diss_m,
    n_for_target_diss,
    population_diss,
)
from .inference import (
    BoundaryFits,
    cv_interval,
    flci_interval,
    folded_normal_cv,
    rbc_interval,
    worst_case_bias,
)
from .local_poly import (
    Kernel,
    LinearFit,
    local_poly_fit,
    nn_variance,
    se_of_linear_functional,
)
from .local_randomization import (
    LRWindow,
    PermutationResult,
    lr_interval,
    permutation_test,
    select_window,
)
from .simulation import (
    CellSpec,
    SimCellResult,
    eval_mu,
    generate_dataset,
    max_abs_second_derivative,
    run_cell,
    validate_cell_spec,
    write_cell_outputs,
)

__all__ = [
    "__version__",
    "BandwidthResult",
    "BetaSpec",
    "BoundaryFits",
    "CellSpec",
    "CurvatureBound",
    "EffectEstimate",
    "Kernel",
    "LinearFit",
    "LRWindow",
    "PermutationResult",
    "RDSample",
    "SimCellResult",
    "ak_bandwidth",
    "beta_cdf",
    "beta_quantile",
    "beta_sigma_star",
    "cv_interval",
    "diss_m",
    "estimate_m_hat",
    "eval_mu",
    "flci_interval",
    "folded_normal_cv",
    "generate_dataset",
    "ik_bandwidth",
    "local_poly_fit",
    "lr_interval",
    "max_abs_second_derivative",
    "n_for_target_diss",
    "nn_variance",
    "permutation_test",
    "population_diss",
    "rbc_interval",
    "run_cell",
    "se_of_linear_functional",
    "select_window",
    "silverman_rot",
    "silverman_rot_population",
    "validate_cell_spec",
    "worst_case_bias",
    "write_cell_outputs",
]
