"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The heavy Monte Carlo block (criteria 3-5) shares a module-scoped fixture of
five 2000-replication cells on the skewed quintic design; it takes a couple
of minutes single-machine.  Run with ``pytest tests/test_acceptance.py -v -s``
to watch the per-criterion lines.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import affine_transform, fits_at, make_noisy_sample, wls_intercept_oracle
from rdsmall.bandwidth import CurvatureBound, silverman_rot_population
from rdsmall.core import RDSample
from rdsmall.diss import (
    BetaSpec,
    beta_sigma_star,
    diss_m,
    n_for_target_diss,
    population_diss,
)
from rdsmall.inference import cv_interval, flci_interval, folded_normal_cv
from rdsmall.local_poly import local_poly_fit, se_of_linear_functional
from rdsmall.local_randomization import permutation_test
from rdsmall.simulation import (
    MU_FUNCTIONS,
    CellSpec,
    eval_mu,
    max_abs_second_derivative,
    mu_second_derivative,
    run_cell,
    write_cell_outputs,
)

SEED = 20240808
M_BAR_GRID = (10, 21, 27, 44, 57)
WORKERS = max(1, min(4, os.cpu_count() or 1))

# Reference study-size grid: (n, h_rot) per running variable and target.
DESIGN_TABLE = {
    "rv1": {10: (40, 0.124), 21: (101, 0.103), 27: (140, 0.097),
            44: (256, 0.086), 57: (354, 0.080)},
    "rv2": {10: (56, 0.072), 21: (140, 0.060), 27: (194, 0.056),
            44: (354, 0.050), 57: (490, 0.046)},
    "rv3": {10: (140, 0.034), 21: (354, 0.028), 27: (494, 0.026),
            44: (905, 0.023), 57: (1254, 0.022)},
}
RV_SHAPES = {"rv1": (1, 1), "rv2": (2, 4), "rv3": (14, 7)}


def _report(num, name, checks):
    """Print one line for the criterion, then assert every sub-check."""
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[criterion {num}] {name}: {status} "
          f"({len(checks) - len(failed)}/{len(checks)} checks)")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    assert not failed, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="module")
def rv2mu2_cells():
    """Five 2000-replication cells on the skewed quintic design."""
    t0 = time.perf_counter()
    cells = {}
    for m_bar in M_BAR_GRID:
        spec = CellSpec(rv="rv2", mu="mu2", m_bar=m_bar, replications=2000,
                        seed=SEED, workers=WORKERS)
        cells[m_bar] = run_cell(spec)
    cells["elapsed"] = time.perf_counter() - t0
    return cells


def test_criterion_1_study_size_table():
    t0 = time.perf_counter()
    checks = []
    for rv, row in DESIGN_TABLE.items():
        spec = BetaSpec(*RV_SHAPES[rv])
        sigma = beta_sigma_star(spec)
        for target, (n_ref, h_ref) in row.items():
            n_got = n_for_target_diss(spec, 0.5, sigma, target)
            m_bar = population_diss(spec, 0.5, n_ref, sigma)
            h = silverman_rot_population(1.34 * sigma, sigma, n_ref)
            ok = (
                n_got == n_ref
                and round(m_bar) == target
                and abs(round(h, 3) - h_ref) <= 5e-4
            )
            checks.append((f"{rv}/m_bar={target}", ok,
                           f"n={n_got} (ref {n_ref}), m_bar={m_bar:.3f}, "
                           f"h={h:.4f} (ref {h_ref})"))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"))
    _report(1, "study-size table reproduction", checks)


def test_criterion_2_mean_functions():
    checks = []
    for name in ("mu1", "mu2", "mu3"):
        jump = eval_mu(name, 0.0) - eval_mu(name, -1e-13)
        checks.append((f"{name} jump", abs(jump - 0.1) < 1e-9, f"{jump:.12f}"))
    m1 = max_abs_second_derivative("mu1")
    m2 = max_abs_second_derivative("mu2")
    m3 = max_abs_second_derivative("mu3")
    checks.append(("mu1 curvature bound = 2", abs(m1 - 2.0) < 1e-12, f"{m1}"))
    checks.append(("mu2 curvature bound = 233.26", abs(m2 - 233.26) <= 0.01, f"{m2}"))
    checks.append((
        "mu3 analytic 9.8 (nominal 16.2 kept alongside)",
        abs(m3 - 9.8) < 1e-9 and MU_FUNCTIONS["mu3"].nominal_curvature_bound == 16.2,
        f"analytic={m3}, quoted={MU_FUNCTIONS['mu3'].nominal_curvature_bound}",
    ))
    step = 1e-4
    worst = 0.0
    for name in ("mu1", "mu2", "mu3"):
        x = np.arange(-1 + step, 1 - step, step)
        keep = np.ones_like(x, dtype=bool)
        for point in set(MU_FUNCTIONS[name].knots) | {0.0}:
            keep &= np.abs(x - point) > 2.5 * step
        x = x[keep]
        fd = (eval_mu(name, x + step) - 2 * eval_mu(name, x)
              + eval_mu(name, x - step)) / step**2
        analytic = mu_second_derivative(name, x)
        rel = np.max(np.abs(fd - analytic) / (1.0 + np.abs(analytic)))
        worst = max(worst, rel)
    checks.append(("finite differences match mu'' to 1e-4", worst <= 1e-4,
                   f"worst relative gap {worst:.2e}"))
    _report(2, "mean-function checks", checks)


CONTINUITY = ("ik/cv", "ik/rbc", "ik/flci", "ak/cv", "ak/rbc", "ak/flci")


def test_criterion_3_interval_success_rates(rv2mu2_cells):
    checks = []
    cell10 = rv2mu2_cells[10].per_method
    for method in ("ik/cv", "ik/rbc"):
        rate = cell10[method].interval_success_rate
        checks.append((f"{method} at m_bar=10 >= 96%", rate >= 0.96, f"{rate:.4f}"))
    for m_bar in (27, 44, 57):
        for method in CONTINUITY:
            rate = rv2mu2_cells[m_bar].per_method[method].interval_success_rate
            checks.append((f"{method} at m_bar={m_bar} >= 99%", rate >= 0.99,
                           f"{rate:.4f}"))
    for m_bar in M_BAR_GRID:
        rate = rv2mu2_cells[m_bar].per_method["lr5"].interval_success_rate
        checks.append((f"lr5 at m_bar={m_bar} = 100%", rate == 1.0, f"{rate:.4f}"))
    elapsed = rv2mu2_cells["elapsed"]
    checks.append(("five 2000-replication cells < 10 min", elapsed < 600,
                   f"{elapsed:.0f} s"))
    _report(3, "interval success rates (R=2000, skewed quintic design)", checks)


def test_criterion_4_bandwidth_ordering(rv2mu2_cells):
    checks = []
    for m_bar in M_BAR_GRID:
        per = rv2mu2_cells[m_bar].per_method
        ik = per["ik/cv"].median_bandwidth
        ak = per["ak/cv"].median_bandwidth
        checks.append((f"median ik > median ak at m_bar={m_bar}", ik > ak,
                       f"{ik:.4f} vs {ak:.4f}"))
    lr10 = rv2mu2_cells[10].per_method["lr5"].median_bandwidth
    ak10 = rv2mu2_cells[10].per_method["ak/cv"].median_bandwidth
    checks.append(("median lr5 window > median ak at m_bar=10", lr10 > ak10,
                   f"{lr10:.4f} vs {ak10:.4f}"))
    lr57 = rv2mu2_cells[57].per_method["lr5"].median_bandwidth
    ik57 = rv2mu2_cells[57].per_method["ik/cv"].median_bandwidth
    checks.append(("median lr5 window < median ik at m_bar=57", lr57 < ik57,
                   f"{lr57:.4f} vs {ik57:.4f}"))
    _report(4, "bandwidth/window ordering", checks)


def test_criterion_5_operating_characteristics(rv2mu2_cells):
    checks = []
    per27 = rv2mu2_cells[27].per_method
    cov_ikcv = per27["ik/cv"].coverage
    checks.append(("ik/cv coverage < 0.95 at m_bar=27", cov_ikcv < 0.95,
                   f"{cov_ikcv:.4f}"))
    cov_akfl = per27["ak/flci"].coverage
    checks.append(("ak/flci coverage >= 0.93 at m_bar=27", cov_akfl >= 0.93,
                   f"{cov_akfl:.4f}"))
    checks.append((
        "ak/flci wider than ik/cv at m_bar=27",
        per27["ak/flci"].median_width > per27["ik/cv"].median_width,
        f"{per27['ak/flci'].median_width:.4f} vs {per27['ik/cv'].median_width:.4f}",
    ))
    for alg in ("ik", "ak"):
        rbc = per27[f"{alg}/rbc"].median_width
        cv = per27[f"{alg}/cv"].median_width
        checks.append((f"{alg}/rbc wider than {alg}/cv at m_bar=27", rbc > cv,
                       f"{rbc:.4f} vs {cv:.4f}"))
    emp_se = {m: r.emp_se for m, r in per27.items()}
    checks.append((
        "lr5 has the lowest EmpSE at m_bar=27",
        emp_se["lr5"] == min(emp_se.values()),
        ", ".join(f"{m}={v:.4f}" for m, v in sorted(emp_se.items())),
    ))
    lr10 = rv2mu2_cells[10].per_method["lr5"]
    checks.append((
        "lr coverage at m_bar=10 within 0.07 of 0.53",
        abs(lr10.coverage - 0.53) <= 0.07,
        f"{lr10.coverage:.4f}",
    ))
    # interval widths are measured on the inversion grid, so the hull is
    # only determined to one recorded grid step per endpoint; the width
    # comparison accounts for that resolution
    slack = 0.05 + 2 * lr10.median_grid_step
    checks.append((
        "lr median width at m_bar=10 within 0.05 (+grid resolution) of 0.33",
        abs(lr10.median_width - 0.33) <= slack,
        f"{lr10.median_width:.4f}, grid step {lr10.median_grid_step:.4f}",
    ))
    _report(5, "operating characteristics", checks)


def test_criterion_6_large_sample_sanity():
    spec = CellSpec(rv="rv1", mu="mu1", n=20_000, replications=200, seed=SEED,
                    methods=("ik/cv",), workers=WORKERS)
    result = run_cell(spec).per_method["ik/cv"]
    mcse = math.sqrt(0.95 * 0.05 / 200)
    checks = [
        ("|bias| <= 0.005", abs(result.bias) <= 0.005, f"{result.bias:.5f}"),
        ("coverage within 3 MCSE of 0.95",
         abs(result.coverage - 0.95) <= 3 * mcse,
         f"{result.coverage:.4f} (band +-{3 * mcse:.4f})"),
    ]
    _report(6, "large-sample point estimation and coverage", checks)


def test_criterion_7_oracle_equivalences():
    checks = []

    rng = np.random.default_rng(1)
    worst_gap, fails = 0.0, 0
    for i in range(100):
        nb = int(rng.integers(4, 9))
        na = int(rng.integers(4, 9))
        yb = rng.normal(0, 1, nb)
        ya = rng.normal(0.3, 1, na)
        exact = permutation_test(yb, ya, 0.0)
        mc = permutation_test(yb, ya, 0.0, max_exact=1, n_mc=999,
                              rng=np.random.default_rng(1000 + i))
        p = exact.p_value
        bound = 3 * math.sqrt(p * (1 - p) / 999)
        gap = abs(mc.p_value - p)
        worst_gap = max(worst_gap, gap)
        fails += gap > bound
    checks.append(("exact vs monte-carlo p on 100 windows", fails == 0,
                   f"{fails} beyond 3 MCSE, worst gap {worst_gap:.4f}"))

    rng = np.random.default_rng(2)
    worst = 0.0
    compared = 0
    while compared < 100:
        n = int(rng.integers(12, 80))
        x = rng.uniform(-1, 1, n)
        y = rng.normal(size=n)
        c = float(rng.uniform(-0.2, 0.2))
        h = float(rng.uniform(0.3, 1.0))
        side = "below" if rng.random() < 0.5 else "above"
        degree = int(rng.integers(1, 3))
        sample = RDSample(x=x, y=y, cutoff=c)
        try:
            fit = local_poly_fit(sample, side, degree, h)
        except Exception:
            continue
        expected = wls_intercept_oracle(x, y, c, side, degree, h)
        denom = max(1.0, abs(expected))
        worst = max(worst, abs(fit.fitted_at_cutoff - expected) / denom)
        compared += 1
    checks.append(("local fits vs dense normal equations on 100 designs",
                   worst <= 1e-9, f"worst relative gap {worst:.2e}"))

    rng = np.random.default_rng(3)
    w = rng.normal(size=200)
    s2 = rng.uniform(0, 3, 200)
    brute = 0.0
    for wi, si in zip(w, s2):
        brute += wi * wi * si
    got = se_of_linear_functional(w, s2)
    checks.append(("linear-functional SE vs brute-force sum",
                   abs(got - math.sqrt(brute)) <= 1e-12 * got, f"{got:.6f}"))
    _report(7, "oracle equivalences", checks)


def test_criterion_8_determinism_across_parallelism(tmp_path):
    outputs = {}
    for workers in (1, 2):
        spec = CellSpec(rv="rv2", mu="mu2", m_bar=10, replications=50, seed=7,
                        workers=workers)
        out = tmp_path / f"w{workers}"
        json_path, csv_path = write_cell_outputs(run_cell(spec), out)
        outputs[workers] = (json_path.read_bytes(), csv_path.read_bytes())
    same = outputs[1] == outputs[2]
    _report(8, "byte-identical results across parallelism degrees",
            [("workers=1 vs workers=2", same,
              "identical JSON and CSV" if same else "files differ")])


def test_criterion_9_invariance_suite():
    checks = []

    rng = np.random.default_rng(4)
    sample = RDSample(x=rng.normal(50, 8, 300), y=np.zeros(300), cutoff=47.0)
    m0, _ = diss_m(sample)
    stable = all(
        diss_m(affine_transform(sample, float(rng.uniform(0.05, 20)),
                                float(rng.uniform(-100, 100))))[0] == m0
        for _ in range(50)
    )
    checks.append(("study size invariant under 50 positive affine maps",
                   stable, f"m={m0}"))

    nested = True
    for seed in range(20):
        s = make_noisy_sample(n=100, seed=seed)
        fits = fits_at(s, 0.6)
        cv = cv_interval(fits)
        fl = flci_interval(fits, CurvatureBound(float(1 + seed % 5)))
        nested &= fl.ci_lower <= cv.ci_lower + 1e-12
        nested &= fl.ci_upper >= cv.ci_upper - 1e-12
    checks.append(("fixed-length interval contains conventional interval",
                   nested, "20 fixtures"))

    cv0 = folded_normal_cv(0.0, 0.05)
    checks.append(("folded normal cv(0, 0.05) = 1.959964 +- 1e-6",
                   abs(cv0 - 1.959964) <= 1e-6, f"{cv0:.7f}"))
    _report(9, "invariance suite", checks)
