"""End-to-end acceptance gate.

Eight timed suites, one per advertised guarantee, each printing a single
PASS/FAIL line (visible through pytest's capture).  Suites 1-3, 5, 6 and 8
run the ``otspec`` experiment kinds and fail on any failed record, so the
tolerances are the records' own; suites 4 and 7 check claims no kind
computes and state theirs inline.  Time budgets are stated inline; a suite
fails on any violated bound or a blown budget.
"""

from time import perf_counter

import numpy as np
import pytest

from otspec.brenier import brenier_1d
from otspec.cli import config_from_dict, run_experiment
from otspec.concentration import (
    caffarelli_floor_check,
    default_experiments,
    eigen_log_variance_quadrature_1d,
    spectral_samples,
    variance_report,
)
from otspec.measures import CATALOG_NAMES, make_catalog_measure, regularize

# canonical catalog parameters for grid sweeps
CANON = {
    "gaussian": (0.0, 1.0),
    "uniform": (0.0, 1.0),
    "exponential": (1.0,),
    "gamma": (3.0, 1.0),
    "beta": (2.0, 3.0),
    "logistic": (0.0, 1.0),
    "laplace": (0.0, 1.0),
    "subbotin": (3.0,),
}

# records of the geometry self-test that suite 2 owns; suite 1 owns the rest
_LIPSCHITZ_CLAIMS = ("lipschitz-quadform", "lipschitz-spectral-map", "sorted-spectra-bound")


def _report(capfd, index, label, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    with capfd.disabled():
        print(f"[{index}/8] {label}: {status} ({elapsed:.1f}s, budget {budget:.0f}s)")
        for f in failures:
            print(f"        {f}")
    assert not failures, failures
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget:.0f}s"


def _run(kind, **overrides):
    return run_experiment(config_from_dict({"kind": kind, **overrides}))


def _failed(records):
    return [
        f"{r.name}: value {r.value:.3e}, tolerance {r.tolerance:.3e}"
        + (f" ({r.note})" if r.note else "")
        for r in records
        if not r.passed
    ]


@pytest.fixture(scope="module")
def geometry():
    return _run("geometry-selftest")


def test_metric_suite(capfd, geometry):
    # symmetry, triangle inequality, affine and inversion invariance on
    # 1000 random pairs with margin >= -1e-9; geodesic length matches the
    # distance to 1e-4 on 1000-sample curves.  The shared self-test run
    # counts against this suite's budget.
    t0 = perf_counter()
    records = [r for r in geometry.records if r.claim not in _LIPSCHITZ_CLAIMS]
    failures = _failed(records)
    if len(records) != 6:
        failures.append(f"expected 6 metric records, got {len(records)}")
    elapsed = geometry.wall_clock_seconds + perf_counter() - t0
    _report(capfd, 1, "metric suite", failures, elapsed, 30.0)


def test_lipschitz_functionals(capfd, geometry):
    # the log quadratic form and the sorted log-spectrum map are
    # 1-Lipschitz for the manifold distance, and the sorted-spectra bound
    # sum((log a_i - log b_i)^2) <= d(A,B)^2 holds; slack >= -1e-9 on
    # 1000 random pairs
    t0 = perf_counter()
    records = [r for r in geometry.records if r.claim in _LIPSCHITZ_CLAIMS]
    failures = _failed(records)
    if len(records) != len(_LIPSCHITZ_CLAIMS):
        failures.append(f"expected {len(_LIPSCHITZ_CLAIMS)} Lipschitz records, got {len(records)}")
    _report(capfd, 2, "Lipschitz functionals", failures, perf_counter() - t0, 10.0)


def test_operator_identity_suite(capfd):
    # pointwise identities for the transport diffusion operator on 21
    # synthetic triples x 100 points in dimensions 1..3: conservation
    # gradient <= 1e-8, L(potential partial) = -(source potential
    # gradient) <= 1e-8, expanded iterate = certificate + floor +
    # potential quadratic forms to 1e-9 relative, geometric-decomposition
    # residual <= 1e-6, iterate floor margin >= -1e-9
    t0 = perf_counter()
    failures = _failed(_run("gamma2-check", triples=21).records)
    _report(capfd, 3, "operator identity suite", failures, perf_counter() - t0, 120.0)


def test_variance_bounds(capfd):
    # deterministic quadrature over the full catalog grid: every
    # Var[log Phi''] <= 4; the uniform(0,1)->exponential(1) value is
    # 1.000000 +- 1e-6; distinct gaussian pairs give 0 +- 1e-12.  Monte
    # Carlo at 1e5 samples: product (n=3) and radial (n in {2,3,5,8})
    # maps keep every Var[log lambda_i] <= 4 within 3 standard errors
    t0 = perf_counter()
    failures = []
    for a in CATALOG_NAMES:
        for b in CATALOG_NAMES:
            tm = brenier_1d(make_catalog_measure(a, CANON[a]), make_catalog_measure(b, CANON[b]))
            rep = eigen_log_variance_quadrature_1d(tm, nodes=2048)
            v = float(rep.variances[0])
            if v > 4.0:
                failures.append(f"{a}->{b}: Var {v:.4f} > 4")

    tm = brenier_1d(
        make_catalog_measure("uniform", (0.0, 1.0)),
        make_catalog_measure("exponential", (1.0,)),
    )
    v = float(eigen_log_variance_quadrature_1d(tm, nodes=2048).variances[0])
    if abs(v - 1.0) > 1e-6:
        failures.append(f"uniform->exponential Var {v:.8f} differs from 1 by > 1e-6")

    for ma, mb in [
        ((0.0, 1.0), (0.5, 0.8)),
        ((-1.0, 2.0), (0.3, 0.4)),
    ]:
        tm = brenier_1d(make_catalog_measure("gaussian", ma), make_catalog_measure("gaussian", mb))
        v = float(eigen_log_variance_quadrature_1d(tm, nodes=2048).variances[0])
        if v > 1e-12:
            failures.append(f"gaussian pair {ma}->{mb}: Var {v:.3e} > 1e-12")

    mc_maps = [(label, tm) for label, tm in default_experiments()
               if label.startswith(("product", "radial"))]
    assert {label.split(":")[0] for label, _ in mc_maps} == {"product", "radial"}
    assert len(mc_maps) == 5
    for label, tm in mc_maps:
        rep = variance_report(spectral_samples(tm, 100_000, seed=2024, label=label))
        for i in range(rep.variances.shape[0]):
            v, se = float(rep.variances[i]), float(rep.standard_errors[i])
            if v > 4.0 + 3.0 * se:
                failures.append(f"{label} index {i}: Var {v:.4f} > 4 + 3se ({se:.2e})")

    _report(capfd, 4, "variance bounds", failures, perf_counter() - t0, 300.0)


def test_poincare_ratios(capfd):
    # Var[f] / (4 E|grad f|^2) <= 1 within 3 standard errors for the
    # fixed bank over every catalog experiment; at least 40 cells
    t0 = perf_counter()
    records = _run("poincare").records
    failures = _failed(records)
    cells = sum(1 for r in records if r.name.startswith("poincare["))
    if cells < 40:
        failures.append(f"only {cells} cells, need >= 40")
    _report(capfd, 5, "poincare ratios", failures, perf_counter() - t0, 300.0)


def test_exponential_moments(capfd):
    # E exp(0.1 |f - mean|) <= 2 over the same cells; the calibration
    # sweep over c is printed alongside the verdict
    t0 = perf_counter()
    records = _run("concentration").records
    failures = _failed(records)
    sweep = [r for r in records if r.name.startswith("exp-moment-sweep[")]
    with capfd.disabled():
        print(
            "        sweep max-over-cells: "
            + "  ".join(f"{r.name[len('exp-moment-sweep['):-1]}:{r.value:.4f}" for r in sweep)
        )
    _report(capfd, 6, "exponential moments", failures, perf_counter() - t0, 120.0)


def test_regularization_properties(capfd):
    # smoothing scheme: unit mass +-1e-8, curvature floor 1/N - 1e-6 on
    # |x| <= 10, locally uniform convergence on [0.1, 0.9] over
    # N in {5,10,20,40}, and a positive map-curvature margin over 1/N^2
    # on three catalog pairs
    t0 = perf_counter()
    failures = []
    grid = np.linspace(-10.0, 10.0, 81)
    window = np.linspace(0.1, 0.9, 33)
    uniform = make_catalog_measure("uniform", (0.0, 1.0))
    sups = []
    for n in (5, 10, 20, 40):
        r = regularize(uniform, n)
        mass = r._total_mass()
        if abs(mass - 1.0) > 1e-8:
            failures.append(f"uniform N={n}: mass {mass:.10f} off by > 1e-8")
        floor = float(np.min(r.potential_d2(grid))) - (1.0 / n - 1e-6)
        if floor < 0.0:
            failures.append(f"uniform N={n}: curvature floor violated by {floor:.3e}")
        # the base potential is 0 on the support interior
        sups.append(float(np.max(np.abs(r.potential(window)))))
    if not (sups[-1] < sups[0] and np.all(np.diff(sups) < 0.0)):
        failures.append(f"potential sup-errors not decreasing: {sups}")

    lap = regularize(make_catalog_measure("laplace", (0.0, 1.0)), 5)
    mass = lap._total_mass()
    if abs(mass - 1.0) > 1e-8:
        failures.append(f"laplace N=5: mass {mass:.10f} off by > 1e-8")
    if float(np.min(lap.potential_d2(grid))) < 1.0 / 5 - 1e-6:
        failures.append("laplace N=5: curvature floor violated")

    pairs = [
        (("uniform", (0.0, 1.0)), ("exponential", (1.0,)), 10),
        (("gaussian", (0.0, 1.0)), ("gaussian", (0.0, 0.25)), 5),
        (("beta", (2.0, 3.0)), ("gaussian", (0.0, 1.0)), 10),
    ]
    for (na, pa), (nb, pb), n in pairs:
        margin = caffarelli_floor_check(
            make_catalog_measure(na, pa), make_catalog_measure(nb, pb), n
        )
        if margin <= 0.0:
            failures.append(f"{na}->{nb} N={n}: floor margin {margin:.3e} <= 0")

    _report(capfd, 7, "regularization properties", failures, perf_counter() - t0, 60.0)


def test_grid_transport_cross_validation(capfd):
    # 64x64 grid plans against the closed-form constructions: map and
    # Hessian within 5% on the central 50% mass region; the grid-based
    # log-spectrum variances carry the approximate flag
    t0 = perf_counter()
    records = _run("sinkhorn2d").records
    failures = _failed(records)
    # the Sinkhorn work at seed 2024: iterations and eps-stages per part
    notes = {r.name: r.note for r in records}
    for part, want in (("gaussian", "iterations=59 stages=7"), ("product", "iterations=59 stages=7")):
        got = notes.get(f"marginal-error[{part}]")
        if got != want:
            failures.append(f"marginal-error[{part}] note {got!r}, expected {want!r}")
    for part in ("gaussian", "product"):
        variances = [r for r in records if r.name.startswith(f"var-log-eig[{part}]")]
        if not variances:
            failures.append(f"{part}: no grid variance records")
        failures += [
            f"{r.name} lost its approximate flag"
            for r in variances
            if r.claim != "variance-bound-approximate"
        ]
    _report(capfd, 8, "grid transport cross-validation", failures, perf_counter() - t0, 300.0)
