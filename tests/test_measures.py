"""Tests for the log-concave measure catalog and the smoothing scheme."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, special

from otspec import measures, rng
from otspec.measures import (
    CATALOG_NAMES,
    GaussianMeasure,
    LogConcaveMeasure1D,
    ProductMeasure,
    make_catalog_measure,
    make_radial_measure,
    regularize,
)

SMOOTH_MEMBERS = [
    ("gaussian", (0.0, 1.0)),
    ("gaussian", (2.0, 0.5)),
    ("exponential", (1.5,)),
    ("gamma", (3.0, 2.0)),
    ("beta", (2.0, 5.0)),
    ("logistic", (1.0, 0.5)),
    ("subbotin", (4.0,)),
]

ALL_MEMBERS = SMOOTH_MEMBERS + [
    ("uniform", (0.0, 1.0)),
    ("laplace", (0.5, 2.0)),
    ("subbotin", (1.5,)),
]

# every family, with the kinked members whose mass check splits or grades
MASS_MEMBERS = ALL_MEMBERS + [
    ("gamma", (2.5, 1.0)),
    ("beta", (1.5, 2.5)),
    ("subbotin", (3.0,)),
]


# the six regularized measures of the acceptance gate's floor pairs
FLOOR_MEASURES = [
    ("uniform", (0.0, 1.0), 10),
    ("exponential", (1.0,), 10),
    ("gaussian", (0.0, 1.0), 5),
    ("gaussian", (0.0, 0.25), 5),
    ("beta", (2.0, 3.0), 10),
    ("gaussian", (0.0, 1.0), 10),
]


def _quad(f, a, b, points=()):
    """Adaptive Gauss-Kronrod oracle on a finite interval, split at ``points``."""
    pts = sorted(p for p in points if a < p < b) or None
    value, err = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-11, limit=200, points=pts)
    assert err <= 1e-9 * max(1.0, abs(value))
    return value


def _scalar_mass(m):
    """The mass check as it was before it ran on arrays, kept as its oracle.

    One scalar ``pdf`` call per abscissa: adaptive Gauss-Kronrod on finite
    pieces, scipy's tanh-sinh on infinite ones, split at interior kinks.
    The tanh-sinh rule is asked for 1e-14: at its default relative
    tolerance it returns 1 - 2.8e-11 for exponential(1.5), whose mass is 1.
    """
    a, b = m.support
    edges = [a] + sorted(k for k in m._kink_points if a < k < b) + [b]
    scalar_pdf = np.vectorize(lambda t: float(m.pdf(t)), otypes=[float])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if np.isfinite(lo) and np.isfinite(hi):
            total += integrate.quad(
                scalar_pdf, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200
            )[0]
        else:
            total += float(
                integrate.tanhsinh(scalar_pdf, lo, hi, atol=1e-14, rtol=1e-14).integral
            )
    return total


def interior_grid(m, lo=0.02, hi=0.98, count=25):
    return m.quantile(np.linspace(lo, hi, count))


@pytest.fixture(scope="module")
def reg_uniform_10():
    return regularize(make_catalog_measure("uniform", (0.0, 1.0)), 10)


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == {
            "gaussian",
            "uniform",
            "exponential",
            "gamma",
            "beta",
            "logistic",
            "laplace",
            "subbotin",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown catalog measure"):
            make_catalog_measure("cauchy", (0.0, 1.0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            make_catalog_measure("gaussian", (0.0,))

    def test_log_concavity_ranges_rejected(self):
        with pytest.raises(ValueError, match="log-concavity"):
            make_catalog_measure("gamma", (0.5, 1.0))
        with pytest.raises(ValueError, match="log-concavity"):
            make_catalog_measure("beta", (0.8, 2.0))
        with pytest.raises(ValueError, match="exponent"):
            make_catalog_measure("subbotin", (0.9,))
        with pytest.raises(ValueError, match="positive"):
            make_catalog_measure("exponential", (-1.0,))
        with pytest.raises(ValueError, match="a < b"):
            make_catalog_measure("uniform", (1.0, 1.0))

    @pytest.mark.parametrize("name,params", ALL_MEMBERS)
    def test_density_normalized(self, name, params):
        m = make_catalog_measure(name, params)
        a, b = m.support
        if not np.isfinite(a):
            a = m.quantile(1e-14)
        if not np.isfinite(b):
            b = m.quantile(1.0 - 1e-14)
        cuts = [k for k in m._kink_points if a < k < b]
        mass, _ = integrate.quad(
            lambda t: float(m.pdf(t)), a, b, epsabs=1e-13, limit=200,
            points=cuts or None,
        )
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("name,params", MASS_MEMBERS)
    def test_mass_check_calls_pdf_on_arrays(self, name, params, monkeypatch):
        sizes = []
        pdf = LogConcaveMeasure1D.pdf

        def counted(self, x):
            sizes.append(np.size(x))
            return pdf(self, x)

        monkeypatch.setattr(LogConcaveMeasure1D, "pdf", counted)
        m = make_catalog_measure(name, params)
        assert len(sizes) <= 20
        sizes.clear()
        mass = m._total_mass()
        monkeypatch.undo()
        # each level of the double-exponential rule is one call over the
        # new nodes of every piece
        assert 3 <= len(sizes) <= 11
        assert min(sizes) > 1
        assert abs(mass - _scalar_mass(m)) <= 1e-12
        assert abs(mass - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "name,params",
        [("gaussian", (100.0, 0.01)), ("gaussian", (1e4, 1.0)), ("logistic", (50.0, 0.1))],
    )
    def test_mass_check_finds_narrow_density_far_from_zero(self, name, params):
        # the infinite pieces are placed by _location_scale; centred at 0
        # with unit spread, every node missed these peaks (mass 0.0, 0.0
        # and 1.3e-41), so construction refused them
        m = make_catalog_measure(name, params)
        assert abs(m._total_mass() - 1.0) <= 1e-13

    def test_gaussian_potential_value(self):
        m = make_catalog_measure("gaussian", (0.0, 1.0))
        assert m.potential(0.0) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-14)

    @pytest.mark.parametrize("name,params", ALL_MEMBERS)
    def test_first_derivative_matches_potential(self, name, params):
        m = make_catalog_measure(name, params)
        x = interior_grid(m)
        if m._kink_points:
            keep = np.all(
                np.abs(x[:, None] - np.array(m._kink_points)) > 1e-3, axis=1
            )
            x = x[keep]
        h = 1e-6 * (1.0 + np.abs(x))
        fd = (m.potential(x + h) - m.potential(x - h)) / (2 * h)
        assert np.allclose(m.potential_d1(x), fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("name,params", SMOOTH_MEMBERS)
    def test_second_derivative_matches_first(self, name, params):
        m = make_catalog_measure(name, params)
        assert m.has_d2
        x = interior_grid(m)
        h = 1e-6 * (1.0 + np.abs(x))
        fd = (m.potential_d1(x + h) - m.potential_d1(x - h)) / (2 * h)
        assert np.allclose(m.potential_d2(x), fd, rtol=1e-4, atol=1e-6)

    def test_nonsmooth_members_refuse_d2(self):
        for name, params in [("laplace", (0.0, 1.0)), ("subbotin", (1.5,))]:
            m = make_catalog_measure(name, params)
            assert not m.has_d2
            with pytest.raises(NotImplementedError):
                m.potential_d2(np.array([0.3]))

    @pytest.mark.parametrize("name,params", ALL_MEMBERS)
    def test_convexity_on_grid(self, name, params):
        m = make_catalog_measure(name, params)
        x = interior_grid(m, count=200)
        d1 = m.potential_d1(x)
        assert np.all(np.diff(d1) >= -1e-9)


class TestCdfQuantile:
    @pytest.mark.parametrize("name,params", ALL_MEMBERS)
    def test_cdf_derivative_is_density(self, name, params):
        m = make_catalog_measure(name, params)
        x = interior_grid(m)
        h = 1e-6 * (1.0 + np.abs(x))
        fd = (m.cdf(x + h) - m.cdf(x - h)) / (2 * h)
        assert np.allclose(fd, m.pdf(x), rtol=5e-5, atol=1e-9)

    def test_gaussian_upper_quantile_against_quadrature_oracle(self):
        m = make_catalog_measure("gaussian", (0.0, 1.0))

        def cdf_oracle(x):
            val, _ = integrate.quad(
                lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                -12.0,
                x,
                epsabs=1e-14,
            )
            return val

        root = optimize.brentq(lambda x: cdf_oracle(x) - 0.975, 0.0, 4.0, xtol=1e-12)
        assert root == pytest.approx(1.959964, abs=1e-5)
        assert m.quantile(0.975) == pytest.approx(root, abs=1e-9)

    def test_uniform_variate_passthrough(self):
        m = make_catalog_measure("uniform", (0.0, 1.0))
        assert m.quantile(0.3) == pytest.approx(0.3, abs=1e-14)

    @pytest.mark.parametrize("name,params", ALL_MEMBERS)
    def test_quantile_round_trip(self, name, params):
        m = make_catalog_measure(name, params)
        p = np.geomspace(1e-6, 0.5, 30)
        p = np.concatenate([p, 1.0 - p[::-1]])
        x = m.quantile(p)
        back = m.quantile(m.cdf(x))
        assert np.max(np.abs(back - x)) < 1e-9

    def test_cdf_clamps_outside_support(self):
        u = make_catalog_measure("uniform", (0.0, 1.0))
        assert u.cdf(-3.0) == 0.0 and u.cdf(7.0) == 1.0
        b = make_catalog_measure("beta", (2.0, 2.0))
        assert b.cdf(-0.5) == 0.0 and b.cdf(1.5) == 1.0
        e = make_catalog_measure("exponential", (1.0,))
        assert e.cdf(-1.0) == 0.0

    def test_quantile_rejects_boundary_probabilities(self):
        m = make_catalog_measure("gaussian", (0.0, 1.0))
        for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(ValueError, match="strictly in"):
                m.quantile(bad)

    def test_quantile_monotone(self):
        m = make_catalog_measure("gamma", (2.0, 1.0))
        q = m.quantile(np.linspace(0.001, 0.999, 250))
        assert np.all(np.diff(q) > 0)


def _full_batch_quantile(m, p):
    """Reference solver: one safeguarded Newton loop over the whole batch.

    Every element is iterated until every element's move is below
    1e-15 (1 + |x|), from a bracket searched for every element.  A Newton
    trial outside the bracket falls back to bisection unless its move
    already meets that rule.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    a, b = m.support
    center, scale = m._location_scale()
    # an infinite end is center -/+ scale 2^k at the first k in 0..89 whose
    # CDF clears p; every element shares these levels, so each is evaluated
    # once (the far levels overflow inside some CDFs, harmlessly)
    levels = scale * 2.0 ** np.arange(90)
    lo = np.full_like(p, a)
    hi = np.full_like(p, b)
    with np.errstate(over="ignore"):
        if not np.isfinite(a):
            k = np.searchsorted(-m.cdf(center - levels), -p, side="left")
            lo = center - levels[np.minimum(k, 89)]
        if not np.isfinite(b):
            k = np.searchsorted(m.cdf(center + levels), p, side="left")
            hi = center + levels[np.minimum(k, 89)]
    x = np.clip(np.atleast_1d(m._quantile_init(p)), lo, hi)
    for _ in range(80):
        f = m.cdf(x) - p
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f >= 0.0, x, hi)
        dens = m.pdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / dens
        trial = x - step
        # a trial that rounds onto a bracket end is kept when its move
        # already meets the stopping rule; bisecting there would restart
        # from the wide initial bracket
        settled = np.abs(trial - x) <= 1e-15 * (1.0 + np.abs(x))
        fallback = (
            ~np.isfinite(trial) | (trial <= lo) | (trial >= hi) | (dens <= 0.0)
        ) & ~settled
        trial = np.where(fallback, 0.5 * (lo + hi), trial)
        if np.all(np.abs(trial - x) <= 1e-15 * (1.0 + np.abs(x))):
            return trial
        x = trial
    return x


def _counting_cdf(m, monkeypatch):
    """Wrap ``m.cdf``; the returned list holds the size of every call."""
    sizes = []
    cdf = m.cdf

    def counted(x):
        sizes.append(np.size(x))
        return cdf(x)

    monkeypatch.setattr(m, "cdf", counted)
    return sizes


def _recorded_pdf(m, monkeypatch):
    """Wrap ``m.pdf``; the returned list holds a copy of every argument."""
    args = []
    pdf = m.pdf

    def recorded(x):
        args.append(np.array(x, dtype=float))
        return pdf(x)

    monkeypatch.setattr(m, "pdf", recorded)
    return args


class _JumpMeasure(LogConcaveMeasure1D):
    """Stub whose CDF jumps from 1/4 to 3/4 at 0 and carries no density."""

    name = "jump"

    def __init__(self):
        super().__init__((-np.inf, np.inf))

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=float) < 0.0, 0.25, 0.75)

    def pdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def _quantile_init(self, p):
        return np.full_like(p, 3.0)


def _assert_matches_full_batch_oracle(m, p):
    """Residual within 4e-15, and agreement with the oracle in probability."""
    x = m.quantile(p)
    assert np.max(np.abs(m.cdf(x) - p)) <= 4e-15
    ref = _full_batch_quantile(m, p)
    assert np.max(np.abs(x - ref) * m.pdf(x)) <= 1e-14


class TestIntegrate:
    def test_unresolved_integrand_raises(self):
        # a jump inside the interval converges only like the step size
        def step(x):
            return (x > 1.0 / 3.0).astype(float)

        with pytest.raises(ArithmeticError, match=r"quadrature on \(0\.0, 1\.0\) reports error"):
            measures._integrate(step, 0.0, 1.0)
        # cut at the jump, both pieces are smooth
        assert measures._integrate(step, 0.0, 1.0, kinks=(1.0 / 3.0,)) == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    def test_nan_integrand_raises(self):
        with pytest.raises(ArithmeticError, match="reports error nan"):
            measures._integrate(lambda x: np.where(x < 2.0, 1.0, np.nan), 0.0, np.inf)

    @pytest.mark.parametrize(
        "a, b, want",
        [
            (0.0, 1.0, 0.5 * math.sqrt(math.pi) * math.erf(1.0)),
            (0.0, np.inf, 0.5 * math.sqrt(math.pi)),
            (-np.inf, -1.0, 0.5 * math.sqrt(math.pi) * math.erfc(1.0)),
            (-np.inf, np.inf, math.sqrt(math.pi)),
        ],
    )
    def test_each_substitution_is_exact(self, a, b, want):
        # tanh-sinh, exp-sinh (both sides) and sinh-sinh on exp(-x^2)
        got = measures._integrate(lambda x: np.exp(-x * x), a, b)
        assert abs(got - want) <= 1e-15


class _NoisyLogistic(LogConcaveMeasure1D):
    """Standard logistic whose upper-half CDF carries 2 ulps of noise.

    The sign of the noise follows a low bit of x, so F is deterministic
    but not monotone at the roundoff level, as a CDF summed from a table
    can be.
    """

    name = "noisy-logistic"

    def __init__(self):
        super().__init__((-np.inf, np.inf))

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return x + 2.0 * np.logaddexp(0.0, -x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        f = special.expit(x)
        sign = np.where((x.view(np.int64) >> 2) & 1, 2.0, -2.0)
        return f + np.where(f > 0.5, sign * np.spacing(f), 0.0)

    def _quantile_init(self, p):
        return special.logit(p)

    def _bracket(self, p):
        # valid for any F within a few ulps of the logistic; costs no call
        return special.logit(p) - 1.0, special.logit(p) + 1.0


class TestQuantileSolver:
    @pytest.mark.parametrize("lo, hi", [(0.99, 0.999), (1.0 - 1e-6, 1.0 - 1e-12)])
    def test_cdf_roundoff_costs_no_bisection(self, lo, hi, monkeypatch):
        # once the Newton steps stop halving, F's roundoff decides: a draw
        # within 4 spacings of p stops there instead of bisecting its bracket
        m = _NoisyLogistic()
        sizes = _counting_cdf(m, monkeypatch)
        per_draw = []
        for p in rng.stream(2024, 44).uniform(lo, hi, size=300):
            sizes.clear()
            x = m.quantile(np.array([p]))
            per_draw.append(sum(sizes))
            assert abs(m.cdf(x)[0] - p) <= 6.0 * np.spacing(p)
        # the start and at most three Newton steps
        assert max(per_draw) <= 4

    @pytest.mark.parametrize("name,params", ALL_MEMBERS)
    def test_matches_full_batch_oracle(self, name, params):
        _assert_matches_full_batch_oracle(
            make_catalog_measure(name, params),
            rng.stream(2024, 40).uniform(size=100_000),
        )

    @pytest.mark.parametrize(
        "base,params", [("uniform", (0.0, 1.0)), ("beta", (2.0, 3.0))]
    )
    def test_regularized_matches_full_batch_oracle(self, base, params):
        # the oracle iterates the whole batch 80 times through the node
        # table, about 2 s per 1e4 draws
        _assert_matches_full_batch_oracle(
            regularize(make_catalog_measure(base, params), 10),
            rng.stream(2024, 41).uniform(size=10_000),
        )

    @pytest.mark.parametrize("name,params,n", FLOOR_MEASURES)
    def test_regularized_draw_costs_at_most_two_cdf_evaluations(
        self, name, params, n, monkeypatch
    ):
        # the start interpolates the inverse of the node-table CDF, and the
        # table cell holding p is the bracket: one Newton step finishes
        m = regularize(make_catalog_measure(name, params), n)
        sizes = _counting_cdf(m, monkeypatch)
        for p in (
            (np.arange(512) + 0.5) / 512,
            rng.stream(2024, 43).uniform(size=10_000),
        ):
            sizes.clear()
            m.quantile(p)
            assert sum(sizes) <= 2 * p.size

    @pytest.mark.parametrize(
        "name,params",
        [
            ("gaussian", (0.0, 1.0)),
            ("logistic", (1.0, 0.5)),
            ("laplace", (0.5, 2.0)),
            ("beta", (2.0, 5.0)),
            ("gamma", (3.0, 2.0)),
            ("exponential", (1.5,)),
            ("uniform", (0.0, 1.0)),
        ],
    )
    def test_cdf_work_is_about_one_evaluation_per_draw(
        self, name, params, monkeypatch
    ):
        m = make_catalog_measure(name, params)
        p = rng.stream(2024, 42).uniform(size=100_000)
        sizes = _counting_cdf(m, monkeypatch)
        m.quantile(p)
        # a closed-form start settles on its first evaluation; a CDF-table
        # start (beta, gamma) is a cubic, not the root, and settles on its
        # second, as a regularized start does
        bound = 2.0 if m._tab_cubic is not None else 1.05
        assert sum(sizes) <= bound * p.size

    @pytest.mark.parametrize(
        "name,params,n",
        [(name, params, None) for name, params in ALL_MEMBERS]
        + [("uniform", (0.0, 1.0), 10), ("laplace", (0.0, 1.0), 5)],
    )
    def test_settled_start_never_reaches_pdf(self, name, params, n, monkeypatch):
        # a start within one spacing of p retires after its cdf evaluation,
        # so the first pdf call sees exactly the other starts, and no later
        # call sees a retired element again
        # regularized starts settle for under 1 % of draws, and each of
        # their node-table evaluations costs about 50 us
        m = make_catalog_measure(name, params)
        if n is not None:
            m = regularize(m, n)
        p = rng.stream(2024, 45).uniform(size=20_000 if n is None else 5_000)
        if m._tab_cubic is not None:
            # a table start is exact at the table's own F_j, where it is x_j
            p = np.concatenate([p, m._tab_f])
        x0 = m._quantile_init(p)
        a, b = m.support
        settled = (x0 > a) & (x0 < b) & (np.abs(m.cdf(x0) - p) <= np.spacing(p))
        assert np.any(settled)
        seen = _recorded_pdf(m, monkeypatch)
        x = m.quantile(p)
        assert np.array_equal(x[settled], x0[settled])
        if np.all(settled):
            assert seen == []
        else:
            assert np.array_equal(seen[0], x0[~settled])
            assert sum(v.size for v in seen) <= 2 * np.sum(~settled)

    @pytest.mark.parametrize("name,params", [("exponential", (1.0,)), ("uniform", (0.0, 1.0))])
    def test_exact_starts_cost_one_cdf_call_and_no_pdf(self, name, params, monkeypatch):
        m = make_catalog_measure(name, params)
        p = rng.stream(2024, 42).uniform(size=100_000)
        sizes = _counting_cdf(m, monkeypatch)
        seen = _recorded_pdf(m, monkeypatch)
        m.quantile(p)
        assert sizes == [p.size]
        assert seen == []

    def test_exact_start_comes_back_after_one_cdf_call(self, monkeypatch):
        m = make_catalog_measure("gaussian", (0.0, 1.0))
        grid = np.linspace(0.01, 0.99, 99)
        start = m._quantile_init(grid)
        p = grid[m.cdf(start) == grid][-1:]
        assert p.size == 1 and p[0] != 0.5
        x0 = m._quantile_init(p)
        sizes = _counting_cdf(m, monkeypatch)
        x = m.quantile(p)
        assert sizes == [1]
        assert x[0] == x0[0]

    def test_converges_where_cdf_roundoff_exceeds_the_step_tests(self):
        # a lower tail computed as 0.5 - 0.5 gammainc(...) is, near
        # p = 7e-10, a staircase of 5.5e-17 steps flat over 2.5e-8 in x, where
        # neither |F - p| <= spacing(p) nor a 1e-15 Newton step is reachable;
        # the draws there must still stop at roundoff-level residuals
        m = make_catalog_measure("subbotin", (1.5,))
        p = np.concatenate([np.geomspace(1e-15, 0.5, 2000), [7.135552700374309e-10]])
        x = m.quantile(p)
        assert np.max(np.abs(m.cdf(x) - p)) <= 4e-15

    @pytest.mark.parametrize("shape", [1.5, 3.0])
    def test_lower_tail_keeps_relative_accuracy(self, shape):
        m = make_catalog_measure("subbotin", (shape,))
        p = np.geomspace(1e-300, 0.5, 2000)
        x = m.quantile(p)
        assert np.max(np.abs(m.cdf(x) - p) / p) <= 1e-12

    @pytest.mark.parametrize("shape", [1.5, 3.0, 4.0])
    def test_lower_half_matches_upper_gamma_form(self, shape):
        # 0.5 (1 - gammainc) below the switch, gammaincc beyond it
        m = make_catalog_measure("subbotin", (shape,))
        x = np.linspace(-6.0, 0.0, 20001)[:-1]
        ref = 0.5 * special.gammaincc(1.0 / shape, np.abs(x) ** shape / shape)
        assert np.max(np.abs(m.cdf(x) - ref) / ref) <= 1e-13

    def test_infinite_start_is_not_accepted(self, monkeypatch):
        # a start at -inf, as the closed form gammaincinv(1/1.5, 1.0) = inf
        # once gave here, is bracketed and solved, not returned
        m = make_catalog_measure("subbotin", (1.5,))
        p = np.array([1e-300, 1e-200])

        def infinite_start(p):
            return np.full_like(p, -np.inf), np.full_like(p, -np.inf), np.full_like(p, np.inf)

        monkeypatch.setattr(m, "_quantile_start", infinite_start)
        assert np.all(np.isfinite(m.quantile(p)))

    def test_shapes(self):
        m = make_catalog_measure("gamma", (3.0, 2.0))
        p = rng.stream(2024, 43).uniform(size=(40, 3))
        x = m.quantile(p)
        assert x.shape == (40, 3)
        assert np.array_equal(x.ravel(), m.quantile(p.ravel()))
        x0 = m.quantile(np.float64(p[2, 1]))
        assert isinstance(x0, float) and x0 == x[2, 1]
        assert np.shape(m.quantile(p[:1, :1])) == (1, 1)

    @pytest.mark.parametrize("name,params", [("gaussian", (0.0, 1.0)), ("beta", (2.0, 3.0))])
    def test_empty_input(self, name, params):
        m = make_catalog_measure(name, params)
        for shape in [(0,), (0, 3)]:
            x = m.quantile(np.full(shape, 0.5))
            assert x.shape == shape and x.dtype == float

    def test_unconverged_element_raises(self):
        with pytest.raises(ArithmeticError, match=r"left 2 of 3 .*widest bracket"):
            _JumpMeasure().quantile(np.array([0.5, 0.75, 0.6]))

    def test_failed_bracket_search_raises(self):
        with pytest.raises(
            ArithmeticError, match=r"bracket search failed for 1 of 1 .*widest bracket"
        ):
            _JumpMeasure().quantile(np.array([0.1, 0.75]))


# the tabulated catalog members: every family without a closed-form inverse,
# with the members whose density is not analytic at an edge or at 0, and
# beta(100, 1), whose table ends early: next to x = 1 its F climbs 100
# spacings per double of x, too coarse to resolve a level above z = 7.26
TABLE_MEMBERS = [
    ("beta", (2.0, 5.0), None),
    ("beta", (100.0, 1.0), None),
    ("gamma", (3.0, 2.0), None),
    ("subbotin", (4.0,), None),
    ("subbotin", (1.5,), None),
    ("gamma", (2.5, 1.0), None),
    ("beta", (1.5, 2.5), None),
    ("subbotin", (3.0,), None),
    ("uniform", (0.0, 1.0), 10),
    ("beta", (2.0, 3.0), 10),
]


def _table_member(name, params, n):
    m = make_catalog_measure(name, params)
    return m if n is None else regularize(m, n)


class TestQuantileTable:
    @pytest.mark.parametrize(
        "name,params", [m for m in MASS_MEMBERS if m[0] in ("beta", "gamma", "subbotin")]
    )
    def test_no_inverse_incomplete_function(self, name, params, monkeypatch):
        def refuse(*args):
            raise AssertionError("an inverse incomplete beta or gamma function was called")

        monkeypatch.setattr(measures.special, "betaincinv", refuse)
        monkeypatch.setattr(measures.special, "gammaincinv", refuse)
        m = make_catalog_measure(name, params)
        p = np.concatenate(
            [rng.stream(2024, 47).uniform(size=10_000), np.geomspace(1e-300, 1e-6, 50)]
        )
        x = m.quantile(p)
        assert np.max(np.abs(m.cdf(x) - p)) <= 4e-15

    @pytest.mark.parametrize("name,params,n", TABLE_MEMBERS)
    def test_start_matches_bisection_oracle(self, name, params, n):
        # near p = 1 the doubles of F are spacing(p) apart, so a quantile is
        # only resolved to spacing(p) / pdf(x); everywhere else that term
        # is far below 1e-8 (1 + |x|).  A regularized table starts where
        # the uniform draws do, near p = 1e-17; below, its tail start is a
        # bracket end (test_tail_starts_bracket_the_root)
        m = _table_member(name, params, n)
        p = np.concatenate(
            [
                np.geomspace(1e-300, 0.5, 600),
                1.0 - np.geomspace(1e-16, 0.5, 300),
                rng.stream(2024, 48).uniform(size=2000),
            ]
        )
        p = p[p >= max(m._tab_f[0], 1e-300)]
        x0 = m._quantile_init(p)
        ref = _full_batch_quantile(m, p)
        with np.errstate(divide="ignore"):
            tol = 1e-8 * (1.0 + np.abs(ref)) + 4.0 * np.spacing(p) / m.pdf(ref)
        assert np.all(np.abs(x0 - ref) <= tol)

    @pytest.mark.parametrize("name,params,n", TABLE_MEMBERS)
    def test_cell_index_matches_binary_search(self, name, params, n):
        # the start's arithmetic cell index against searchsorted over F_j,
        # at random p and at every F_j and its neighbouring doubles
        m = _table_member(name, params, n)
        f = m._tab_f
        p = np.concatenate(
            [
                rng.stream(2024, 49).uniform(size=20_000),
                f, np.nextafter(f, 0.0), np.nextafter(f, 1.0),
            ]
        )
        p = p[(p >= f[0]) & (p < f[-1])]
        j = np.searchsorted(f, p, side="right") - 1
        x, lo, hi = m._quantile_start(p)
        assert np.array_equal(lo, m._tab_x[j])
        assert np.array_equal(hi, m._tab_x[j + 1])
        assert np.all((lo <= x) & (x <= hi))

    @pytest.mark.parametrize("name,params,n", TABLE_MEMBERS)
    def test_tail_starts_bracket_the_root(self, name, params, n):
        # beyond the table's ends the start comes with a bracket from a
        # power law at a finite edge, or from the exponential bound of a
        # log-concave tail
        m = _table_member(name, params, n)
        lower = np.geomspace(1e-320, m._tab_f[0], 20)[:-1]
        upper = 1.0 - np.geomspace(1e-16, 1.0 - m._tab_f[-1], 20)
        p = np.concatenate([lower, upper[upper >= m._tab_f[-1]]])
        x, lo, hi = m._quantile_start(p)
        assert np.all((lo <= x) & (x <= hi))
        assert np.all((m.cdf(lo) <= p) & (p <= m.cdf(hi)))
        # next to x = 1, F of beta(100, 1) rises 1.1e-14 per double of x,
        # so there the solve ends on its closed bracket, 2e-15 (1 + |x|) wide
        x = m.quantile(p)
        assert np.all(np.abs(m.cdf(x) - p) <= 4e-15 + 2e-15 * (1.0 + np.abs(x)) * m.pdf(x))

    @pytest.mark.parametrize("name,params", [("beta", (2.0, 3.0)), ("gamma", (3.0, 1.0))])
    def test_sampled_draw_costs_two_cdf_and_at_most_1_3_pdf_evaluations(
        self, name, params, monkeypatch
    ):
        # the sampled maps' tabulated members: a start, its cdf, one Newton
        # step and its cdf; a second pdf only where F's roundoff keeps the
        # Newton point more than one spacing from p
        m = make_catalog_measure(name, params)
        p = rng.stream(2024, 46).uniform(size=100_000)
        sizes = _counting_cdf(m, monkeypatch)
        seen = _recorded_pdf(m, monkeypatch)
        m.quantile(p)
        assert sum(sizes) <= 2.0 * p.size
        assert sum(v.size for v in seen) <= 1.3 * p.size


class TestSampling:
    def test_streams_are_reproducible(self):
        m = make_catalog_measure("logistic", (0.0, 1.0))
        a = m.sample(rng.stream(11, 0), size=100)
        b = m.sample(rng.stream(11, 0), size=100)
        c = m.sample(rng.stream(11, 1), size=100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gaussian_sample_mean(self):
        m = make_catalog_measure("gaussian", (0.0, 1.0))
        x = m.sample(rng.stream(2024, 7), size=1_000_000)
        assert abs(x.mean()) < 0.004
        assert abs(x.var() - 1.0) < 0.01

    def test_exponential_sample_moments(self):
        m = make_catalog_measure("exponential", (2.0,))
        x = m.sample(rng.stream(2024, 8), size=200_000)
        assert x.min() > 0
        assert abs(x.mean() - 0.5) < 0.005

    def test_radial_ball_half_radius_mass(self):
        ball = make_radial_measure("uniform-ball", 2)
        assert ball.radial_cdf(0.5) == pytest.approx(0.25, abs=1e-15)
        pts = ball.sample(rng.stream(2024, 9), size=200_000)
        frac = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
        assert abs(frac - 0.25) < 0.004


class TestGaussianMeasure:
    def setup_method(self):
        self.cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        self.g = GaussianMeasure([0.5, -1.0], self.cov)

    def test_gradient_and_hessian(self):
        x = np.array([0.3, 0.2])
        h = 1e-6
        eye = np.eye(2)
        fd_grad = np.array(
            [
                (self.g.potential(x + h * e) - self.g.potential(x - h * e)) / (2 * h)
                for e in eye
            ]
        )
        assert np.allclose(self.g.potential_grad(x), fd_grad, atol=1e-8)
        assert np.allclose(self.g.potential_hess(x), np.linalg.inv(self.cov))

    def test_box_mass_diagonal_matches_factors(self):
        g = GaussianMeasure([0.0, 0.0], np.diag([1.0, 4.0]))
        got = g.box_mass(((-1.0, 2.0), (0.0, 3.0)))
        want = (special.ndtr(2.0) - special.ndtr(-1.0)) * (
            special.ndtr(1.5) - special.ndtr(0.0)
        )
        assert got == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize(
        "box",
        [
            ((-1.0, 1.0), (-1.0, 1.0)),
            ((-3.3, 3.3), (-3.3, 3.3)),
            ((0.5, 4.0), (-5.0, -0.5)),
            ((-60.0, 60.0), (-60.0, 60.0)),
        ],
    )
    def test_box_mass_matches_adaptive_oracle(self, box):
        (x0, x1), (y0, y1) = box
        (m0, m1), c = self.g.mean, self.cov
        s0 = math.sqrt(c[0, 0])
        s_cond = math.sqrt(c[1, 1] - c[0, 1] ** 2 / c[0, 0])

        def strip(t):
            mid = m1 + c[0, 1] / c[0, 0] * (t - m0)
            phi = math.exp(-0.5 * ((t - m0) / s0) ** 2) / (s0 * math.sqrt(2 * math.pi))
            return phi * (
                special.ndtr((y1 - mid) / s_cond) - special.ndtr((y0 - mid) / s_cond)
            )

        want = _quad(strip, max(x0, m0 - 40.0 * s0), min(x1, m0 + 40.0 * s0))
        assert abs(self.g.box_mass(box) - want) <= 1e-12

    def test_box_mass_total(self):
        assert self.g.box_mass(((-60, 60), (-60, 60))) == pytest.approx(1.0, abs=1e-10)

    def test_box_mass_against_monte_carlo(self):
        pts = self.g.sample(rng.stream(5, 3), size=400_000)
        inside = np.mean(np.all((pts > -1.0) & (pts < 1.0), axis=1))
        box = self.g.box_mass(((-1.0, 1.0), (-1.0, 1.0)))
        assert abs(inside - box) < 0.004

    def test_sample_covariance(self):
        pts = self.g.sample(rng.stream(5, 4), size=500_000)
        assert np.allclose(pts.mean(axis=0), [0.5, -1.0], atol=0.01)
        assert np.allclose(np.cov(pts.T), self.cov, atol=0.02)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions disagree"):
            GaussianMeasure([0.0], np.eye(2))


class TestProductMeasure:
    def setup_method(self):
        self.p = ProductMeasure(
            [
                make_catalog_measure("uniform", (0.0, 1.0)),
                make_catalog_measure("exponential", (1.0,)),
                make_catalog_measure("laplace", (0.0, 1.0)),
            ]
        )

    def test_potential_is_sum_of_factors(self):
        x = np.array([0.4, 1.2, -0.3])
        want = sum(f.potential(x[i]) for i, f in enumerate(self.p.factors))
        assert self.p.potential(x) == pytest.approx(float(want))

    def test_box_mass(self):
        box = ((0.0, 0.5), (0.0, np.inf), (-np.inf, 0.0))
        assert self.p.box_mass(box) == pytest.approx(0.5 * 1.0 * 0.5, abs=1e-12)

    def test_sample_shape_and_marginals(self):
        pts = self.p.sample(rng.stream(6, 0), size=100_000)
        assert pts.shape == (100_000, 3)
        assert abs(np.mean(pts[:, 0]) - 0.5) < 0.005
        assert abs(np.mean(pts[:, 1]) - 1.0) < 0.02

    def test_rejects_non_measure_factor(self):
        with pytest.raises(TypeError):
            ProductMeasure([make_catalog_measure("uniform", (0, 1)), "nope"])


class TestRadialMeasure:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown radial family"):
            make_radial_measure("cone", 2)

    def test_ball_density_height(self):
        ball = make_radial_measure("uniform-ball", 2)
        assert ball.pdf(np.array([0.1, 0.1])) == pytest.approx(1.0 / math.pi)
        assert ball.pdf(np.array([2.0, 0.0])) == 0.0

    def test_radial_gaussian_matches_full_potential(self):
        rg = make_radial_measure("gaussian", 3)
        g = GaussianMeasure(np.zeros(3), np.eye(3))
        x = np.array([0.3, -0.8, 1.1])
        assert rg.potential(x) == pytest.approx(float(g.potential(x)), abs=1e-12)

    def test_radial_cdf_pdf_consistency(self):
        rg = make_radial_measure("gaussian", 5)
        r = np.linspace(0.3, 3.5, 20)
        h = 1e-6
        fd = (rg.radial_cdf(r + h) - rg.radial_cdf(r - h)) / (2 * h)
        assert np.allclose(fd, rg.radial_pdf(r), rtol=1e-6)

    def test_radial_quantile_round_trip(self):
        ball = make_radial_measure("uniform-ball", 4, 2.0)
        p = np.linspace(0.01, 0.99, 40)
        assert np.allclose(ball.radial_cdf(ball.radial_quantile(p)), p, atol=1e-12)

    def test_sampled_radii_follow_radial_cdf(self):
        rg = make_radial_measure("gaussian", 2)
        pts = rg.sample(rng.stream(6, 5), size=200_000)
        radii = np.linalg.norm(pts, axis=1)
        for r in (0.5, 1.0, 2.0):
            assert abs(np.mean(radii <= r) - rg.radial_cdf(r)) < 0.004


REGULARIZED_BASES = [
    ("gaussian", (0.0, 1.0)),
    ("uniform", (0.0, 1.0)),
    ("exponential", (1.0,)),
    ("gamma", (3.0, 1.0)),
    ("beta", (2.0, 3.0)),
    ("logistic", (0.0, 1.0)),
    ("laplace", (0.0, 1.0)),
    ("subbotin", (1.5,)),
    ("subbotin", (3.0,)),
]


def _adaptive_tilted(r, t):
    """(log mass, mean, variance, clipped) of exp(-V(y)) N(t - y; sig2) dy.

    The per-point adaptive path that the fixed rule replaced, kept as its
    oracle: a bounded scalar minimization finds the mode inside the
    support clipped to the base's 1e-15 quantiles, and three adaptive
    quadratures integrate the window of +-12 sig around it, shrunk to a
    boundary layer at either end.  ``clipped`` says the window was cut at
    a 1e-15 quantile on an infinite side, where this path is wrong.

    The quadratures ask for relative accuracy 1e-13 with no absolute
    floor.  The adaptive path asked for absolute 1e-12, which alone moves
    V' = (t - mean) / sig2 by up to 6e-9 at N = 40, and loses a boundary
    layer's variance, whose second moment is itself near 1e-12.
    """
    t = float(t)
    a, b = r.base.support

    def neg_g(y):
        return float(r.base.potential(y)) + 0.5 * (t - y) ** 2 / r.sig2

    def quad(f, lo, hi):
        pts = [p for p in r._y_cuts if lo < p < hi] or None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            value, err = integrate.quad(
                f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400, points=pts
            )
        assert err <= 1e-9 * max(1.0, abs(value))
        return value

    wlo = max(r._ylo, t - 60.0 * r.sig - 1.0)
    whi = min(r._yhi, t + 60.0 * r.sig + 1.0)
    if wlo >= whi:
        wlo, whi = r._ylo, r._yhi
    res = optimize.minimize_scalar(
        neg_g, bounds=(wlo, whi), method="bounded",
        options={"xatol": 1e-13 * (1.0 + abs(t))},
    )
    ystar, gstar = float(res.x), -float(res.fun)
    span = 12.0 * r.sig
    qlo = max(r._ylo, ystar - span)
    qhi = min(r._yhi, ystar + span)
    clipped = (qlo == r._ylo and not np.isfinite(a)) or (
        qhi == r._yhi and not np.isfinite(b)
    )

    def layer_edge(edge):
        width = abs(edge - ystar)
        if width <= 0.0:
            return edge
        d = width
        while d > 1e-6 * width and (
            neg_g(ystar + math.copysign(d, edge - ystar)) + gstar > 120.0
        ):
            d *= 0.5
        return ystar + math.copysign(min(2.0 * d, width), edge - ystar)

    qlo, qhi = layer_edge(qlo), layer_edge(qhi)
    i0, i1, i2 = (
        quad(lambda y, k=k: (y - ystar) ** k * math.exp(-neg_g(y) - gstar), qlo, qhi)
        for k in range(3)
    )
    mean = ystar + i1 / i0
    var = i2 / i0 - (i1 / i0) ** 2
    log_mass = gstar + math.log(i0) - 0.5 * math.log(2.0 * math.pi * r.sig2)
    return log_mass, mean, var, clipped


def _full_table_terms(r, t):
    """Every term of the node-table ``cdf`` and ``pdf`` sums at points ``t``.

    The sums over the whole node table that the per-point windows
    replaced, kept as their oracle: the CDF terms ndtr(z) (z negated for
    the upper tail, above the approximate mean) before their weights, and
    the density's log terms z with their largest value per point.
    """
    y = r._node_y
    upper = t > r._approx_mean
    z = (t[:, None] - r._shrink * y[None, :]) / r._tau
    z[upper] *= -1.0
    ndtr = special.ndtr(z)
    log_term = (
        -r.base.potential(y)[None, :]
        + np.log(r._node_q)[None, :]
        - 0.5 * ((t[:, None] - y[None, :]) / r.sig) ** 2
    )
    return ndtr, upper, log_term, np.max(log_term, axis=1)


def _exact_row_sums(a):
    """Row sums of ``a`` in double-double, by pairwise TwoSum: far below
    one rounding of the result."""
    hi, lo = a, np.zeros_like(a)
    while hi.shape[1] > 1:
        if hi.shape[1] % 2:
            pad = np.zeros((hi.shape[0], 1))
            hi, lo = np.hstack([hi, pad]), np.hstack([lo, pad])
        u, v = hi[:, ::2], hi[:, 1::2]
        hi = u + v
        part = hi - u
        lo = lo[:, ::2] + lo[:, 1::2] + ((u - (hi - part)) + (v - part))
    return hi[:, 0] + lo[:, 0]


def _full_table_cdf_pdf(r, t, terms):
    """(cdf, pdf) at ``t`` from the ``_full_table_terms``.

    The density is summed as the full sums summed it.  The CDF terms are
    summed exactly: the full sum's matrix-vector product carries up to 10
    spacings of roundoff on the 2,000-node tables of the kinked bases, more
    than the windows leave.
    """
    ndtr, upper, log_term, peak = terms
    tail = _exact_row_sums(ndtr * r._node_cdf_w)
    cdf = np.clip(np.where(upper, 1.0 - tail, tail), 0.0, 1.0)
    log_conv = peak + np.log(np.sum(np.exp(log_term - peak[:, None]), axis=1))
    shift = r._log_z + 0.5 * math.log(2.0 * math.pi * r.sig2)
    return cdf, np.exp(log_conv - 0.5 * t**2 / r.damp2 - shift)


class TestRegularize:
    def test_rejects_bad_inputs(self):
        with pytest.raises(TypeError):
            regularize("nope", 5)
        with pytest.raises(ValueError, match=">= 1"):
            regularize(make_catalog_measure("uniform", (0, 1)), 0)

    def test_gaussian_closed_form(self):
        # +-8 and +-10 lie beyond the base's 1e-15 quantiles, where the
        # tilted window must not be clipped
        x = np.array([-10.0, -8.0, -3.0, -1.0, 0.0, 0.7, 2.5, 8.0, 10.0])
        for n in (5, 40):
            r = regularize(make_catalog_measure("gaussian", (0.0, 1.0)), n)
            prec = 1.0 / (1.0 + 1.0 / n**2) + 1.0 / n
            sd = prec**-0.5
            assert np.allclose(r.potential_d2(x), prec, atol=1e-10)
            assert np.allclose(r.potential_d1(x), prec * x, atol=1e-10)
            want_v = 0.5 * prec * x**2 + math.log(math.sqrt(2 * math.pi) * sd)
            assert np.allclose(r.potential(x), want_v, atol=1e-10)
            assert np.allclose(r.cdf(x), special.ndtr(x / sd), atol=1e-11)

    @pytest.mark.parametrize(
        "base,params",
        [
            ("gamma", (1.5, 1.0)),
            ("gamma", (1.2, 1.0)),
            ("beta", (1.5, 2.5)),
            ("beta", (2.5, 2.0)),
        ],
    )
    def test_non_integer_shape_bases(self, base, params):
        # y**(s - 1) is not analytic at the support edge; the node table
        # grades its panels there
        for n in (1, 5, 10, 20):
            r = regularize(make_catalog_measure(base, params), n)
            assert r._total_mass() == pytest.approx(1.0, abs=1e-8)
            x = r._validation_grid()
            lo = r._ylo - 12.0 * r.sig
            cuts = (r._ylo,) + r._y_cuts + (r._yhi,)
            want = [_quad(lambda t: float(r.pdf(t)), lo, b, cuts) for b in x]
            assert np.max(np.abs(r.cdf(x) - want)) <= 1e-10

    @pytest.mark.parametrize(
        "base,params",
        [("gamma", (3.0, 100.0)), ("gaussian", (0.0, 0.01)), ("logistic", (0.0, 0.01))],
    )
    def test_narrow_bases(self, base, params):
        # scale 0.01 against sig = 0.2: the panels follow the base's scale
        r = regularize(make_catalog_measure(base, params), 5)
        assert abs(r._total_mass() - 1.0) <= 1e-15
        assert abs(float(np.sum(r._node_cdf_w)) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "base,params,n,nodes",
        [
            ("uniform", (0.0, 1.0), 10, 64),
            ("exponential", (1.0,), 10, 2224),
            ("gaussian", (0.0, 1.0), 5, 512),
            ("gaussian", (0.0, 0.25), 5, 128),
            ("beta", (2.0, 3.0), 10, 64),
            ("gaussian", (0.0, 1.0), 10, 1024),
            ("uniform", (0.0, 1.0), 8, 64),
        ],
    )
    def test_default_node_counts(self, base, params, n, nodes):
        # bases no narrower than the kernel keep the kernel-width panels
        r = regularize(make_catalog_measure(base, params), n)
        assert r._node_y.size == nodes

    @pytest.mark.parametrize("name,params", REGULARIZED_BASES)
    def test_fixed_rule_matches_adaptive_oracle(self, name, params):
        # V'' cancels a 1/sig2 = N^2 term, so its error scales with N^2
        for n in (5, 10, 20, 40):
            r = regularize(make_catalog_measure(name, params), n)
            u = (np.arange(512) + 0.5) / 512
            x = np.concatenate([np.linspace(-10.0, 10.0, 81), r.quantile(u[::16])])
            log_mass, mean, var, clipped = (
                np.array(c) for c in zip(*(_adaptive_tilted(r, t) for t in x))
            )
            keep = ~clipped
            v = 0.5 * x**2 / r.damp2 - log_mass + r._log_z
            d1 = (x - mean) / r.sig2 + x / r.damp2
            d2 = 1.0 / r.sig2 - var / r.sig2**2 + 1.0 / r.damp2
            assert np.all(np.abs(r.potential(x) - v)[keep] <= 1e-10)
            err1 = np.abs(r.potential_d1(x) - d1) / np.maximum(1.0, np.abs(d1))
            assert np.all(err1[keep] <= 1e-10)
            assert np.all(np.abs(r.potential_d2(x) - d2)[keep] <= 1e-10 * n**2)

    @pytest.mark.parametrize("name,params", REGULARIZED_BASES)
    def test_mass_rule_matches_adaptive_oracle(self, name, params, monkeypatch):
        sizes = []
        for n in (1, 5, 10, 20):
            r = regularize(make_catalog_measure(name, params), n)
            lo, hi = r._ylo - 12.0 * r.sig, r._yhi + 12.0 * r.sig
            cuts = (r._ylo,) + r._y_cuts + (r._yhi,)
            want = _quad(lambda t: float(r.pdf(t)), lo, hi, cuts)

            def counted(x, pdf=r.pdf):
                sizes.append(np.size(x))
                return pdf(x)

            monkeypatch.setattr(r, "pdf", counted)
            assert abs(r._total_mass() - want) <= 1e-12
        # one pdf call per measure
        assert len(sizes) == 4

    @pytest.mark.parametrize("name,params", REGULARIZED_BASES)
    def test_weight_integrals_match_adaptive_oracle(self, name, params):
        for n in (5, 10, 20, 40):
            r = regularize(make_catalog_measure(name, params), n)
            lo, hi = r._ylo, r._yhi
            peak = max(np.max(r._log_weight(np.linspace(lo, hi, 201))), -700.0)
            want = _quad(lambda y: math.exp(r._log_weight(y) - peak), lo, hi, r._y_cuts)
            assert abs(math.exp(r._log_z - peak) - want) <= 1e-12
            for k in (1, 2):
                want = _quad(
                    lambda y: y**k * math.exp(r._log_weight(y) - r._log_z), lo, hi, r._y_cuts
                )
                assert abs(r._weight_moment(k) - want) <= 1e-12

    @pytest.mark.parametrize("name,params", REGULARIZED_BASES)
    @pytest.mark.parametrize("n", [1, 5, 10, 20, 40])
    def test_windowed_sums_match_full_table(self, name, params, n):
        r = regularize(make_catalog_measure(name, params), n)
        lo, hi = r._node_y[0] - 12.0 * r.sig, r._node_y[-1] + 12.0 * r.sig
        t = np.concatenate(
            [
                np.linspace(lo, hi, 201),
                r._tab_x,
                [r._node_y[0] - 50.0 * r.sig, r._node_y[-1] + 50.0 * r.sig],
            ]
        )
        terms = _full_table_terms(r, t)
        want_cdf, want_pdf = _full_table_cdf_pdf(r, t, terms)
        got_cdf, got_pdf = r.cdf(t), r.pdf(t)
        assert np.all(np.abs(got_cdf - want_cdf) <= 4.0 * np.spacing(want_cdf))
        assert np.all(np.abs(got_pdf - want_pdf) <= 1e-13 * want_pdf)

        # every term a window leaves out is exactly 0, or exactly its full
        # weight on the side the head and tail sums cover
        ndtr, upper, log_term, peak = terms
        node = np.arange(r._node_y.size)
        start, is_upper = r._cdf_starts(t)
        assert np.array_equal(is_upper, upper)
        before = node < start[:, None]
        after = node >= start[:, None] + r._cdf_window
        full_side = np.where(upper[:, None], after, before)
        zero_side = np.where(upper[:, None], before, after)
        assert np.all(ndtr[full_side] == 1.0)
        assert np.all(ndtr[zero_side] == 0.0)
        start = r._pdf_starts(t)
        outside = (node < start[:, None]) | (node >= start[:, None] + r._pdf_window)
        assert np.all(np.exp(log_term - peak[:, None])[outside] == 0.0)

    def test_cdf_evaluates_each_point_on_its_window(self, monkeypatch):
        # 17,696 nodes; each of the 1,000 points sums at most 1,000 of them
        r = regularize(make_catalog_measure("logistic", (0.0, 1.0)), 40)
        t = np.linspace(r._node_y[0] - 1.0, r._node_y[-1] + 1.0, 1000)
        sizes = []

        def counted(z, ndtr=special.ndtr):
            sizes.append(np.size(z))
            return ndtr(z)

        monkeypatch.setattr(measures.special, "ndtr", counted)
        r.cdf(t)
        assert r._node_y.size > 17_000
        assert sum(sizes) <= 1000 * t.size
        assert r._pdf_window <= 1000

    @pytest.mark.parametrize(
        "name,params", [("laplace", (0.0, 1.0)), ("gamma", (1.5, 1.0))]
    )
    def test_one_mode_bisection_per_call(self, name, params, monkeypatch):
        r = regularize(make_catalog_measure(name, params), 10)
        x = np.linspace(-2.0, 6.0, 553)
        whole = r._pointwise(x)
        for i in range(x.size):
            single = r._pointwise(x[i:i + 1])
            for w, s in zip(whole, single):
                assert w[i] == s[0]

        calls = []

        def counted(y, d1=r.base.potential_d1):
            calls.append(np.size(y))
            return d1(y)

        monkeypatch.setattr(r.base, "potential_d1", counted)
        for size in (32, 553):
            t = np.unique(x[:size])
            calls.clear()
            r._tilt_modes(t)
            iterations = len(calls)
            calls.clear()
            r._pointwise(t)
            assert len(calls) == iterations <= 200
            assert set(calls) == {size}

    def test_block_size_does_not_change_values(self, monkeypatch):
        r = regularize(make_catalog_measure("laplace", (0.0, 1.0)), 10)
        x = np.concatenate([np.linspace(-3.0, 3.0, 50), [0.5, 0.5, -1.0]])
        want = [r.potential(x), r.potential_d1(x), r.potential_d2(x)]
        monkeypatch.setattr(measures, "_TILT_BLOCK", 3)
        got = [r.potential(x), r.potential_d1(x), r.potential_d2(x)]
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    def test_uniform_midpoint_density_near_one(self, reg_uniform_10):
        assert abs(reg_uniform_10.pdf(0.5) - 1.0) < 0.01

    def test_normalization(self, reg_uniform_10):
        assert reg_uniform_10._total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_curvature_floor_on_wide_grid(self):
        grid = np.linspace(-10.0, 10.0, 81)
        for base_name, params, n in [
            ("uniform", (0.0, 1.0), 5),
            ("laplace", (0.0, 1.0), 5),
        ]:
            r = regularize(make_catalog_measure(base_name, params), n)
            d2 = r.potential_d2(grid)
            assert np.min(d2) >= 1.0 / n - 1e-6

    def test_smooths_the_kink(self):
        r = regularize(make_catalog_measure("laplace", (0.0, 1.0)), 5)
        x = np.linspace(-0.5, 0.5, 11)
        d1 = r.potential_d1(x)
        assert np.all(np.diff(d1) > 0)
        assert np.all(np.abs(np.diff(d1, 2)) < 10.0)

    def test_density_converges_to_base(self):
        xs = np.linspace(0.25, 0.75, 11)
        sups = []
        for n in (5, 10, 20, 40):
            r = regularize(make_catalog_measure("uniform", (0.0, 1.0)), n)
            sups.append(np.max(np.abs(np.atleast_1d(r.pdf(xs)) - 1.0)))
        assert sups[-1] < sups[0]
        assert np.all(np.diff(np.log(sups)) < 0.0) or sups[-1] < 0.35 * sups[0]

    def test_derivative_consistency(self, reg_uniform_10):
        r = reg_uniform_10
        x = np.array([-0.4, 0.1, 0.5, 0.96, 1.7])
        h = 1e-4
        fd1 = (r.potential(x + h) - r.potential(x - h)) / (2 * h)
        assert np.allclose(r.potential_d1(x), fd1, rtol=1e-5, atol=1e-6)
        fd2 = (r.potential_d1(x + h) - r.potential_d1(x - h)) / (2 * h)
        assert np.allclose(r.potential_d2(x), fd2, rtol=1e-4, atol=1e-4)

    def test_quantile_round_trip(self, reg_uniform_10):
        r = reg_uniform_10
        p = np.array([1e-3, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-3])
        x = r.quantile(p)
        assert np.max(np.abs(r.quantile(r.cdf(x)) - x)) < 1e-9
        assert np.all(np.diff(x) > 0)
