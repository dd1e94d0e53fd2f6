"""Tests for monotone transport map constructions."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from otspec import rng
from otspec.brenier import (
    _sort_rows_descending,
    brenier_1d,
    brenier_gaussian,
    brenier_product,
    brenier_radial,
)
from otspec.concentration import default_experiments
from otspec.measures import (
    GaussianMeasure,
    make_catalog_measure,
    make_radial_measure,
)
from otspec.spd import (
    _validated,
    log_eigen_map,
    log_quadratic_form,
    random_spd,
    sqrt_factors,
)


def quad_expectation(m, f, eps=1e-14):
    """Quadrature expectation of f under a 1D measure."""
    a = m.quantile(eps) if not np.isfinite(m.support[0]) else m.support[0]
    b = m.quantile(1 - eps) if not np.isfinite(m.support[1]) else m.support[1]
    val, _ = integrate.quad(
        lambda x: f(x) * float(m.pdf(x)), a, b, epsabs=1e-13, limit=200
    )
    return val


def _residuals(tm, x):
    """V(x) + log det D^2 Phi(x) - W(T(x)) at points (m, n); zero when mass is conserved."""
    x = np.asarray(x, dtype=float).reshape(-1, tm.dim)
    log_det = np.sum(log_eigen_map(tm.hessian(x)), axis=-1)
    if tm.kind == "1d":
        x = x[:, 0]
    return tm.source.potential(x) + log_det - tm.target.potential(tm.map_points(x))


class TestMap1D:
    def test_gaussian_scaling(self):
        mu = make_catalog_measure("gaussian", (0.0, 1.0))
        nu = make_catalog_measure("gaussian", (0.0, 2.0))
        tm = brenier_1d(mu, nu)
        x = np.linspace(-3, 3, 13)
        assert np.allclose(tm.map_points(x), 2.0 * x, atol=1e-9)
        assert np.allclose(tm.hessian(x[:, None])[:, 0, 0], 2.0, atol=1e-12)

    def test_uniform_to_exponential(self):
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        nu = make_catalog_measure("exponential", (1.0,))
        tm = brenier_1d(mu, nu)
        x = np.linspace(0.05, 0.95, 19)
        assert np.allclose(tm.map_points(x), -np.log1p(-x), atol=1e-12)
        assert np.allclose(tm.hessian(x[:, None])[:, 0, 0], 1.0 / (1.0 - x), rtol=1e-12)

    def test_catalog_log_d2_keeps_its_bits(self):
        # a catalog measure's log density is -V, so Phi'' is the potential
        # difference bit for bit, on arrays and on scalars
        maps = [tm for label, tm in default_experiments() if tm.kind == "1d"]
        assert len(maps) == 4
        u = np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6, 1 - 1e-9]])
        for tm in maps:
            x = tm.source.quantile(u)
            t = tm.map_points(x)
            want = -tm.source.potential(x) + tm.target.potential(t)
            assert np.array_equal(tm._log_d2(x, t), want)
            assert tm._log_d2(x[3], t[3]) == want[3]

    def test_quadratic_form_is_direction_free(self):
        # in one dimension the normalized form theta H theta / theta.theta
        # collapses to Phi'' whatever the direction's length
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        nu = make_catalog_measure("exponential", (1.0,))
        tm = brenier_1d(mu, nu)
        x = np.array([0.2, 0.5, 0.8])
        want = tm.log_second_derivative(x)
        h = tm.hessian(x[:, None])
        for theta in ([1.0], [-3.0], [0.25]):
            unit = np.full((3, 1), theta[0] / abs(theta[0]))
            np.testing.assert_allclose(log_quadratic_form(h, unit), want, atol=1e-12)

    def test_second_derivative_is_map_slope(self):
        mu = make_catalog_measure("beta", (2.0, 3.0))
        nu = make_catalog_measure("logistic", (0.0, 1.0))
        tm = brenier_1d(mu, nu)
        x = mu.quantile(np.linspace(0.05, 0.95, 15))
        h = 1e-6
        fd = (tm.map_points(x + h) - tm.map_points(x - h)) / (2 * h)
        assert np.allclose(np.exp(tm.log_second_derivative(x)), fd, rtol=2e-6)

    @pytest.mark.parametrize(
        "src,dst",
        [
            (("uniform", (0.0, 1.0)), ("gaussian", (0.0, 1.0))),
            (("beta", (2.0, 2.0)), ("uniform", (0.0, 1.0))),
            (("gaussian", (1.0, 2.0)), ("gaussian", (0.0, 1.0))),
        ],
    )
    def test_pushforward_bank(self, src, dst):
        mu = make_catalog_measure(*src)
        nu = make_catalog_measure(*dst)
        tm = brenier_1d(mu, nu)
        bank = [lambda t: t, lambda t: t * t, lambda t: math.exp(-t * t)]
        for b in bank:
            lhs = quad_expectation(mu, lambda x: b(float(tm.map_points(x))))
            rhs = quad_expectation(nu, b)
            assert abs(lhs - rhs) < 1e-7

    def test_pushforward_with_unbounded_blowup(self):
        # the evaluation band [1e-9, 1-1e-9] clamps the exponential tail,
        # which costs a few 1e-7 on the second moment; the check runs at 1e-6
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        nu = make_catalog_measure("exponential", (1.0,))
        tm = brenier_1d(mu, nu)
        for b, want in [(lambda t: t, 1.0), (lambda t: t * t, 2.0)]:
            lhs = quad_expectation(mu, lambda x: b(float(tm.map_points(x))))
            assert abs(lhs - want) < 1e-6

    def test_composition_law(self):
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        nu = make_catalog_measure("gaussian", (0.0, 1.0))
        kappa = make_catalog_measure("exponential", (1.0,))
        direct = brenier_1d(mu, kappa)
        first = brenier_1d(mu, nu)
        second = brenier_1d(nu, kappa)
        x = np.linspace(0.02, 0.98, 25)
        composed = second.map_points(first.map_points(x))
        assert np.allclose(composed, direct.map_points(x), atol=1e-7)

    def test_monotonicity_spot_check(self):
        mu = make_catalog_measure("gaussian", (0.0, 1.0))
        nu = make_catalog_measure("logistic", (0.5, 2.0))
        tm = brenier_1d(mu, nu)
        r = rng.stream(31, 0)
        x = mu.quantile(r.uniform(1e-4, 1 - 1e-4, size=10_000))
        y = mu.quantile(r.uniform(1e-4, 1 - 1e-4, size=10_000))
        tx, ty = tm.map_points(x), tm.map_points(y)
        assert np.min((tx - ty) * (x - y)) >= -1e-10

    def test_rejects_non_1d_input(self):
        with pytest.raises(TypeError):
            brenier_1d(GaussianMeasure([0.0], np.eye(1)), "nope")


class TestLinearMap:
    def test_identity_source(self):
        sigma = random_spd(rng.stream(31, 1), 3)
        mu = GaussianMeasure(np.zeros(3), np.eye(3))
        nu = GaussianMeasure(np.zeros(3), sigma)
        tm = brenier_gaussian(mu, nu)
        half, _ = sqrt_factors(sigma)
        assert np.allclose(tm.matrix, half, atol=1e-10)

    def test_diagonal_ratio(self):
        mu = GaussianMeasure([0.0, 1.0], np.diag([4.0, 1.0]))
        nu = GaussianMeasure([2.0, 0.0], np.diag([1.0, 9.0]))
        tm = brenier_gaussian(mu, nu)
        assert np.allclose(tm.matrix, np.diag([0.5, 3.0]), atol=1e-12)
        assert np.allclose(tm.map_points(np.array([2.0, 2.0])), [3.0, 3.0])

    def test_defining_identity_random(self):
        r = rng.stream(31, 2)
        s1, s2 = random_spd(r, 4), random_spd(r, 4)
        mu = GaussianMeasure(np.zeros(4), s1)
        nu = GaussianMeasure(np.zeros(4), s2)
        a = brenier_gaussian(mu, nu).matrix
        assert np.max(np.abs(a @ s1 @ a - s2)) < 1e-9

    def test_pushforward_covariance(self):
        r = rng.stream(31, 3)
        s1, s2 = random_spd(r, 3), random_spd(r, 3)
        mu = GaussianMeasure([1.0, -1.0, 0.0], s1)
        nu = GaussianMeasure([0.0, 2.0, 1.0], s2)
        tm = brenier_gaussian(mu, nu)
        pts = mu.sample(rng.stream(31, 4), size=200_000)
        mapped = tm.map_points(pts)
        assert np.allclose(mapped.mean(axis=0), nu.mean, atol=0.02)
        scale = np.sqrt(np.outer(np.diag(s2), np.diag(s2)))
        assert np.max(np.abs(np.cov(mapped.T) - s2) / scale) < 0.02

    def test_residual_is_zero(self):
        r = rng.stream(31, 5)
        mu = GaussianMeasure(np.zeros(2), random_spd(r, 2))
        nu = GaussianMeasure(np.ones(2), random_spd(r, 2))
        tm = brenier_gaussian(mu, nu)
        x = mu.sample(r, size=5)
        assert np.all(np.abs(_residuals(tm, x)) < 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            brenier_gaussian(
                GaussianMeasure(np.zeros(2), np.eye(2)),
                GaussianMeasure(np.zeros(3), np.eye(3)),
            )


class TestProductMap:
    def make_pair(self):
        u_exp = brenier_1d(
            make_catalog_measure("uniform", (0.0, 1.0)),
            make_catalog_measure("exponential", (1.0,)),
        )
        return brenier_product([u_exp, u_exp])

    def test_identity_factors(self):
        g = make_catalog_measure("gaussian", (0.0, 1.0))
        tm = brenier_product([brenier_1d(g, g), brenier_1d(g, g)])
        x = np.array([0.3, -0.7])
        assert tm.hessian(x).shape == (2, 2)
        assert np.allclose(tm.hessian(x), np.eye(2), atol=1e-12)
        assert np.allclose(log_eigen_map(tm.hessian(x)), 0.0, atol=1e-12)

    def test_quoted_spectrum(self):
        tm = self.make_pair()
        spec = log_eigen_map(tm.hessian(np.array([0.5, 0.9])))
        assert np.allclose(spec, [math.log(10.0), math.log(2.0)], atol=1e-12)

    def test_spectra_match_single_point_path(self):
        tm = self.make_pair()
        pts = np.column_stack(
            [np.linspace(0.1, 0.9, 7), np.linspace(0.2, 0.8, 7)]
        )
        batch = _sort_rows_descending(tm._factor_log_d2(pts))
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], log_eigen_map(tm.hessian(p)), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_spectra_order_matches_sort(self, n):
        # every ordering of n distinct values, ties and infinities; the
        # compare-exchange network must give what sorting each row gives
        rows = np.array(list(itertools.permutations(range(n))), dtype=float) - 1.5
        draws = rng.stream(2024, 60).choice(
            [-np.inf, -1.0, 0.0, 0.0, 2.5, np.inf], size=(200, n)
        )
        rows = np.concatenate([rows, draws])
        got = _sort_rows_descending(np.array(rows, order="F"))
        assert np.array_equal(got, -np.sort(-rows, axis=1))
        assert got.flags.f_contiguous

    def test_tensor_pushforward(self):
        factors = [
            brenier_1d(
                make_catalog_measure("uniform", (0.0, 1.0)),
                make_catalog_measure("gaussian", (0.0, 1.0)),
            ),
            brenier_1d(
                make_catalog_measure("beta", (2.0, 2.0)),
                make_catalog_measure("uniform", (0.0, 1.0)),
            ),
            brenier_1d(
                make_catalog_measure("gaussian", (0.0, 1.0)),
                make_catalog_measure("gaussian", (1.0, 0.5)),
            ),
        ]
        tm = brenier_product(factors)
        # the bank factorizes across coordinates, so the tensor quadrature
        # reduces to per-coordinate integrals
        for i, f in enumerate(factors):
            lhs = quad_expectation(f.source, lambda x: float(f.map_points(x)) ** 2)
            rhs = quad_expectation(f.target, lambda t: t * t)
            assert abs(lhs - rhs) < 1e-6
        x = np.array([0.4, 0.6, 0.1])
        assert tm.map_points(x).shape == (3,)

    def test_log_quadratic_forms(self):
        # along a unit theta the form is sum_i theta_i^2 Phi_i''(x_i)
        tm = self.make_pair()
        pts = np.array([[0.5, 0.9], [0.2, 0.4]])
        theta = np.array([0.6, 0.8])
        got = log_quadratic_form(tm.hessian(pts), np.broadcast_to(theta, pts.shape))
        d2 = np.column_stack(
            [np.exp(f.log_second_derivative(pts[:, i])) for i, f in enumerate(tm.factors)]
        )
        np.testing.assert_allclose(got, np.log(d2 @ theta**2), rtol=0.0, atol=1e-12)

    def test_residual_is_zero(self):
        tm = self.make_pair()
        assert abs(_residuals(tm, [0.3, 0.6])[0]) < 1e-12

    def test_rejects_non_1d_factor(self):
        with pytest.raises(TypeError):
            brenier_product(["nope"])
        with pytest.raises(ValueError):
            brenier_product([])


class TestRadialMap:
    def test_ball_scaling(self):
        mu = make_radial_measure("uniform-ball", 3, 1.0)
        nu = make_radial_measure("uniform-ball", 3, 2.5)
        tm = brenier_radial(mu, nu)
        r = rng.stream(31, 6)
        pts = mu.sample(r, size=50)
        assert np.allclose(tm.map_points(pts), 2.5 * pts, atol=1e-7)
        spec = tm._radial_log_spectra(tm._radii(pts))
        assert np.allclose(spec, math.log(2.5), atol=1e-7)

    def test_disk_to_gaussian_profile(self):
        mu = make_radial_measure("uniform-ball", 2, 1.0)
        nu = make_radial_measure("gaussian", 2, 1.0)
        tm = brenier_radial(mu, nu)
        r = np.linspace(0.05, 0.95, 19)
        want = np.sqrt(-2.0 * np.log1p(-(r**2)))
        assert np.allclose(tm.profile(r), want, rtol=1e-10)

    def test_fd_hessian_matches_spectrum(self):
        mu = make_radial_measure("uniform-ball", 3, 1.0)
        nu = make_radial_measure("gaussian", 3, 1.0)
        tm = brenier_radial(mu, nu)
        r = rng.stream(31, 7)
        radii = mu.radial_quantile(r.uniform(0.05, 0.9, size=100))
        dirs = r.standard_normal((100, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = radii[:, None] * dirs
        h = 1e-6
        eye = np.eye(3)
        for x in pts:
            fd = np.empty((3, 3))
            for j in range(3):
                fd[:, j] = (
                    tm.map_points(x + h * eye[j]) - tm.map_points(x - h * eye[j])
                ) / (2 * h)
            fd = 0.5 * (fd + fd.T)
            got = np.sort(np.linalg.eigvalsh(fd))[::-1]
            want = np.exp(tm._radial_log_spectra(tm._radii(x[None, :]))[0])
            assert np.allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("dim", [2, 8])
    def test_hessian_stack_is_exactly_symmetric_and_built_in_place(self, dim):
        # e_i e_j == e_j e_i in floating point, so the stack is its own
        # transpose bit for bit, the origin and a point at 1e-9 included;
        # the tangential part is built in the projector's buffer, so at
        # n = 8, where the stacks dominate, the peak stays within 2.5 stacks
        tm = brenier_radial(
            make_radial_measure("uniform-ball", dim), make_radial_measure("gaussian", dim)
        )
        x = tm.source.sample(rng.stream(31, 13), size=20_000)
        x[:2] = 0.0
        x[1, 0] = 1e-9
        tracemalloc.start()
        try:
            h = tm.hessian(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bits = h.view(np.int64)
        assert np.array_equal(bits, np.swapaxes(bits, -2, -1))
        assert np.array_equal(h[0], h[0, 0, 0] * np.eye(dim))
        if dim == 8:
            assert peak <= 2.5 * h.nbytes

    def test_origin_limit(self):
        mu = make_radial_measure("uniform-ball", 2, 1.0)
        nu = make_radial_measure("gaussian", 2, 1.0)
        tm = brenier_radial(mu, nu)
        h0 = tm.hessian(np.zeros(2))
        assert np.allclose(h0, h0[0, 0] * np.eye(2), atol=1e-6)
        # phi(r) = sqrt(-2 log(1 - r^2)) has slope sqrt(2) at the origin
        assert h0[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-5)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize(
        "pair",
        [
            (("uniform-ball",), ("gaussian",)),
            (("gaussian",), ("uniform-ball",)),
            (("uniform-ball",), ("uniform-ball", 2.5)),
            # the target law's table is placed by its quartiles, not by 0 and 1
            (("uniform-ball",), ("gaussian", 1e-3)),
        ],
        ids=["ball-gaussian", "gaussian-ball", "ball-ball", "ball-narrow-gaussian"],
    )
    def test_fast_profile_matches_exact(self, pair, dim):
        (src, *src_params), (dst, *dst_params) = pair
        mu = make_radial_measure(src, dim, *src_params)
        tm = brenier_radial(mu, make_radial_measure(dst, dim, *dst_params))
        r = mu.radial_quantile(np.linspace(0.001, 0.999, 400))
        exact = tm.profile(r)
        # the table's quintic start lands on the root but for rounding:
        # 8.1e-15 at worst over these cases
        assert np.max(np.abs(tm.profile_fast(r) - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 64])
    def test_fast_log_spectrum_matches_exact_down_to_small_radii(self, dim):
        # 4,000 radii from 1e-4 to r_hi, geometrically spaced: near the
        # origin u = r**n reads the table's stretched lower tail, where its
        # cells are 12.5 times wider.  Worst gaps, n = 2 ... 64: 3.6e-8,
        # 2.1e-8, 2.4e-7, 1.1e-7, 3.4e-8, 9.7e-9
        tm = brenier_radial(
            make_radial_measure("uniform-ball", dim),
            make_radial_measure("gaussian", dim),
        )
        r = np.geomspace(1e-4, tm._r_hi, 4000)
        fast = np.log(tm._eigen_pair(r, fast=True))
        exact = np.log(tm._eigen_pair(r))
        assert np.max(np.abs(fast - exact)) <= 1e-6

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_fast_profile_is_positive_down_to_the_origin(self, dim):
        # at n = 64, u = r**64 underflows to 0 below r = 1e-5
        tm = brenier_radial(
            make_radial_measure("uniform-ball", dim),
            make_radial_measure("gaussian", dim),
        )
        r = np.concatenate([[0.0], np.geomspace(1e-300, tm._r_hi, 2000)])
        phi = tm.profile_fast(r)
        assert np.all(np.isfinite(phi) & (phi > 0.0))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_fast_log_variance_matches_exact_at_ball_edge(self, dim):
        # the target tail sqrt(-2 log(1 - u)) is steepest at the ball edge,
        # where the fast profile reads the top of the target law's table
        tm = brenier_radial(
            make_radial_measure("uniform-ball", dim),
            make_radial_measure("gaussian", dim),
        )
        pts = tm.source.sample(rng.stream(2024, 50 + dim), size=100_000)
        r = np.linalg.norm(pts, axis=1)
        fast = np.log(tm._eigen_pair(r, fast=True))
        exact = np.log(tm._eigen_pair(r))
        # 9e-15 at worst over these dimensions
        assert np.all(np.abs(np.var(fast, axis=1) - np.var(exact, axis=1)) <= 1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 16])
    @pytest.mark.parametrize("scale", [1.0, 3.7, 1.5e-154, 6.7e153])
    def test_radii_in_the_rescaled_frame(self, dim, scale):
        # the power-of-two frame is exact: where the squared coordinates are
        # normal doubles the radii are np.linalg.norm's bit for bit, and at
        # the edges of the accepted scales, where norm overflows or loses
        # the squares to underflow, they keep full precision
        tm = brenier_radial(
            make_radial_measure("gaussian", dim, scale), make_radial_measure("uniform-ball", dim)
        )
        pts = tm.source.sample(rng.stream(31, 13), size=1000)
        r = tm._radii(pts)
        if 1e-100 < scale < 1e100:
            assert np.array_equal(r, np.linalg.norm(pts, axis=1))
        np.testing.assert_allclose(r, np.linalg.norm(pts / scale, axis=1) * scale, rtol=1e-15)
        assert np.all(np.isfinite(tm._radial_log_spectra(r)))

    def test_residual_bound(self):
        mu = make_radial_measure("uniform-ball", 3, 1.0)
        nu = make_radial_measure("gaussian", 3, 1.0)
        tm = brenier_radial(mu, nu)
        r = rng.stream(31, 8)
        pts = mu.radial_quantile(r.uniform(0.02, 0.98, size=100))[:, None] * _dirs(r, 100, 3)
        assert np.all(np.abs(_residuals(tm, pts)) < 1e-5)

    def test_monotonicity_spot_check(self):
        mu = make_radial_measure("gaussian", 2, 1.0)
        nu = make_radial_measure("uniform-ball", 2, 3.0)
        tm = brenier_radial(mu, nu)
        r = rng.stream(31, 9)
        x = mu.sample(r, size=10_000)
        y = mu.sample(r, size=10_000)
        gap = np.sum((tm.map_points(x) - tm.map_points(y)) * (x - y), axis=1)
        assert gap.min() >= -1e-10

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            brenier_radial(
                make_radial_measure("gaussian", 1),
                make_radial_measure("gaussian", 1),
            )


def _dirs(r, count, dim):
    d = r.standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class TestResidualAndSpectrum:
    def test_1d_catalog_pairs_residual(self):
        pairs = [
            (("gaussian", (0.0, 1.0)), ("exponential", (1.0,))),
            (("uniform", (0.0, 1.0)), ("logistic", (0.0, 1.0))),
            (("gamma", (2.0, 1.0)), ("gaussian", (0.0, 1.0))),
        ]
        for src, dst in pairs:
            mu = make_catalog_measure(*src)
            nu = make_catalog_measure(*dst)
            tm = brenier_1d(mu, nu)
            x = mu.quantile(np.linspace(0.005, 0.995, 100))
            assert np.all(np.abs(_residuals(tm, x)) < 1e-7)

    def test_residual_outside_support(self):
        # outside the source support the Hessian degenerates to 0, and the
        # SPD boundary refuses it instead of returning a log of zero
        tm = brenier_1d(
            make_catalog_measure("uniform", (0.0, 1.0)),
            make_catalog_measure("gaussian", (0.0, 1.0)),
        )
        assert tm.source.potential(1.5) == math.inf
        with pytest.raises(ValueError, match="not positive definite"):
            _residuals(tm, [0.5, 1.5])

    def test_spectrum_matches_log_eigen_map(self):
        mu = make_radial_measure("uniform-ball", 3, 1.0)
        nu = make_radial_measure("gaussian", 3, 1.0)
        tm = brenier_radial(mu, nu)
        x = np.array([0.2, -0.3, 0.4])
        h = tm.hessian(x)
        via_eigh = np.log(np.linalg.eigh(h)[0])[::-1]
        via_map = log_eigen_map(h)
        assert np.array_equal(via_eigh, via_map)

    def test_hessians_are_spd(self):
        mu = make_catalog_measure("gaussian", (0.0, 1.0))
        nu = make_catalog_measure("laplace", (0.0, 1.0))
        tm = brenier_1d(mu, nu)
        h = tm.hessian(np.array([[-2.0], [-0.5], [0.1], [1.7]]))
        assert h.shape == (4, 1, 1)
        _validated(h, "hessian", stack=True)


def _stack_case(kind):
    """A map of the given kind and 40 points of its source, shape (40, n)."""
    r = rng.stream(31, 11)
    if kind == "1d":
        mu = make_catalog_measure("beta", (2.0, 3.0))
        tm = brenier_1d(mu, make_catalog_measure("logistic", (0.0, 1.0)))
        return tm, mu.quantile(r.uniform(0.01, 0.99, size=40))[:, None]
    if kind == "gaussian":
        mu = GaussianMeasure(np.zeros(3), random_spd(r, 3))
        tm = brenier_gaussian(mu, GaussianMeasure(np.ones(3), random_spd(r, 3)))
        return tm, mu.sample(r, size=40)
    if kind == "product":
        tm = brenier_product(
            [
                _pair_1d(("uniform", (0.0, 1.0)), ("exponential", (1.0,))),
                _pair_1d(("gaussian", (0.0, 1.0)), ("logistic", (0.0, 1.0))),
                _pair_1d(("beta", (2.0, 3.0)), ("gaussian", (0.0, 1.0))),
            ]
        )
        return tm, tm.source.sample(r, size=40)
    tm = brenier_radial(
        make_radial_measure("uniform-ball", 3), make_radial_measure("gaussian", 3)
    )
    pts = tm.source.sample(r, size=40)
    pts[0] = 0.0  # the origin takes the isotropic branch
    return tm, pts


def _pair_1d(src, dst):
    return brenier_1d(make_catalog_measure(*src), make_catalog_measure(*dst))


def _point_log_spectra(tm, x):
    """Descending log-spectra at the points x of shape (m, n), column-major,
    from the pieces each kind's coupled path reads once its draws are
    points: log Phi'', the constant spectrum, the factors' log Phi_i''
    through the compare-exchange network, or the spectrum at the radii."""
    if tm.kind == "1d":
        return tm.log_second_derivative(x[:, 0])[:, None]
    if tm.kind == "gaussian-linear":
        return np.broadcast_to(tm._log_spec, x.shape).copy(order="F")
    if tm.kind == "product":
        return _sort_rows_descending(tm._factor_log_d2(x))
    return tm._radial_log_spectra(tm._radii(x))


@pytest.mark.parametrize("kind", ["1d", "gaussian", "product", "radial"])
class TestStackedHessians:
    def test_stack_matches_single_points(self, kind):
        tm, x = _stack_case(kind)
        h = tm.hessian(x)
        assert h.shape == x.shape + (tm.dim,)
        grid = tm.hessian(x.reshape(4, 10, tm.dim))
        assert np.array_equal(grid.reshape(h.shape), h)
        # a lone radial point evaluates its radius as a 0-d array, which
        # rounds the profile's special functions differently at 1e-14
        rtol = 1e-13 if kind == "radial" else 0.0
        for k in range(x.shape[0]):
            np.testing.assert_allclose(h[k], tm.hessian(x[k]), rtol=rtol, atol=0.0)

    def test_points_of_another_dimension_are_refused(self, kind):
        # a last axis other than n is refused, not read in part (a 1-D
        # Hessian of three scalars would be the first scalar's) or dropped
        # or broadcast.  A 1-D map_points keeps its scalar convention, which
        # the product and the Gamma_2 triples read per coordinate
        tm, _ = _stack_case(kind)
        n = tm.dim
        oracles = [tm.hessian] if kind == "1d" else [tm.hessian, tm.map_points]
        shapes = [(n + 2,), (4, n + 2)] + ([(4, n - 1)] if n > 1 else [])
        for oracle, shape in itertools.product(oracles, shapes):
            with pytest.raises(ValueError, match=re.escape(f"shape (..., {n}), got {shape}")):
                oracle(np.full(shape, 0.25))

    def test_log_spectrum_matches_log_spectra(self, kind):
        tm, x = _stack_case(kind)
        got = log_eigen_map(tm.hessian(x))
        # the spectra read the radial profile from the target law's table
        # start and the Hessian reads the exact one; at the origin point
        # (r = 1e-7, u = 1e-21, in the table's stretched tail) they differ
        # by 2.4e-9, elsewhere by at most 2e-14
        atol = 3e-8 if kind == "radial" else 1e-12
        np.testing.assert_allclose(got, _point_log_spectra(tm, x), rtol=0.0, atol=atol)

    def test_log_spectra_order_the_hessian_spectrum(self, kind):
        # the spectra are ordered without an eigensolver; the exact path
        # sorts eigvalsh of the full Hessian.  Only the ordering and
        # eigvalsh roundoff (a few eps of |H| / lambda in log) separate the
        # two, down to 1e-6 from the origin (inside 1e-7 the Hessian takes
        # its isotropic branch), but for the radial profiles: the spectra
        # read the target law's table start and the Hessian the exact
        # inverse CDF, which differ by 4.1e-9 in log at r = 1e-6 (u = 1e-18,
        # in the table's stretched tail) and by at most 8.2e-14 elsewhere
        tm, x = _stack_case(kind)
        atol = 1e-13
        if kind == "radial":
            near = np.geomspace(1e-6, 1e-1, 11)[:, None] * _dirs(rng.stream(31, 12), 11, 3)
            x = np.concatenate([x[1:], near])
            atol = np.where(np.linalg.norm(x, axis=1) < 2e-6, 1e-8, 1e-13)[:, None]
        got = _point_log_spectra(tm, x)
        assert got.flags.f_contiguous
        want = np.log(np.linalg.eigvalsh(tm.hessian(x)))[:, ::-1]
        assert np.all(np.abs(got - want) <= atol)
