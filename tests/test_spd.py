import numpy as np
import pytest
import scipy.linalg

from otspec.brenier import brenier_gaussian
from otspec.measures import GaussianMeasure
from otspec.rng import stream
from otspec.spd import (
    _validated,
    curve_length,
    geodesic_point,
    local_norm,
    log_eigen_map,
    log_quadratic_form,
    majorization_check,
    numeric_upper_gradient,
    random_spd,
    spd_distance,
    spectrum_derivative,
    sqrt_factors,
)


def geodesic_samples(a, b, m):
    return geodesic_point(a, b, np.linspace(0, 1, m))


def geodesic_point_oracle(a, b, s):
    """γ(s) evaluated alone, from its own eigendecompositions."""
    wa, va = np.linalg.eigh(a)
    sa = (va * np.sqrt(wa)) @ va.T
    isa = (va / np.sqrt(wa)) @ va.T
    c = isa @ b @ isa
    wc, vc = np.linalg.eigh(0.5 * (c + c.T))
    g = sa @ ((vc * wc**s) @ vc.T) @ sa
    return 0.5 * (g + g.T)


def apply_scalar(a, f):
    """Σ f(λᵢ) vᵢvᵢᵗ from the eigendecomposition the validator returns."""
    _, w, v = _validated(a, "a")
    return (v * f(w)) @ v.T


class TestContainers:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            log_eigen_map([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            log_eigen_map([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            local_norm(np.eye(2), np.ones((2, 3)))

    def test_spectrum_cached_descending(self):
        a = np.diag([1.0, 3.0, 2.0])
        sym, w, v = _validated(a, "a")
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])
        np.testing.assert_allclose((v * w) @ v.T, sym, atol=1e-12)

    def test_stack_names_the_asymmetric_matrix(self):
        stack = np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2)])
        with pytest.raises(ValueError, match=r"m\[1\] is not symmetric: asymmetry"):
            _validated(stack, "m", stack=True)

    def test_stack_names_the_indefinite_matrix(self):
        stack = np.stack([np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(
            ValueError, match=r"m\[2\] is not positive definite: smallest eigenvalue -1\.0"
        ):
            _validated(stack, "m", stack=True)

    def test_stored_covariance_and_map_are_read_only(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        mu = GaussianMeasure(np.zeros(2), cov)
        nu = GaussianMeasure(np.ones(2), np.eye(2))
        for stored in (mu.covariance, brenier_gaussian(mu, nu).matrix):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 5.0
        cov[0, 0] = 5.0
        assert mu.covariance[0, 0] == 2.0


class TestMatrixFunction:
    def test_identity_function(self):
        rng = stream(11, 0)
        a = random_spd(rng, 4)
        np.testing.assert_allclose(
            apply_scalar(a, lambda w: w), a, atol=1e-12
        )

    def test_log_diagonal(self):
        a = np.diag([np.e, np.e**2])
        np.testing.assert_allclose(
            apply_scalar(a, np.log), np.diag([1.0, 2.0]), atol=1e-14
        )

    def test_sqrt_squares_back(self):
        rng = stream(11, 1)
        for _ in range(20):
            a = random_spd(rng, 5)
            r, _ = sqrt_factors(a)
            np.testing.assert_allclose(
                r @ r, a, atol=1e-10 * np.linalg.norm(a)
            )


class TestDistance:
    def test_identity_pair(self):
        eye = np.eye(3)
        assert spd_distance(eye, eye) == 0.0

    def test_diagonal_closed_form(self):
        a = np.eye(2)
        b = np.diag([np.e**2, np.e**-1])
        np.testing.assert_allclose(spd_distance(a, b), np.sqrt(5.0), rtol=1e-12)

    def test_matches_pencil_eigensolve(self):
        rng = stream(11, 2)
        for _ in range(20):
            a, b = random_spd(rng, 5), random_spd(rng, 5)
            w = scipy.linalg.eigh(b, a, eigvals_only=True)
            oracle = np.sqrt(np.sum(np.log(w) ** 2))
            np.testing.assert_allclose(spd_distance(a, b), oracle, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spd_distance(np.eye(2), np.eye(3))

    def test_metric_axioms_random(self):
        rng = stream(11, 3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a, b, c = (random_spd(rng, n) for _ in range(3))
            dab, dba = spd_distance(a, b), spd_distance(b, a)
            assert abs(dab - dba) <= 1e-10 * (1 + dab)
            assert spd_distance(a, a) <= 1e-10
            assert spd_distance(a, c) <= dab + spd_distance(b, c) + 1e-9

    def test_affine_and_inversion_invariance(self):
        rng = stream(11, 4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            d = spd_distance(a, b)
            t = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            conjugated = spd_distance(
                t.T @ a @ t, t.T @ b @ t
            )
            assert abs(conjugated - d) <= 1e-9 * (1 + d)
            inverted = spd_distance(
                np.linalg.inv(a), np.linalg.inv(b)
            )
            assert abs(inverted - d) <= 1e-9 * (1 + d)


class TestLocalNorm:
    def test_identity_base_is_frobenius(self):
        b = np.array([[1.0, 2.0], [2.0, -3.0]])
        np.testing.assert_allclose(
            local_norm(np.eye(2), b), np.linalg.norm(b), rtol=1e-12
        )

    def test_norm_of_base_is_sqrt_dim(self):
        rng = stream(11, 5)
        a = random_spd(rng, 6)
        np.testing.assert_allclose(
            local_norm(a, a), np.sqrt(6.0), rtol=1e-10
        )

    def test_small_perturbation_limit(self):
        rng = stream(11, 6)
        a = random_spd(rng, 4)
        g = rng.standard_normal((4, 4))
        b = 0.5 * (g + g.T) / local_norm(a, 0.5 * (g + g.T))
        quotient = lambda eps: spd_distance(a, a + eps * b) / eps
        # one-sided quotients carry an O(eps) bias; extrapolating eps, eps/2
        # recovers the limit to well inside 1e-5
        fd = 2.0 * quotient(5e-5) - quotient(1e-4)
        np.testing.assert_allclose(fd, local_norm(a, b), rtol=1e-5)


class TestGeodesic:
    def test_endpoints(self):
        rng = stream(11, 7)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        np.testing.assert_allclose(geodesic_point(a, b, 0.0), a, atol=1e-12)
        np.testing.assert_allclose(
            geodesic_point(a, b, 1.0), b, atol=1e-10 * np.linalg.norm(b)
        )

    def test_diagonal_midpoint(self):
        a = np.eye(2)
        b = np.diag([np.e**2, 1.0])
        np.testing.assert_allclose(
            geodesic_point(a, b, 0.5), np.diag([np.e, 1.0]), rtol=1e-12
        )

    def test_parameter_range(self):
        a = np.eye(2)
        for s in (1.5, [0.0, 0.5, 1.5]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                geodesic_point(a, a, s)

    def test_batch_matches_per_point_formula(self):
        rng = stream(11, 20)
        ts = np.linspace(0.0, 1.0, 101)
        for n in range(2, 9):
            a, b = random_spd(rng, n), random_spd(rng, n)
            batch = geodesic_point(a, b, ts)
            assert batch.shape == (ts.size, n, n)
            for s, got in zip(ts, batch):
                want = geodesic_point_oracle(a, b, s)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            single = geodesic_point(a, b, ts[37])
            assert single.shape == (n, n)
            want = geodesic_point_oracle(a, b, ts[37])
            assert np.linalg.norm(single - want) <= 1e-12 * np.linalg.norm(want)

    def test_constant_speed(self):
        rng = stream(11, 8)
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        d = spd_distance(a, b)
        h = 1e-3
        for s in (0.25, 0.5, 0.75):
            stencil = [geodesic_point(a, b, s + k * h) for k in (-2, -1, 1, 2)]
            tangent = (-stencil[3] + 8 * stencil[2] - 8 * stencil[1] + stencil[0]) / (12 * h)
            speed = local_norm(geodesic_point(a, b, s), tangent)
            np.testing.assert_allclose(speed, d, rtol=1e-5)


class TestCurveLength:
    def test_constant_curve(self):
        a = np.diag([2.0, 3.0])
        assert curve_length([a, a, a]) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            curve_length([np.eye(2)])

    def test_geodesic_matches_distance(self):
        a = np.eye(2)
        b = np.diag([np.e**2, 1.0])
        length = curve_length(geodesic_samples(a, b, 1000))
        np.testing.assert_allclose(length, 2.0, atol=1e-4)

    def test_conjugation_preserves_length(self):
        rng = stream(11, 9)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        pts = geodesic_samples(a, b, 200)
        t = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        conjugated = np.einsum("ij,sjk,kl->sil", t.T, pts, t)
        np.testing.assert_allclose(
            curve_length(conjugated), curve_length(pts), rtol=1e-9
        )


class TestLogEigenMap:
    def test_identity(self):
        np.testing.assert_array_equal(
            log_eigen_map(np.eye(4)), np.zeros(4)
        )

    def test_diagonal(self):
        spec = log_eigen_map(np.diag([np.e**3, np.e]))
        np.testing.assert_allclose(spec, [3.0, 1.0], atol=1e-14)

    def test_lipschitz_under_distance(self):
        rng = stream(11, 10)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            gap = np.linalg.norm(
                log_eigen_map(a) - log_eigen_map(b)
            )
            assert gap <= spd_distance(a, b) * (1 + 1e-9)


class TestLogQuadraticForm:
    def test_unit_vector_identity(self):
        assert log_quadratic_form(np.eye(3), [1, 0, 0]) == 0.0

    def test_diagonal(self):
        a = np.diag([np.e**2, 1.0])
        np.testing.assert_allclose(log_quadratic_form(a, [1.0, 0.0]), 2.0, atol=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            log_quadratic_form(np.eye(2), [0.0, 0.0])

    def test_lipschitz_under_distance(self):
        rng = stream(11, 11)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            v = rng.standard_normal(n)
            gap = abs(log_quadratic_form(a, v) - log_quadratic_form(b, v))
            assert gap <= spd_distance(a, b) * (1 + 1e-9)


class TestMajorization:
    def test_identity_pair_equalities(self):
        report = majorization_check(np.eye(4), np.eye(4))
        for value in report.margins().values():
            assert abs(value) <= 1e-12
        assert report.ok()

    def test_commuting_diagonal(self):
        a = np.diag([4.0, 1.0, 0.25])
        b = np.diag([2.0, 1.0, 0.5])
        report = majorization_check(a, b)
        np.testing.assert_allclose(
            np.sort(report.gamma),
            np.sort(report.alpha + report.beta),
            atol=1e-12,
        )
        assert report.ok()

    def test_random_pairs(self):
        rng = stream(11, 13)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            report = majorization_check(random_spd(rng, n), random_spd(rng, n))
            assert report.ok(tol=1e-9), report.margins()


class TestUpperGradient:
    def test_constant_functional(self):
        rng = stream(11, 14)
        a = random_spd(rng, 3)
        assert numeric_upper_gradient(lambda y: 1.5, a, 1e-3, 16, stream(11, 15)) == 0.0

    def test_log_quadratic_form_is_one_lipschitz(self):
        rng = stream(11, 16)
        for case in range(10):
            n = int(rng.integers(2, 6))
            a = random_spd(rng, n)
            v = rng.standard_normal(n)
            est = numeric_upper_gradient(
                lambda y: log_quadratic_form(y, v), a, 1e-3, 64, stream(11, 17, case)
            )
            assert est <= 1.0 + 1e-6

    def test_distance_functional_slope(self):
        rng = stream(2024, 1)
        a, c = random_spd(rng, 2), random_spd(rng, 2)
        est = numeric_upper_gradient(
            lambda y: spd_distance(y, c), a, 1e-3, 64, stream(2024, 1, 1)
        )
        assert est >= 0.95
        assert est <= 1.0 + 1e-6


class TestSpectrumDerivative:
    def test_matches_finite_differences(self):
        rng = stream(11, 18)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 7))
            a = random_spd(rng, n)
            w = np.linalg.eigvalsh(a)[::-1]
            if np.min(np.abs(np.diff(w))) <= 1e-3 * w[0]:
                continue
            g = rng.standard_normal((n, n))
            b = 0.5 * (g + g.T)
            analytic = spectrum_derivative(a, b)
            h = 1e-6 * w[0]
            wp = np.linalg.eigvalsh(a + h * b)[::-1]
            wm = np.linalg.eigvalsh(a - h * b)[::-1]
            np.testing.assert_allclose(
                analytic, (wp - wm) / (2 * h), atol=1e-5 * w[0]
            )
            checked += 1

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(ValueError, match="spectral gap"):
            spectrum_derivative(np.eye(2), np.eye(2))


class TestSortedSpectraBound:
    def test_log_ratio_dominated_by_distance(self):
        rng = stream(11, 19)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            lam = log_eigen_map(a) - log_eigen_map(b)
            assert np.sum(lam**2) <= spd_distance(a, b) ** 2 + 1e-9
