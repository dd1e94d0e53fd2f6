import numpy as np
import pytest
import scipy.linalg

from otspec.rng import stream
from otspec.spd import (
    LogSpectrum,
    SpdMatrix,
    SymMatrix,
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
)


def geodesic_samples(a, b, m):
    return np.stack([geodesic_point(a, b, s).values for s in np.linspace(0, 1, m)])


class TestContainers:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SpdMatrix([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(np.ones((2, 3)))

    def test_spectrum_cached_descending(self):
        a = SpdMatrix(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(a.eigenvalues, [3.0, 2.0, 1.0])
        recon = (a.eigenvectors * a.eigenvalues) @ a.eigenvectors.T
        np.testing.assert_allclose(recon, a.values, atol=1e-12)

    def test_log_spectrum_sorted(self):
        with pytest.raises(ValueError, match="non-increasing"):
            LogSpectrum([0.0, 1.0])


class TestMatrixFunction:
    def test_identity_function(self):
        rng = stream(11, 0)
        a = random_spd(rng, 4)
        np.testing.assert_allclose(
            a.apply_scalar(lambda w: w), a.values, atol=1e-12
        )

    def test_log_diagonal(self):
        a = SpdMatrix(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(
            a.apply_scalar(np.log), np.diag([1.0, 2.0]), atol=1e-14
        )

    def test_sqrt_squares_back(self):
        rng = stream(11, 1)
        for _ in range(20):
            a = random_spd(rng, 5)
            r = a.apply_scalar(np.sqrt)
            np.testing.assert_allclose(
                r @ r, a.values, atol=1e-10 * np.linalg.norm(a.values)
            )

    def test_domain_error_names_eigenvalue(self):
        a = SpdMatrix(np.diag([2.0, 0.5]))
        with pytest.raises(ValueError, match="not finite at eigenvalue"):
            a.apply_scalar(lambda w: np.log(w - 1.0))


class TestDistance:
    def test_identity_pair(self):
        eye = SpdMatrix(np.eye(3))
        assert spd_distance(eye, eye) == 0.0

    def test_diagonal_closed_form(self):
        a = SpdMatrix(np.eye(2))
        b = SpdMatrix(np.diag([np.e**2, np.e**-1]))
        np.testing.assert_allclose(spd_distance(a, b), np.sqrt(5.0), rtol=1e-12)

    def test_matches_pencil_eigensolve(self):
        rng = stream(11, 2)
        for _ in range(20):
            a, b = random_spd(rng, 5), random_spd(rng, 5)
            w = scipy.linalg.eigh(b.values, a.values, eigvals_only=True)
            oracle = np.sqrt(np.sum(np.log(w) ** 2))
            np.testing.assert_allclose(spd_distance(a, b), oracle, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spd_distance(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)))

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
                SpdMatrix(t.T @ a.values @ t), SpdMatrix(t.T @ b.values @ t)
            )
            assert abs(conjugated - d) <= 1e-9 * (1 + d)
            inverted = spd_distance(
                SpdMatrix(np.linalg.inv(a.values)), SpdMatrix(np.linalg.inv(b.values))
            )
            assert abs(inverted - d) <= 1e-9 * (1 + d)


class TestLocalNorm:
    def test_identity_base_is_frobenius(self):
        b = SymMatrix([[1.0, 2.0], [2.0, -3.0]])
        np.testing.assert_allclose(
            local_norm(SpdMatrix(np.eye(2)), b), np.linalg.norm(b.values), rtol=1e-12
        )

    def test_norm_of_base_is_sqrt_dim(self):
        rng = stream(11, 5)
        a = random_spd(rng, 6)
        np.testing.assert_allclose(
            local_norm(a, SymMatrix(a.values)), np.sqrt(6.0), rtol=1e-10
        )

    def test_small_perturbation_limit(self):
        rng = stream(11, 6)
        a = random_spd(rng, 4)
        g = rng.standard_normal((4, 4))
        b = SymMatrix(0.5 * (g + g.T) / local_norm(a, SymMatrix(0.5 * (g + g.T))))
        quotient = lambda eps: spd_distance(a, SpdMatrix(a.values + eps * b.values)) / eps
        # one-sided quotients carry an O(eps) bias; extrapolating eps, eps/2
        # recovers the limit to well inside 1e-5
        fd = 2.0 * quotient(5e-5) - quotient(1e-4)
        np.testing.assert_allclose(fd, local_norm(a, b), rtol=1e-5)


class TestGeodesic:
    def test_endpoints(self):
        rng = stream(11, 7)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        np.testing.assert_allclose(geodesic_point(a, b, 0.0).values, a.values, atol=1e-12)
        np.testing.assert_allclose(
            geodesic_point(a, b, 1.0).values, b.values, atol=1e-10 * np.linalg.norm(b.values)
        )

    def test_diagonal_midpoint(self):
        a = SpdMatrix(np.eye(2))
        b = SpdMatrix(np.diag([np.e**2, 1.0]))
        np.testing.assert_allclose(
            geodesic_point(a, b, 0.5).values, np.diag([np.e, 1.0]), rtol=1e-12
        )

    def test_parameter_range(self):
        a = SpdMatrix(np.eye(2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            geodesic_point(a, a, 1.5)

    def test_constant_speed(self):
        rng = stream(11, 8)
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        d = spd_distance(a, b)
        h = 1e-3
        for s in (0.25, 0.5, 0.75):
            stencil = [geodesic_point(a, b, s + k * h).values for k in (-2, -1, 1, 2)]
            tangent = (-stencil[3] + 8 * stencil[2] - 8 * stencil[1] + stencil[0]) / (12 * h)
            speed = local_norm(geodesic_point(a, b, s), SymMatrix(tangent))
            np.testing.assert_allclose(speed, d, rtol=1e-5)


class TestCurveLength:
    def test_constant_curve(self):
        a = SpdMatrix(np.diag([2.0, 3.0]))
        assert curve_length([a, a, a]) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            curve_length([SpdMatrix(np.eye(2))])

    def test_geodesic_matches_distance(self):
        a = SpdMatrix(np.eye(2))
        b = SpdMatrix(np.diag([np.e**2, 1.0]))
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
            log_eigen_map(SpdMatrix(np.eye(4))).values, np.zeros(4)
        )

    def test_diagonal(self):
        spec = log_eigen_map(SpdMatrix(np.diag([np.e**3, np.e])))
        np.testing.assert_allclose(spec.values, [3.0, 1.0], atol=1e-14)

    def test_lipschitz_under_distance(self):
        rng = stream(11, 10)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            gap = np.linalg.norm(
                log_eigen_map(a).values - log_eigen_map(b).values
            )
            assert gap <= spd_distance(a, b) * (1 + 1e-9)


class TestLogQuadraticForm:
    def test_unit_vector_identity(self):
        assert log_quadratic_form(SpdMatrix(np.eye(3)), [1, 0, 0]) == 0.0

    def test_diagonal(self):
        a = SpdMatrix(np.diag([np.e**2, 1.0]))
        np.testing.assert_allclose(log_quadratic_form(a, [1.0, 0.0]), 2.0, atol=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            log_quadratic_form(SpdMatrix(np.eye(2)), [0.0, 0.0])

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
        report = majorization_check(SpdMatrix(np.eye(4)), SpdMatrix(np.eye(4)))
        for value in report.margins().values():
            assert abs(value) <= 1e-12
        assert report.ok()

    def test_commuting_diagonal(self):
        a = SpdMatrix(np.diag([4.0, 1.0, 0.25]))
        b = SpdMatrix(np.diag([2.0, 1.0, 0.5]))
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
            w = a.eigenvalues
            if np.min(np.abs(np.diff(w))) <= 1e-3 * w[0]:
                continue
            g = rng.standard_normal((n, n))
            b = SymMatrix(0.5 * (g + g.T))
            analytic = spectrum_derivative(a, b)
            h = 1e-6 * w[0]
            wp = np.linalg.eigvalsh(a.values + h * b.values)[::-1]
            wm = np.linalg.eigvalsh(a.values - h * b.values)[::-1]
            np.testing.assert_allclose(
                analytic, (wp - wm) / (2 * h), atol=1e-5 * w[0]
            )
            checked += 1

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(ValueError, match="spectral gap"):
            spectrum_derivative(SpdMatrix(np.eye(2)), SymMatrix(np.eye(2)))


class TestSortedSpectraBound:
    def test_log_ratio_dominated_by_distance(self):
        rng = stream(11, 19)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            lam = np.log(a.eigenvalues) - np.log(b.eigenvalues)
            assert np.sum(lam**2) <= spd_distance(a, b) ** 2 + 1e-9
