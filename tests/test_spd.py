import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from otspec import spd
from otspec.brenier import brenier_gaussian
from otspec.measures import GaussianMeasure
from otspec.rng import stream
from otspec.spd import (
    _geodesic_lengths,
    _spd_from_draws,
    _validated,
    curve_length,
    geodesic_point,
    log_eigen_map,
    log_quadratic_form,
    random_spd,
    spd_distance,
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


def local_norm(a, b):
    """‖A^{-1/2} B A^{-1/2}‖, the metric norm of the tangent vector B at A."""
    w, v = np.linalg.eigh(a)
    isa = (v / np.sqrt(w)) @ v.T
    return np.linalg.norm(isa @ b @ isa)


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
            spd_distance(np.eye(2), np.ones((2, 3)))

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


class TestRandomSpd:
    def test_draw_equals_the_validated_draw(self):
        # random_spd returns the validator's exact symmetrization without
        # running the validator; the bits are those of the validated form
        for n, spread in ((2, 3.0), (5, 1.5), (8, 0.0)):
            a = random_spd(stream(12, n), n, log_spread=spread)
            s = stream(12, n)
            q, r = np.linalg.qr(s.standard_normal((n, n)))
            q *= np.sign(np.diag(r))
            d = np.exp(s.uniform(-spread, spread, size=n))
            assert np.array_equal(a, _validated((q.T * d) @ q, "a")[0])
            assert np.array_equal(a, a.T)
        # the default spread is 3
        assert np.array_equal(random_spd(stream(12, 2), 2), random_spd(stream(12, 2), 2, 3.0))

    @pytest.mark.parametrize("spread", [0.0, 1.5, 3.0])
    def test_stack_equals_each_slice_factored_alone(self, spread):
        # 40 draws factored as one stack, and as a (2, 20) stack, give the
        # bits of each draw factored alone
        for n in range(2, 9):
            s = stream(13, n)
            normals, log_eigs = s.standard_normal((40, n, n)), s.uniform(-spread, spread, (40, n))
            want = np.stack([_spd_from_draws(g, e) for g, e in zip(normals, log_eigs)])
            assert np.array_equal(_spd_from_draws(normals, log_eigs), want)
            halves = _spd_from_draws(normals.reshape(2, 20, n, n), log_eigs.reshape(2, 20, n))
            assert np.array_equal(halves.reshape(40, n, n), want)

    @pytest.mark.parametrize("spread", [-0.5, np.nan, np.inf, 709.0])
    def test_rejects_log_spread_outside_the_exp_range(self, spread):
        with pytest.raises(ValueError, match="log_spread"):
            random_spd(stream(12, 0), 3, log_spread=spread)


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
    # the distance to nearby points recovers the metric norm at the base
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


def stencil_tangents(p):
    """The tangents of ``curve_length``'s stencils (five samples or more)."""
    p = np.asarray(p, dtype=float)
    h = 1.0 / (len(p) - 1)
    t = np.empty_like(p)
    t[2:-2] = (-p[4:] + 8 * p[3:-1] - 8 * p[1:-3] + p[:-4]) / (12 * h)
    t[1], t[-2] = (p[2] - p[0]) / (2 * h), (p[-1] - p[-3]) / (2 * h)
    t[0] = (-3 * p[0] + 4 * p[1] - p[2]) / (2 * h)
    t[-1] = (3 * p[-1] - 4 * p[-2] + p[-3]) / (2 * h)
    return t, h


def curve_length_oracle(p):
    """Trapezoidal length with speeds √Tr[(P⁻¹Ṗ)²] from ``np.linalg.solve``."""
    t, h = stencil_tangents(p)
    x = np.linalg.solve(p, t)
    return np.trapezoid(np.sqrt(np.einsum("kij,kji->k", x, x)), dx=h)


class TestCurveLength:
    def test_matches_solve_oracle(self):
        # geodesics, and a quadratic Bezier curve through a third SPD
        # matrix, which is no geodesic
        rng = stream(11, 20)
        s = np.linspace(0.0, 1.0, 400)[:, None, None]
        for n in range(2, 9):
            a, b, c = (random_spd(rng, n) for _ in range(3))
            bezier = (1 - s) ** 2 * a + 2 * s * (1 - s) * c + s**2 * b
            for pts in (geodesic_samples(a, b, 1000), bezier):
                want = curve_length_oracle(pts)
                np.testing.assert_allclose(curve_length(pts), want, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 17, 49])
    def test_refuses_a_bad_sample_by_index(self, k):
        # the samples' one check: geodesic_point returns them unvalidated
        rng = stream(11, 21)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        indefinite = geodesic_samples(a, b, 50)
        indefinite[k] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(ValueError, match=rf"curve sample\[{k}\] is not positive definite"):
            curve_length(indefinite)
        asymmetric = geodesic_samples(a, b, 50)
        asymmetric[k, 0, 1] += 1e-6
        with pytest.raises(ValueError, match=rf"curve sample\[{k}\] is not symmetric"):
            curve_length(asymmetric)

    def test_constant_curve(self):
        a = np.diag([2.0, 3.0])
        assert curve_length([a, a, a]) == 0.0

    def test_needs_three_points(self):
        # the end tangents are three-point stencils, so two distinct
        # samples are refused rather than read past
        a, b = np.eye(2), np.diag([2.0, 3.0])
        for pts in ([a, b], [a]):
            with pytest.raises(ValueError, match="at least three curve samples"):
                curve_length(pts)

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


def _off_the_curve(p):
    """1e-6 relative off the curve: fails the reconstruction check."""
    p *= 1.0 + 1e-6


def _skewed(p):
    """Asymmetric by 1e-11 relative, which the reconstruction check lets by
    and the symmetry check does not."""
    p[0, 1] += 1e-11 * np.linalg.norm(p)


class TestGeodesicLength:
    # the self-test's lengths, measured in each geodesic's eigenframe; the
    # exact path is curve_length on geodesic_point's samples, each sample
    # factored and whitened on its own
    @staticmethod
    def _endpoints(seed, n, m=3):
        rng = stream(seed, 50 + n)
        a = np.stack([random_spd(rng, n) for _ in range(m)])
        return a, np.stack([random_spd(rng, n) for _ in range(m)])

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_matches_curve_length_of_the_points(self, seed):
        for n in range(2, 9):
            a, b = self._endpoints(seed, n)
            lengths = _geodesic_lengths(a, b, 1000)
            for x, y, length in zip(a, b, lengths):
                want = curve_length(geodesic_samples(x, y, 1000))
                assert abs(length - want) <= 1e-12 * want

    def test_reads_the_geodesic_points(self, monkeypatch):
        points, read = spd._geodesic_points, []
        monkeypatch.setattr(spd, "_geodesic_points", lambda *args: read.append(points(*args)) or read[-1])
        for n in range(2, 9):
            a, b = self._endpoints(11, n)
            read.clear()
            _geodesic_lengths(a, b, 1000)
            samples = list(read)
            assert len(samples) == len(a)
            for x, y, got in zip(a, b, samples):
                assert np.array_equal(got, geodesic_samples(x, y, 1000))

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (_off_the_curve, ": geodesic factor failed the reconstruction check"),
            (_skewed, " is not symmetric"),
        ],
        ids=["off-the-curve", "skewed"],
    )
    @pytest.mark.parametrize("k", [0, 417, 999])
    def test_refuses_a_perturbed_sample_by_index(self, monkeypatch, perturb, message, k):
        # the second geodesic's sample k is perturbed
        a, b = self._endpoints(11, 5)
        points, calls = spd._geodesic_points, []

        def perturbed(*args):
            p = points(*args)
            calls.append(p)
            if len(calls) == 2:
                perturb(p[k])
            return p

        monkeypatch.setattr(spd, "_geodesic_points", perturbed)
        with pytest.raises(ValueError, match=rf"^geodesic 1: curve sample\[{k}\]{message}"):
            _geodesic_lengths(a, b, 1000)


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


class TestSortedSpectraBound:
    def test_log_ratio_dominated_by_distance(self):
        rng = stream(11, 19)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_spd(rng, n), random_spd(rng, n)
            lam = log_eigen_map(a) - log_eigen_map(b)
            assert np.sum(lam**2) <= spd_distance(a, b) ** 2 + 1e-9


def _rel(got, want):
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-300)


class TestStacks:
    # a stacked call against the same function called on each slice
    def _stacks(self, seed, n, m=9):
        rng = stream(seed, n)
        a = np.stack([random_spd(rng, n) for _ in range(m)])
        b = np.stack([random_spd(rng, n) for _ in range(m)])
        return a, b, rng.standard_normal((m, n))

    def test_matches_per_slice_calls(self):
        for n in range(2, 9):
            a, b, v = self._stacks(23, n)
            d = spd_distance(a, b)
            q = log_quadratic_form(a, v)
            spec = log_eigen_map(a)
            assert d.shape == q.shape == (len(a),)
            assert spec.shape == (len(a), n)
            for k in range(len(a)):
                assert _rel(d[k], spd_distance(a[k], b[k])) <= 1e-12
                assert _rel(q[k], log_quadratic_form(a[k], v[k])) <= 1e-12
                assert np.all(_rel(spec[k], log_eigen_map(a[k])) <= 1e-12)

    def test_sqrt_factors_of_a_stack(self):
        a, _, _ = self._stacks(24, 4)
        half, inv_half = sqrt_factors(a)
        for k in range(len(a)):
            one_half, one_inv = sqrt_factors(a[k])
            assert np.linalg.norm(half[k] - one_half) <= 1e-12 * np.linalg.norm(one_half)
            assert np.linalg.norm(inv_half[k] - one_inv) <= 1e-12 * np.linalg.norm(one_inv)

    def test_names_the_bad_matrix(self):
        a, b, v = self._stacks(25, 3, m=5)
        bad = b.copy()
        bad[3] = -bad[3]
        with pytest.raises(ValueError, match=r"b\[3\] is not positive definite"):
            spd_distance(a, bad)
        with pytest.raises(ValueError, match=r"a\[3\] is not positive definite"):
            log_eigen_map(bad)
        with pytest.raises(ValueError, match=r"a\[3\] is not positive definite"):
            log_quadratic_form(bad, v)
        v[2] = 0.0
        with pytest.raises(ValueError, match=r"nonzero \(v\[2\]\)"):
            log_quadratic_form(a, v)

    def test_shapes_must_match(self):
        a, b, v = self._stacks(26, 3, m=4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            spd_distance(a, b[:3])
        with pytest.raises(ValueError, match="dimension mismatch"):
            spd_distance(a, b[0])
        with pytest.raises(ValueError, match="direction has shape"):
            log_quadratic_form(a, v[0])


def eigen_log_spectrum(a, b):
    """log eig(A^{-1/2} B A^{-1/2}) with A^{-1/2} from eigh: the spectrum of
    the eigen-whitened distance that the Cholesky whitening replaced."""
    w, v = np.linalg.eigh(a)
    isa = (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1)
    c = isa @ b @ isa
    return np.log(np.linalg.eigvalsh(0.5 * (c + np.swapaxes(c, -2, -1))))


def eigen_curve_length_oracle(p):
    """Trapezoidal length with each sample factored as V diag(w) Vᵗ and the
    squared speed Σᵢⱼ (Vᵗ Ṗ V)ᵢⱼ² / (wᵢ wⱼ): the eigen-whitened speeds that
    the Cholesky whitening replaced."""
    t, h = stencil_tangents(p)
    w, v = np.linalg.eigh(p)
    r = 1.0 / np.sqrt(w)
    scaled = r[:, :, None] * (np.swapaxes(v, -2, -1) @ t @ v) * r[:, None, :]
    return np.trapezoid(np.sqrt((scaled * scaled).sum(axis=(-2, -1))), dx=h)


class TestValidationMemory:
    def test_returns_the_symmetrized_stack_and_its_factors(self):
        # the buffers change no bit of what the validator returns
        rng = stream(11, 60)
        a = _spd_from_draws(rng.standard_normal((50, 6, 6)), rng.uniform(-3, 3, (50, 6)))
        a[:, 0, 1] *= 1.0 + 1e-14
        sym = 0.5 * (a + np.swapaxes(a, -2, -1))
        got, w, v = _validated(a, "a", stack=True)
        want_w, want_v = np.linalg.eigh(sym)
        assert np.array_equal(got, sym)
        assert np.array_equal(w, want_w[..., ::-1]) and np.array_equal(v, want_v[..., ::-1])
        got, l = _validated(a, "a", stack=True, cholesky=True)
        assert np.array_equal(got, sym) and np.array_equal(l, np.linalg.cholesky(sym))

    def test_peak_is_three_stacks_beyond_input_and_output(self):
        rng = stream(11, 61)
        stack = _spd_from_draws(rng.standard_normal((20_000, 8, 8)), rng.uniform(-3, 3, (20_000, 8)))
        v = rng.standard_normal((20_000, 8))
        for f in (log_eigen_map, lambda a: log_quadratic_form(a, v)):
            tracemalloc.start()
            try:
                out = f(stack)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * stack.nbytes + out.nbytes


class TestCholeskyWhitening:
    # the distance, geodesics and curve lengths whiten by the Cholesky
    # factor; the eigen-whitened formulas are the exact path they must
    # match.  At log_spread 3 the paths agree within 1e-12 relative.  At
    # log_spread 6 neither path comes that close to the true value: against
    # 40-digit references the eigen path's distances were off by up to
    # 3.8e-10 relative and the Cholesky path's by 1.7e-10, the forward error
    # eps·κ of the problem, κ the condition number of A⁻¹B (up to e^24).
    # There the paths must agree within 1e-12 + 4 eps·κ relative
    @pytest.mark.parametrize("spread, kappa_weight", [(3.0, 0.0), (6.0, 4.0)])
    def test_matches_eigen_whitening(self, spread, kappa_weight):
        rng = stream(11, 30 + int(spread))
        ts = np.linspace(0.0, 1.0, 200)
        for n in range(2, 9):
            a = np.stack([random_spd(rng, n, log_spread=spread) for _ in range(20)])
            b = np.stack([random_spd(rng, n, log_spread=spread) for _ in range(20)])
            logs = eigen_log_spectrum(a, b)
            kappa = np.exp(logs.max(axis=-1) - logs.min(axis=-1))
            tol = 1e-12 + kappa_weight * np.finfo(float).eps * kappa
            assert np.all(_rel(spd_distance(a, b), np.linalg.norm(logs, axis=-1)) <= tol)
            for x, y, tol_xy in zip(a[:3], b[:3], tol):
                pts = geodesic_point(x, y, ts)
                for s, got in zip(ts, pts):
                    want = geodesic_point_oracle(x, y, s)
                    assert np.linalg.norm(got - want) <= tol_xy * np.linalg.norm(want)
                assert abs(curve_length(pts) - eigen_curve_length_oracle(pts)) <= 1e-10

    def test_returns_the_factor(self):
        a = random_spd(stream(11, 40), 5)
        sym, l = _validated(a, "a", cholesky=True)
        assert np.array_equal(sym, _validated(a, "a")[0])
        assert np.array_equal(l, np.tril(l))
        assert np.linalg.norm(l @ l.T - sym) <= 1e-14 * np.linalg.norm(sym)

    def test_refused_factorization_raises_even_with_positive_eigenvalues(self, monkeypatch):
        # a stack Cholesky refuses but whose computed eigenvalues are all
        # positive, which only roundoff at the edge of singularity makes
        def refuse(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        with pytest.raises(ValueError, match="m is not positive definite: Cholesky"):
            _validated(np.stack([np.eye(2)] * 3), "m", stack=True, cholesky=True)


_REJECTED = {
    "singular": (np.diag([1.0, 0.0]), r" is not positive definite: smallest eigenvalue 0\.000000e\+00"),
    "indefinite": (
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        r" is not positive definite: smallest eigenvalue -1\.000000e\+00",
    ),
    "non-finite": (np.array([[1.0, np.inf], [np.inf, 1.0]]), " contains non-finite entries"),
}


class TestRejection:
    # a bad matrix at a non-first index of a stack is refused with the same
    # message, naming it, whichever factor the consumer asks for
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("bad", _REJECTED)
    def test_every_consumer_names_the_bad_matrix(self, bad, k):
        matrix, message = _REJECTED[bad]
        good = geodesic_samples(np.eye(2), np.diag([2.0, 0.5]), 6)
        stack = good.copy()
        stack[k] = matrix
        with pytest.raises(ValueError, match=rf"^curve sample\[{k}\]{message}"):
            curve_length(stack)
        with pytest.raises(ValueError, match=rf"^a\[{k}\]{message}"):
            spd_distance(stack, good)
        with pytest.raises(ValueError, match=rf"^b\[{k}\]{message}"):
            spd_distance(good, stack)
        with pytest.raises(ValueError, match=rf"^a\[{k}\]{message}"):
            log_quadratic_form(stack, np.ones((len(stack), 2)))
        with pytest.raises(ValueError, match=rf"^a{message}"):
            geodesic_point(matrix, good[0], 0.5)
        with pytest.raises(ValueError, match=rf"^b{message}"):
            geodesic_point(good[0], matrix, [0.0, 0.5])
