"""Identity and inequality tests for the transport curvature calculus.

The oracles here are deliberately independent of the module's einsum
contractions: explicit index loops, finite differences with the step
policy 1e-4 * (1 + |x|), and quadrature for the integration-by-parts
characterization of L.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from otspec import rng
from otspec.brenier import (
    brenier_1d,
    brenier_gaussian,
    brenier_product,
    brenier_radial,
)
from otspec.gamma2 import (
    CubicTestFunction,
    SmoothTriple,
    bmatrix_certificate,
    bochner_residual,
    contracted_tensors,
    gamma2_expanded,
    gamma2_lower_bound,
    make_test_function,
    operator_L,
    ricci_tensor,
    synthetic_triple,
    triple_consistency_residual,
    triple_from_map,
)
from otspec.measures import (
    GaussianMeasure,
    make_catalog_measure,
    make_radial_measure,
)
from otspec.spd import random_spd, spd_distance


def _triple_1d():
    return triple_from_map(
        brenier_1d(
            make_catalog_measure("gaussian", (0.0, 1.0)),
            make_catalog_measure("logistic", (0.0, 1.0)),
        )
    )


def _triple_1d_beta():
    return triple_from_map(
        brenier_1d(
            make_catalog_measure("beta", (2.0, 3.0)),
            make_catalog_measure("gaussian", (0.0, 1.0)),
        )
    )


def _triple_gaussian(dim=3):
    cov1 = random_spd(rng.stream(31, 0), dim, 1.0)
    cov2 = random_spd(rng.stream(31, 1), dim, 1.0)
    return triple_from_map(
        brenier_gaussian(
            GaussianMeasure(np.zeros(dim), cov1),
            GaussianMeasure(np.ones(dim), cov2),
        )
    )


def _triple_product():
    return triple_from_map(
        brenier_product(
            [
                brenier_1d(
                    make_catalog_measure("gaussian", (0.0, 1.0)),
                    make_catalog_measure("logistic", (0.0, 1.0)),
                ),
                brenier_1d(
                    make_catalog_measure("beta", (2.0, 3.0)),
                    make_catalog_measure("gaussian", (0.0, 1.0)),
                ),
            ]
        )
    )


def _triple_radial():
    return triple_from_map(
        brenier_radial(
            make_radial_measure("uniform-ball", 3),
            make_radial_measure("gaussian", 3),
        )
    )


def _triple_radial_in():
    return triple_from_map(
        brenier_radial(
            make_radial_measure("gaussian", 3, 1.5),
            make_radial_measure("uniform-ball", 3, 2.0),
        )
    )


def _ou_triple(dim):
    """Identity transport with V = W = |x - 0|^2/2: the classical case."""
    from otspec.gamma2 import _TripleSynthetic

    return _TripleSynthetic(
        np.zeros((dim, dim, dim)), np.eye(dim), np.zeros(dim)
    )


# (builder, point sampler) for every analytic construction
def _bank():
    s = rng.stream(17, 0)
    return [
        (_triple_1d(), lambda s=s: s.uniform(-2.0, 2.0, size=1)),
        (_triple_1d_beta(), lambda s=s: s.uniform(0.15, 0.85, size=1)),
        (_triple_gaussian(), lambda s=s: s.standard_normal(3)),
        (_triple_product(), lambda s=s: np.array([s.uniform(-2, 2), s.uniform(0.15, 0.85)])),
        (_triple_radial(), lambda s=s: 0.5 * _unit(s, 3) * s.uniform(0.2, 1.6)),
        (_triple_radial_in(), lambda s=s: _unit(s, 3) * s.uniform(0.2, 2.5)),
    ]


_DERIVATIVES = ("grad", "hess", "third", "v_grad", "v_hess", "w_grad", "w_hess")


def _derivs(t, x):
    """The triple's derivatives at x, keyed by their ``ContractedTensors`` field."""
    return dict(zip(_DERIVATIVES, t.derivatives(np.asarray(x, dtype=float))))


def _partial(ct, k):
    """Gradient and Hessian of the test function u = Phi_k: bundle slices."""
    return ct.hess[..., :, k], ct.third[..., :, :, k]


def _du(u, x):
    """A test function's gradient and Hessian at x, the operators' arguments."""
    return u.grad(x), u.hess(x)


def _pullback(ct):
    """g_ij = Phi^l_{ik} Phi^k_{jl}, the metric the Hessian map pulls back."""
    return np.einsum("...lik,...kjl->...ij", ct.up1, ct.up1)


def _v_hessian_floor(t, pts):
    return float(np.linalg.eigvalsh(_derivs(t, pts)["v_hess"])[:, 0].min())


def _unit(stream, dim):
    v = stream.standard_normal(dim)
    return v / np.linalg.norm(v)


def fd_grad(f, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        h = 1e-4 * (1.0 + abs(x[i]))
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_hess(f, x):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    f0 = f(x)
    steps = [1e-4 * (1.0 + abs(x[i])) for i in range(n)]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return out


def fd_third(triple, x):
    """Richardson-extrapolated central differences of the Hessian oracle."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n, n))
    for k in range(n):
        h = 1e-4 * (1.0 + abs(x[k]))
        e = np.zeros(n)
        e[k] = 1.0

        def slope(step):
            hess = [_derivs(triple, x + sign * step * e)["hess"] for sign in (1.0, -1.0)]
            return (hess[0] - hess[1]) / (2.0 * step)

        out[:, :, k] = (4.0 * slope(0.5 * h) - slope(h)) / 3.0
    return out


class TestContractedTensors:
    def test_quadratic_potential_all_zero(self):
        t = _ou_triple(3)
        ct = contracted_tensors(t, np.array([0.3, -1.0, 0.7]))
        assert np.array_equal(ct.inv, np.eye(3))
        for tensor in (ct.third, ct.up1, ct.up2, ct.up3):
            assert np.all(tensor == 0.0)

    def test_single_index_algebra(self):
        t = _triple_1d()
        x = np.array([0.6])
        ct = contracted_tensors(t, x)
        a = ct.hess[0, 0]
        b = ct.third[0, 0, 0]
        assert ct.up1[0, 0, 0] == pytest.approx(b / a, rel=1e-12)
        assert ct.up2[0, 0, 0] == pytest.approx(b / a**2, rel=1e-12)
        assert ct.up3[0, 0, 0] == pytest.approx(b / a**3, rel=1e-12)

    def test_1d_triple_solves_the_target_quantile_once(self, monkeypatch):
        # T(x) and Phi''(x) share one map evaluation: one target quantile
        # per bundle, and the same bundle as mapping once for each of them
        t = _triple_1d()
        tm = t.tm
        x = np.linspace(-2.5, 2.5, 11)[:, None]
        want_grad = tm.map_points(x[:, 0])
        want_hess = tm.hessian(x)[:, 0, 0]
        calls = []
        quantile = tm.target.quantile

        def counted(u):
            calls.append(np.size(u))
            return quantile(u)

        monkeypatch.setattr(tm.target, "quantile", counted)
        ct = contracted_tensors(t, x)
        assert calls == [11]
        assert np.array_equal(ct.grad[:, 0], want_grad)
        assert np.array_equal(ct.hess[:, 0, 0], want_hess)

    def test_contraction_identity_vs_loops(self):
        t = synthetic_triple(rng.stream(41, 0), 3, delta=0.6)
        x = np.array([0.4, -0.5, 0.2])
        ct = contracted_tensors(t, x)
        n = t.dim
        # independent order of operations: contract up1 once more
        expected = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected[i, j, k] = sum(
                        ct.inv[i, l] * ct.up1[j, k, l] for l in range(n)
                    )
        # up1 is Phi^j_{kl}; raising the second slot must give Phi^{ij}_k
        got = np.einsum("il,jkl->ijk", ct.inv, ct.up1)
        assert np.max(np.abs(got - expected)) < 1e-14
        assert np.max(np.abs(ct.up2 - expected.transpose(0, 1, 2))) < 1e-10

    def test_raised_tensors_vs_loops(self):
        t = synthetic_triple(rng.stream(41, 1), 2, delta=0.6)
        x = np.array([0.3, -0.6])
        ct = contracted_tensors(t, x)
        n = 2
        up1 = np.zeros((n, n, n))
        up3 = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    up1[i, j, k] = sum(
                        ct.inv[i, l] * ct.third[l, j, k] for l in range(n)
                    )
                    up3[i, j, k] = sum(
                        ct.inv[i, a] * ct.inv[j, b] * ct.inv[k, c] * ct.third[a, b, c]
                        for a in range(n)
                        for b in range(n)
                        for c in range(n)
                    )
        assert np.max(np.abs(ct.up1 - up1)) < 1e-12
        assert np.max(np.abs(ct.up3 - up3)) < 1e-12

    def test_bundle_holds_the_oracle_values(self):
        # the operators read these fields in place of calling the triple
        for t, sampler in _bank():
            x = np.stack([sampler() for _ in range(3)])
            ct = contracted_tensors(t, x)
            assert np.array_equal(ct.x, x)
            for name, want in _derivs(t, x).items():
                assert np.array_equal(getattr(ct, name), want), (type(t).__name__, name)

    def test_derivatives_match_the_value_oracles(self):
        # grad V at x and grad W at grad Phi(x), against FD slopes of the
        # potentials the quadrature tests weight by
        for t, sampler in _bank():
            x = sampler()
            d = _derivs(t, x)
            for value, at, want in ((t.v_value, x, d["v_grad"]), (t.w_value, d["grad"], d["w_grad"])):
                got = fd_grad(lambda p, value=value: float(value(p)), at)
                assert np.max(np.abs(got - want)) < 1e-6 * (1.0 + np.max(np.abs(want))), type(t).__name__

    def test_condition_refusal(self):
        class _Flat(SmoothTriple):
            def derivatives(self, x):
                z = np.zeros(2)
                return z, np.diag([1.0, 5e-13]), np.zeros((2, 2, 2)), z, np.eye(2), z, np.eye(2)

        with pytest.raises(ArithmeticError, match="condition"):
            contracted_tensors(_Flat(2), np.zeros(2))

    def test_third_tensor_symmetry(self):
        for t, sampler in _bank():
            x = sampler()
            c = _derivs(t, x)["third"]
            scale = 1.0 + np.max(np.abs(c))
            for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
                assert np.max(np.abs(c - c.transpose(perm))) < 1e-8 * scale


class TestOperatorL:
    def test_partial_of_potential_eigenrelation(self):
        # L(Phi_k) = -V_k for every coordinate, on every triple kind
        cases = _bank() + [
            (synthetic_triple(rng.stream(42, 0), 3, delta=0.5),
             lambda: np.array([0.3, -0.4, 0.5])),
        ]
        for t, sampler in cases:
            x = sampler()
            ct = contracted_tensors(t, x)
            for k in range(t.dim):
                got = operator_L(ct, *_partial(ct, k))
                assert got == pytest.approx(-ct.v_grad[k], abs=1e-8)

    def test_partial_is_a_slice_of_the_bundle(self):
        # the slices are the derivatives of x -> Phi_k(x): FD of the bundle's
        # grad and hess columns at each point of the stack
        t = synthetic_triple(rng.stream(42, 3), 3, delta=0.5)
        x = rng.stream(42, 4).uniform(-0.8, 0.8, size=(5, 3))
        ct = contracted_tensors(t, x)
        k = 1
        ug, uh = _partial(ct, k)
        for i, p in enumerate(x):
            assert np.max(np.abs(fd_grad(lambda q: _derivs(t, q)["grad"][k], p) - ug[i])) < 1e-7
            assert np.max(np.abs(fd_third(t, p)[:, :, k] - uh[i])) < 1e-7

    def test_identity_transport_weighted_laplacian(self):
        t = _ou_triple(3)
        u = make_test_function(rng.stream(42, 1), 3)
        x = np.array([0.7, -0.2, 1.1])
        expected = float(np.trace(u.hess(x))) - float(x @ u.grad(x))
        assert operator_L(contracted_tensors(t, x), *_du(u, x)) == pytest.approx(expected, rel=1e-12)

    def test_integration_by_parts_1d(self):
        t = _triple_1d()
        u = make_test_function(rng.stream(42, 2), 1)
        r = 2.5

        def bump(x):
            z = x / r
            return math.exp(-1.0 / (1.0 - z * z)) if abs(z) < 1.0 else 0.0

        def bump_d1(x):
            z = x / r
            if abs(z) >= 1.0:
                return 0.0
            return bump(x) * (-2.0 * z / (1.0 - z * z) ** 2) / r

        def lhs(x):
            p = np.array([x])
            return operator_L(contracted_tensors(t, p), *_du(u, p)) * bump(x) * math.exp(-t.v_value(p))

        def rhs(x):
            p = np.array([x])
            h = _derivs(t, p)["hess"][0, 0]
            return -(u.grad(p)[0] / h) * bump_d1(x) * math.exp(-t.v_value(p))

        left, _ = integrate.quad(lhs, -r, r, limit=200)
        right, _ = integrate.quad(rhs, -r, r, limit=200)
        assert left == pytest.approx(right, abs=1e-4 * (1.0 + abs(left)))

    def test_integration_by_parts_2d(self):
        t = synthetic_triple(rng.stream(42, 3), 2, delta=0.4)
        u = make_test_function(rng.stream(42, 4), 2)
        r = 2.2
        nodes, weights = np.polynomial.legendre.leggauss(50)
        nodes = nodes * r
        weights = weights * r

        def bump(z):
            s = z / r
            return math.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0

        def bump_d1(z):
            s = z / r
            if abs(s) >= 1.0:
                return 0.0
            return bump(z) * (-2.0 * s / (1.0 - s * s) ** 2) / r

        left = right = 0.0
        for xi, wi in zip(nodes, weights):
            for yj, wj in zip(nodes, weights):
                p = np.array([xi, yj])
                ct = contracted_tensors(t, p)
                weight = math.exp(-t.v_value(p)) * wi * wj
                v_val = bump(xi) * bump(yj)
                v_grad = np.array([bump_d1(xi) * bump(yj), bump(xi) * bump_d1(yj)])
                left += operator_L(ct, *_du(u, p)) * v_val * weight
                right -= float(u.grad(p) @ ct.inv @ v_grad) * weight
        assert left == pytest.approx(right, abs=1e-4 * (1.0 + abs(left)))

    def test_inconsistent_triple_is_refused(self):
        base = synthetic_triple(rng.stream(42, 5), 2, delta=0.4)

        class _Skewed(SmoothTriple):
            def derivatives(self, x):
                d = list(base.derivatives(x))
                d[3] = d[3] + np.array([0.5, -0.3])  # grad V
                return tuple(d)

        u = CubicTestFunction(0.0, np.array([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2, 2)))
        x = np.array([0.4, 0.1])
        with pytest.raises(ArithmeticError, match="mass conservation"):
            operator_L(contracted_tensors(_Skewed(2), x), *_du(u, x))


class TestGamma2:
    def test_ornstein_uhlenbeck_reduction(self):
        t = _ou_triple(3)
        u = make_test_function(rng.stream(43, 0), 3)
        x = np.array([0.5, -0.8, 0.1])
        uh, ug = u.hess(x), u.grad(x)
        expected = float(np.sum(uh * uh)) + float(ug @ ug)
        assert gamma2_expanded(contracted_tensors(t, x), ug, uh) == pytest.approx(expected, rel=1e-12)

    def test_partial_chain_reconstruction(self):
        # Gamma(Phi_k) collapses to Phi_kk, so the defining formula reads
        # Gamma_2(Phi_k) = L(Phi_kk)/2 + V_kk; L is evaluated with an FD
        # Hessian of the entry function x -> Phi_kk(x)
        cases = [
            (_triple_1d(), np.array([0.45]), 0),
            (_triple_gaussian(), np.array([0.2, -0.7, 1.0]), 1),
            (_triple_radial(), np.array([0.35, -0.1, 0.3]), 0),
            (synthetic_triple(rng.stream(43, 1), 3, delta=0.5),
             np.array([0.4, -0.3, 0.6]), 2),
        ]
        for t, x, k in cases:
            ct = contracted_tensors(t, x)
            d = _derivs(t, x)
            grad_h = d["third"][k, k, :]
            hess_h = fd_hess(lambda p: _derivs(t, p)["hess"][k, k], x)
            l_of_h = float(np.einsum("ij,ij->", ct.inv, hess_h)) - float(d["w_grad"] @ grad_h)
            expected = 0.5 * l_of_h + d["v_hess"][k, k]
            got = gamma2_expanded(ct, *_partial(ct, k))
            assert got == pytest.approx(expected, abs=1e-6 * (1.0 + abs(got)))

    def test_direct_definition_by_fd(self):
        # Gamma_2(u) = L(Gamma(u))/2 - Gamma(u, Lu) with FD derivatives
        cases = [
            (_triple_1d(), np.array([0.3])),
            (synthetic_triple(rng.stream(43, 2), 2, delta=0.5), np.array([0.5, -0.2])),
            (synthetic_triple(rng.stream(43, 3), 3, delta=0.4), np.array([-0.3, 0.4, 0.2])),
        ]
        for t, x in cases:
            u = make_test_function(rng.stream(43, 4), t.dim)
            ct = contracted_tensors(t, x)

            def carre(p):
                g = u.grad(p)
                return float(g @ np.linalg.solve(_derivs(t, p)["hess"], g))

            def l_of_u(p):
                return operator_L(contracted_tensors(t, p), *_du(u, p))

            l_carre = float(
                np.einsum("ij,ij->", ct.inv, fd_hess(carre, x))
            ) - float(_derivs(t, x)["w_grad"] @ fd_grad(carre, x))
            cross = float(u.grad(x) @ ct.inv @ fd_grad(l_of_u, x))
            expected = 0.5 * l_carre - cross
            got = gamma2_expanded(ct, *_du(u, x))
            assert got == pytest.approx(expected, abs=1e-4 * (1.0 + abs(got)))

    def test_lower_bound_single_index_formula(self):
        # with one index the contraction collapses to
        # (Phi''')^2 / (Phi'')^4 * u'^2 / 4
        t = _triple_1d()
        x = np.array([0.8])
        u = make_test_function(rng.stream(43, 5), 1)
        ct = contracted_tensors(t, x)
        u1 = u.grad(x)[0]
        a, b = ct.hess[0, 0], ct.third[0, 0, 0]
        expected = 0.25 * (b * b / a**4) * u1 * u1
        assert gamma2_lower_bound(ct, u.grad(x)) == pytest.approx(expected, rel=1e-12)
        assert ct.up2[0, 0, 0] == pytest.approx(b / a**2, rel=1e-12)

    def test_lower_bound_quadratic_is_zero(self):
        t = _ou_triple(2)
        u = make_test_function(rng.stream(43, 6), 2)
        x = np.array([0.4, -1.2])
        assert gamma2_lower_bound(contracted_tensors(t, x), u.grad(x)) == 0.0

    def test_lower_bound_inequality_randomized(self):
        # Lemma-style floor: Gamma_2 >= quarter-contraction form, on
        # triples whose V and W are verified convex on the sample
        worst = math.inf
        for case in range(20):
            s = rng.stream(53, case)
            dim = 2 + case % 3
            t = synthetic_triple(s, dim, delta=0.3)
            u = make_test_function(s, dim)
            pts = s.uniform(-0.9, 0.9, size=(100, dim))
            assert _v_hessian_floor(t, pts) > 0.0
            for x in pts:
                ct = contracted_tensors(t, x)
                ug, uh = _du(u, x)
                lo = gamma2_lower_bound(ct, ug)
                assert lo >= 0.0
                worst = min(worst, gamma2_expanded(ct, ug, uh) - lo)
        assert worst >= -1e-9


class TestCertificate:
    def test_linear_function_quadratic_potential(self):
        t = _ou_triple(3)
        u = CubicTestFunction(
            1.0, np.array([2.0, -1.0, 0.5]), np.zeros((3, 3)), np.zeros((3, 3, 3))
        )
        x = np.array([0.3, 0.1, -0.4])
        assert bmatrix_certificate(contracted_tensors(t, x), *_du(u, x)) == 0.0

    def test_nonnegative_everywhere(self):
        for case in range(10):
            s = rng.stream(54, case)
            t = synthetic_triple(s, 2 + case % 3, delta=0.6)
            u = make_test_function(s, t.dim)
            x = s.uniform(-0.8, 0.8, size=t.dim)
            assert bmatrix_certificate(contracted_tensors(t, x), *_du(u, x)) >= 0.0

    def test_matches_termwise_expansion(self):
        # independent oracle: assemble b_i^j entry by entry with loops
        for case in range(5):
            s = rng.stream(54, 10 + case)
            t = synthetic_triple(s, 3, delta=0.6)
            u = make_test_function(s, 3)
            x = s.uniform(-0.8, 0.8, size=3)
            ct = contracted_tensors(t, x)
            ug, uh = u.grad(x), u.hess(x)
            n = 3
            b = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    b[i, j] = sum(ct.inv[j, k] * uh[k, i] for k in range(n)) - 0.5 * sum(
                        ct.up2[j, k, i] * ug[k] for k in range(n)
                    )
            expansion = float(np.sum(b * b.T))
            got = bmatrix_certificate(ct, ug, uh)
            assert got == pytest.approx(expansion, abs=1e-9 * (1.0 + abs(got)))

    def test_expanded_identity_split(self):
        # Gamma_2 = Tr(B^2) + lower bound + (V and W quadratic forms)/2
        for t, sampler in _bank():
            x = sampler()
            u = make_test_function(rng.stream(54, 20), t.dim)
            ct = contracted_tensors(t, x)
            d = _derivs(t, x)
            ug, uh = _du(u, x)
            v_mid = ct.inv @ d["v_hess"] @ ct.inv
            total = (
                bmatrix_certificate(ct, ug, uh)
                + gamma2_lower_bound(ct, ug)
                + 0.5 * float(ug @ (v_mid + d["w_hess"]) @ ug)
            )
            got = gamma2_expanded(ct, ug, uh)
            assert got == pytest.approx(total, abs=1e-8 * (1.0 + abs(got)))


class TestPullbackMetric:
    def test_single_index_formula(self):
        t = _triple_1d()
        x = np.array([-0.9])
        ct = contracted_tensors(t, x)
        g = _pullback(ct)
        ratio = ct.third[0, 0, 0] / ct.hess[0, 0]
        assert g[0, 0] == pytest.approx(ratio * ratio, rel=1e-12)

    def test_quadratic_gives_zero(self):
        g = _pullback(contracted_tensors(_ou_triple(3), np.array([1.0, 2.0, 3.0])))
        assert np.array_equal(g, np.zeros((3, 3)))

    def test_fd_distance_consistency(self):
        # squared manifold distance between nearby Hessians approximates
        # the diagonal metric entries
        eps = 1e-4
        cases = [
            (_triple_1d(), np.array([0.7])),
            (synthetic_triple(rng.stream(55, 0), 3, delta=0.6),
             np.array([0.4, -0.5, 0.3])),
        ]
        for t, x in cases:
            g = _pullback(contracted_tensors(t, x))
            a_mat = _derivs(t, x)["hess"]
            for i in range(t.dim):
                e = np.zeros(t.dim)
                e[i] = eps
                a = 0.5 * (a_mat + a_mat.T)
                b_mat = _derivs(t, x + e)["hess"]
                b = 0.5 * (b_mat + b_mat.T)
                d2 = spd_distance(a, b) ** 2 / eps**2
                assert d2 == pytest.approx(g[i, i], abs=1e-3 * (1.0 + g[i, i]))

    def test_psd_across_bank(self):
        for t, sampler in _bank():
            g = _pullback(contracted_tensors(t, sampler()))
            assert float(np.linalg.eigvalsh(g)[0]) >= -1e-10


class TestRicci:
    def test_ornstein_uhlenbeck_identity_matrix(self):
        ric = ricci_tensor(contracted_tensors(_ou_triple(3), np.array([0.2, -0.5, 0.9])))
        assert np.max(np.abs(ric - np.eye(3))) < 1e-12

    def test_first_summand_is_quarter_pullback(self):
        t = synthetic_triple(rng.stream(56, 0), 3, delta=0.6)
        x = np.array([0.5, -0.4, 0.2])
        ct = contracted_tensors(t, x)
        n = 3
        first = np.zeros((n, n))
        for i in range(n):
            for l in range(n):
                first[i, l] = 0.25 * sum(
                    ct.up1[k, i, j] * ct.up1[j, l, k]
                    for k in range(n)
                    for j in range(n)
                )
        assert np.max(np.abs(first - 0.25 * _pullback(ct))) < 1e-12

    def test_psd_for_log_concave_triples(self):
        for t, sampler in _bank():
            for _ in range(5):
                ric = ricci_tensor(contracted_tensors(t, sampler()))
                assert float(np.linalg.eigvalsh(ric)[0]) >= -1e-9

    def test_psd_for_convex_synthetic(self):
        for case in range(5):
            s = rng.stream(56, 1 + case)
            t = synthetic_triple(s, 3, delta=0.3)
            pts = s.uniform(-0.9, 0.9, size=(20, 3))
            assert _v_hessian_floor(t, pts) > 0.0
            for x in pts:
                assert float(np.linalg.eigvalsh(ricci_tensor(contracted_tensors(t, x)))[0]) >= -1e-9


class TestBochner:
    def test_quadratic_residual_vanishes(self):
        t = _ou_triple(3)
        u = make_test_function(rng.stream(57, 0), 3)
        x = np.array([0.1, 0.2, 0.3])
        assert abs(bochner_residual(contracted_tensors(t, x), *_du(u, x))) <= 1e-10

    def test_hessian_term_for_potential_partial(self):
        # |Riemannian Hessian of Phi_k|^2 collapses to a quarter of a
        # single contraction of the raised third tensor
        for t, sampler in _bank():
            x = sampler()
            ct = contracted_tensors(t, x)
            k = 0
            ug, uh = _partial(ct, k)
            a = uh - 0.5 * np.einsum("lij,l->ij", ct.up1, ug)
            hess_term = float(np.einsum("ij,jk,kl,li->", ct.inv, a, ct.inv, a))
            n = t.dim
            oracle = 0.25 * sum(
                ct.up1[m, k, j] * ct.up1[j, k, m]
                for m in range(n)
                for j in range(n)
            )
            assert hess_term == pytest.approx(oracle, abs=1e-9 * (1.0 + abs(oracle)))

    def test_residual_small_on_random_suite(self):
        count = 0
        for case in range(60):
            s = rng.stream(57, 1 + case)
            dim = 2 + case % 4
            t = synthetic_triple(s, dim, delta=0.5)
            u = make_test_function(s, dim)
            x = s.uniform(-0.9, 0.9, size=dim)
            assert abs(bochner_residual(contracted_tensors(t, x), *_du(u, x))) <= 1e-6
            count += 1
        for t, sampler in _bank():
            for k in range(7):
                u = make_test_function(rng.stream(57, 100 + k), t.dim)
                x = sampler()
                assert abs(bochner_residual(contracted_tensors(t, x), *_du(u, x))) <= 1e-6
                count += 1
        assert count >= 100


class TestInvariants:
    def test_conservation_gradient_identity(self):
        cases = _bank() + [
            (synthetic_triple(rng.stream(58, 0), 4, delta=0.5),
             lambda: rng.stream(58, 1).uniform(-0.8, 0.8, size=4)),
        ]
        for t, sampler in cases:
            for _ in range(5):
                res = triple_consistency_residual(contracted_tensors(t, sampler()))
                assert np.max(np.abs(res)) <= 1e-8

    def test_spectral_map_differential_bound(self):
        # the log-eigenvalue map is metrically 1-Lipschitz: its derivative
        # along e never exceeds the pullback length of e
        s = rng.stream(58, 2)
        t = synthetic_triple(s, 3, delta=0.6)
        checked = 0
        for _ in range(40):
            x = s.uniform(-0.9, 0.9, size=3)
            e = _unit(s, 3)
            ct = contracted_tensors(t, x)
            direction = np.einsum("ijk,k->ij", ct.third, e)
            w, v = np.linalg.eigh(0.5 * (ct.hess + ct.hess.T))
            if np.min(np.diff(w)) <= 1e-6 * w[-1]:
                continue  # near-degenerate spectrum at this point
            # first-order eigenvalue perturbation, relative to each eigenvalue
            dlam = np.einsum("ji,jk,ki->i", v, direction, v) / w
            length = math.sqrt(max(float(e @ _pullback(ct) @ e), 0.0))
            assert float(np.linalg.norm(dlam)) <= length + 1e-6
            inv_half = (v / np.sqrt(w)) @ v.T
            local_norm = np.linalg.norm(inv_half @ (0.5 * (direction + direction.T)) @ inv_half)
            assert length == pytest.approx(local_norm, abs=1e-9 * (1.0 + length))
            checked += 1
        assert checked >= 30

    def test_third_derivatives_against_fd(self):
        cases = [
            (_triple_1d(), np.array([0.35])),
            (_triple_1d_beta(), np.array([0.4])),
            (_triple_gaussian(), np.array([0.2, -0.4, 0.9])),
            (_triple_product(), np.array([0.6, 0.45])),
            (_triple_radial(), np.array([0.3, -0.25, 0.4])),
            (_triple_radial_in(), np.array([0.8, 0.5, -0.9])),
            (synthetic_triple(rng.stream(58, 3), 3, delta=0.6),
             np.array([0.3, 0.5, -0.4])),
        ]
        for t, x in cases:
            got = _derivs(t, x)["third"]
            ref = fd_third(t, x)
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) < 1e-6 * scale

    def test_test_function_symmetry(self):
        u = make_test_function(rng.stream(58, 4), 3)
        x = np.array([0.5, -1.0, 0.25])
        h = u.hess(x)
        assert np.max(np.abs(h - h.T)) < 1e-8 * (1.0 + np.max(np.abs(h)))
        c = u.cubic
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.max(np.abs(c - c.transpose(perm))) < 1e-12


class TestTripleConstruction:
    def test_unknown_map_kind_rejected(self):
        class _Odd:
            kind = "mystery"

        with pytest.raises(ValueError, match="mystery"):
            triple_from_map(_Odd())

    def test_nonsmooth_member_rejected(self):
        tm = brenier_1d(
            make_catalog_measure("laplace", (0.0, 1.0)),
            make_catalog_measure("gaussian", (0.0, 1.0)),
        )
        with pytest.raises(ValueError, match="second-derivative"):
            triple_from_map(tm)

    def test_synthetic_hessian_floor_on_box(self):
        for case in range(5):
            s = rng.stream(59, case)
            t = synthetic_triple(s, 3, delta=1.0, hess_floor=0.1)
            for _ in range(50):
                x = s.uniform(-1.0, 1.0, size=3)
                lo = float(np.linalg.eigvalsh(_derivs(t, x)["hess"])[0])
                assert lo >= 0.1 - 1e-12

    def test_synthetic_target_spectrum_range(self):
        t = synthetic_triple(rng.stream(59, 10), 4)
        w = np.linalg.eigvalsh(_derivs(t, np.zeros(4))["w_hess"])
        assert np.all(w >= 0.5 - 1e-12) and np.all(w <= 2.0 + 1e-12)

    def test_radial_origin_rejected(self):
        t = _triple_radial()
        with pytest.raises(ValueError, match=r"\|x\| > 0"):
            t.derivatives(np.zeros(3))


_OPERATORS = (
    operator_L,
    gamma2_expanded,
    gamma2_lower_bound,
    bmatrix_certificate,
    bochner_residual,
)


def _evaluations(t, u, x):
    """Every derivative, value, test-function derivative, tensor and operator at x."""
    ct = contracted_tensors(t, x)
    out = {f"ct.{field.name}": getattr(ct, field.name) for field in dataclasses.fields(ct)}
    out["v_value"] = t.v_value(x)
    out["w_value"] = t.w_value(ct.grad)
    ug, uh = _du(u, x)
    out.update({"u.value": u.value(x), "u.grad": ug, "u.hess": uh})
    for op in _OPERATORS:
        out[op.__name__] = op(ct, ug) if op is gamma2_lower_bound else op(ct, ug, uh)
    out["ricci_tensor"] = ricci_tensor(ct)
    out["triple_consistency_residual"] = triple_consistency_residual(ct)
    return out


def _scale(name, e):
    """Size of an evaluation; a residual is sized by the terms it cancels."""
    if name == "bochner_residual":
        return np.max(np.abs(e["gamma2_expanded"]))
    if name == "triple_consistency_residual":
        terms = (e["ct.v_grad"], np.einsum("iji->j", e["ct.up1"]), e["ct.hess"] @ e["ct.w_grad"])
        return max(np.max(np.abs(term)) for term in terms)
    return np.max(np.abs(e[name]))


class TestStacks:
    def test_matches_per_point_calls(self):
        cases = _bank() + [
            (synthetic_triple(rng.stream(60, 0), 3, delta=0.5),
             lambda s=rng.stream(60, 1): s.uniform(-0.8, 0.8, size=3)),
        ]
        for t, sampler in cases:
            x = np.stack([sampler() for _ in range(7)])
            u = make_test_function(rng.stream(60, 2), t.dim)
            stacked = _evaluations(t, u, x)
            for k in range(len(x)):
                single = _evaluations(t, u, x[k])
                for name, want in single.items():
                    got = stacked[name][k]
                    assert np.shape(got) == np.shape(want), name
                    gap = np.max(np.abs(got - want))
                    assert gap <= 1e-12 * _scale(name, single), (type(t).__name__, name, gap)

    def test_checks_name_the_first_failing_point(self):
        class _Pinched(SmoothTriple):
            # Hessian diag(1, x_0): ill-conditioned where x_0 is tiny
            def derivatives(self, x):
                h = np.zeros(x.shape[:-1] + (2, 2))
                h[..., 0, 0] = 1.0
                h[..., 1, 1] = x[..., 0]
                z = np.zeros_like(x)
                return z, h, np.zeros(x.shape[:-1] + (2, 2, 2)), z, h, z, h

        x = np.array([[1.0, 0.0], [0.5, 0.0], [5e-13, 0.0], [1e-13, 0.0]])
        with pytest.raises(ArithmeticError, match=r"ill-conditioned at point 2 \(condition 2\.000e\+12"):
            contracted_tensors(_Pinched(2), x)

        base = synthetic_triple(rng.stream(60, 3), 2, delta=0.4)

        class _Skewed(SmoothTriple):
            # V's gradient is off by a constant where x_0 > 0.3
            def derivatives(self, x):
                d = list(base.derivatives(x))
                d[3] = d[3] + np.where(x[..., :1] > 0.3, np.array([0.5, -0.3]), 0.0)
                return tuple(d)

        u = CubicTestFunction(0.0, np.array([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2, 2)))
        x = np.array([[0.1, 0.0], [0.2, 0.1], [0.4, 0.1], [0.5, -0.2]])
        with pytest.raises(ArithmeticError, match=r"disagree by .* at point 2 .*mass conservation"):
            operator_L(contracted_tensors(_Skewed(2), x), *_du(u, x))

        # _Twisted: an asymmetric second derivative where x_0 > 0.3
        twisted_hess = np.zeros(x.shape[:-1] + (2, 2))
        twisted_hess[..., 0, 1] = np.where(x[..., 0] > 0.3, 1.0, 0.0)
        with pytest.raises(ArithmeticError, match=r"lost symmetry by 1\.000e\+00 at point 2"):
            bmatrix_certificate(contracted_tensors(_ou_triple(2), x), np.zeros_like(x), twisted_hess)

        x = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\|x\| > 0 at point 1"):
            _triple_radial().derivatives(x)
