"""Curvature calculus for transport potentials.

Given a smooth convex potential Phi pushing exp(-V) forward to exp(-W),
the operator

    L u = Phi^{ij} u_{ij} - sum_j W_j(grad Phi) u_j

is symmetric in L^2(exp(-V)), and its carre-du-champ iterate Gamma_2
controls spectral concentration.  This module evaluates L, Gamma_2, the
pullback metric, and the Ricci tensor of the associated Hessian manifold
at sample points, for transport triples (Phi, V, W) whose derivatives are
available in closed form.

Index conventions: lower indices are partial derivatives, Phi^{ij} is the
inverse Hessian, and raising an index means contracting with Phi^{ij}.
The mixed third-order symbols are

    Phi^i_{jk}  = Phi^{il} Phi_{jkl}
    Phi^{ij}_k  = Phi^{il} Phi^{jm} Phi_{klm}
    Phi^{ijk}   = Phi^{il} Phi^{jm} Phi^{kr} Phi_{lmr}

All contractions go through numpy.einsum; tensors are dense ndarrays of
shape (n,), (n, n), (n, n, n).
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import RadialMeasure
from .spd import sqrt_factors

__all__ = [
    "SmoothTriple",
    "CubicTestFunction",
    "PhiPartialTestFunction",
    "make_test_function",
    "triple_from_map",
    "synthetic_triple",
    "contracted_tensors",
    "operator_L",
    "gamma2_expanded",
    "gamma2_lower_bound",
    "bmatrix_certificate",
    "pullback_metric",
    "ricci_tensor",
    "bochner_residual",
    "triple_consistency_residual",
]

_MAX_CONDITION = 1e12


class SmoothTriple:
    """A transport triple (Phi, V, W) with pointwise derivative oracles.

    Subclasses provide grad/hess/third of Phi at a point x, grad/hess of
    V at x, and grad/hess of W at a point y (evaluated at y = grad Phi(x)
    by the operators).  ``provenance`` records whether the third
    derivatives are closed-form or finite-difference reconstructions.
    """

    provenance = "analytic"

    def __init__(self, dim):
        self.dim = int(dim)

    def phi_grad(self, x):
        raise NotImplementedError

    def phi_hess(self, x):
        raise NotImplementedError

    def phi_third(self, x):
        raise NotImplementedError

    def phi_fourth(self, x):
        # optional: only needed when a partial of Phi serves as a test
        # function and its own third derivative is requested
        raise NotImplementedError

    def v_grad(self, x):
        raise NotImplementedError

    def v_hess(self, x):
        raise NotImplementedError

    def w_grad(self, y):
        raise NotImplementedError

    def w_hess(self, y):
        raise NotImplementedError

    def v_value(self, x):
        # value oracle, used by quadrature tests for the weight exp(-V)
        raise NotImplementedError

    def w_value(self, y):
        raise NotImplementedError

    def v_hessian_floor(self, points):
        """Smallest eigenvalue of D^2 V over the given points."""
        return min(
            float(np.linalg.eigvalsh(self.v_hess(np.asarray(x, dtype=float)))[0])
            for x in points
        )

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class _Triple1D(SmoothTriple):
    """Closed-form triple from a one-dimensional monotone rearrangement."""

    def __init__(self, tm):
        super().__init__(1)
        for m, side in ((tm.source, "source"), (tm.target, "target")):
            if not getattr(m, "has_d2", False):
                raise ValueError(
                    f"{side} measure {m.name} has no second-derivative oracle; "
                    "the triple needs smooth potentials"
                )
        self.tm = tm

    def _pieces(self, x):
        s = float(np.asarray(x, dtype=float).reshape(()))
        t = float(self.tm.map_points(s))
        dd = float(self.tm.second_derivative(s))
        return s, t, dd

    def phi_grad(self, x):
        _, t, _ = self._pieces(x)
        return np.array([t])

    def phi_hess(self, x):
        _, _, dd = self._pieces(x)
        return np.array([[dd]])

    def phi_third(self, x):
        s, t, dd = self._pieces(x)
        w1 = float(self.tm.target.potential_d1(t))
        v1 = float(self.tm.source.potential_d1(s))
        return np.array([[[dd * (w1 * dd - v1)]]])

    def phi_fourth(self, x):
        s, t, dd = self._pieces(x)
        v1 = float(self.tm.source.potential_d1(s))
        v2 = float(self.tm.source.potential_d2(s))
        w1 = float(self.tm.target.potential_d1(t))
        w2 = float(self.tm.target.potential_d2(t))
        d3 = dd * (w1 * dd - v1)
        return np.array([[[[d3 * (w1 * dd - v1) + dd * (w2 * dd * dd + w1 * d3 - v2)]]]])

    def v_grad(self, x):
        s = float(np.asarray(x, dtype=float).reshape(()))
        return np.array([float(self.tm.source.potential_d1(s))])

    def v_hess(self, x):
        s = float(np.asarray(x, dtype=float).reshape(()))
        return np.array([[float(self.tm.source.potential_d2(s))]])

    def w_grad(self, y):
        t = float(np.asarray(y, dtype=float).reshape(()))
        return np.array([float(self.tm.target.potential_d1(t))])

    def w_hess(self, y):
        t = float(np.asarray(y, dtype=float).reshape(()))
        return np.array([[float(self.tm.target.potential_d2(t))]])

    def v_value(self, x):
        s = float(np.asarray(x, dtype=float).reshape(()))
        return float(self.tm.source.potential(s))

    def w_value(self, y):
        t = float(np.asarray(y, dtype=float).reshape(()))
        return float(self.tm.target.potential(t))


class _TripleGaussian(SmoothTriple):
    """Quadratic potential between Gaussians: third derivatives vanish."""

    def __init__(self, tm):
        super().__init__(tm.dim)
        self.tm = tm
        self._a = tm.matrix

    def phi_grad(self, x):
        return self.tm.map_points(np.asarray(x, dtype=float))

    def phi_hess(self, x):
        return self._a.copy()

    def phi_third(self, x):
        n = self.dim
        return np.zeros((n, n, n))

    def phi_fourth(self, x):
        n = self.dim
        return np.zeros((n, n, n, n))

    def v_grad(self, x):
        return self.tm.source.potential_grad(np.asarray(x, dtype=float))

    def v_hess(self, x):
        return self.tm.source.potential_hess(np.asarray(x, dtype=float))

    def w_grad(self, y):
        return self.tm.target.potential_grad(np.asarray(y, dtype=float))

    def w_hess(self, y):
        return self.tm.target.potential_hess(np.asarray(y, dtype=float))

    def v_value(self, x):
        return float(self.tm.source.potential(np.asarray(x, dtype=float)))

    def w_value(self, y):
        return float(self.tm.target.potential(np.asarray(y, dtype=float)))


class _TripleProduct(SmoothTriple):
    """Coordinatewise aggregation of one-dimensional triples."""

    def __init__(self, tm):
        super().__init__(tm.dim)
        self.tm = tm
        self.parts = [_Triple1D(f) for f in tm.factors]

    def phi_grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.array(
            [float(p.phi_grad(x[i : i + 1])[0]) for i, p in enumerate(self.parts)]
        )

    def phi_hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.diag(
            [float(p.phi_hess(x[i : i + 1])[0, 0]) for i, p in enumerate(self.parts)]
        )

    def phi_third(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.dim,) * 3)
        for i, p in enumerate(self.parts):
            out[i, i, i] = float(p.phi_third(x[i : i + 1])[0, 0, 0])
        return out

    def phi_fourth(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.dim,) * 4)
        for i, p in enumerate(self.parts):
            out[i, i, i, i] = float(p.phi_fourth(x[i : i + 1])[0, 0, 0, 0])
        return out

    def v_grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.array(
            [float(p.v_grad(x[i : i + 1])[0]) for i, p in enumerate(self.parts)]
        )

    def v_hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.diag(
            [float(p.v_hess(x[i : i + 1])[0, 0]) for i, p in enumerate(self.parts)]
        )

    def w_grad(self, y):
        y = np.asarray(y, dtype=float)
        return np.array(
            [float(p.w_grad(y[i : i + 1])[0]) for i, p in enumerate(self.parts)]
        )

    def w_hess(self, y):
        y = np.asarray(y, dtype=float)
        return np.diag(
            [float(p.w_hess(y[i : i + 1])[0, 0]) for i, p in enumerate(self.parts)]
        )

    def v_value(self, x):
        x = np.asarray(x, dtype=float)
        return sum(p.v_value(x[i : i + 1]) for i, p in enumerate(self.parts))

    def w_value(self, y):
        y = np.asarray(y, dtype=float)
        return sum(p.w_value(y[i : i + 1]) for i, p in enumerate(self.parts))


class _TripleRadial(SmoothTriple):
    """Rotation-invariant triple Phi(x) = psi(|x|) from a radial map.

    With the profile phi = psi', the derivative tensors follow the
    standard radial decomposition in the unit direction e = x/r:

        Phi_i   = phi e_i
        Phi_ij  = phi' e_i e_j + (phi/r)(delta_ij - e_i e_j)
        Phi_ijk = phi'' e_i e_j e_k
                  + ((phi' - phi/r)/r)(delta_ij e_k + delta_ik e_j
                                       + delta_jk e_i - 3 e_i e_j e_k)
    """

    def __init__(self, tm):
        super().__init__(tm.dim)
        if not isinstance(tm.source, RadialMeasure):
            raise TypeError("radial triple expects a radial transport map")
        self.tm = tm

    def _frame(self, x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r < 1e-10:
            raise ValueError("radial triple oracles need |x| > 0")
        return r, x / r

    def _profile_derivs(self, r):
        phi = float(self.tm.profile(r))
        d1 = float(self.tm.profile_d1(np.asarray(r), phi=np.asarray(phi)))
        src, dst = self.tm.source, self.tm.target
        slope = float(src.radial_pdf_logslope(r)) - float(
            dst.radial_pdf_logslope(phi)
        ) * d1
        d2 = d1 * slope
        return phi, d1, d2

    def phi_grad(self, x):
        r, e = self._frame(x)
        phi, _, _ = self._profile_derivs(r)
        return phi * e

    def phi_hess(self, x):
        r, e = self._frame(x)
        phi, d1, _ = self._profile_derivs(r)
        proj = np.outer(e, e)
        return d1 * proj + (phi / r) * (np.eye(self.dim) - proj)

    def phi_third(self, x):
        r, e = self._frame(x)
        phi, d1, d2 = self._profile_derivs(r)
        n = self.dim
        eye = np.eye(n)
        eee = np.einsum("i,j,k->ijk", e, e, e)
        sym = (
            np.einsum("ij,k->ijk", eye, e)
            + np.einsum("ik,j->ijk", eye, e)
            + np.einsum("jk,i->ijk", eye, e)
        )
        return d2 * eee + ((d1 - phi / r) / r) * (sym - 3.0 * eee)

    def v_grad(self, x):
        r, e = self._frame(x)
        return float(self.tm.source.radial_potential_d1(r)) * e

    def v_hess(self, x):
        r, e = self._frame(x)
        d1 = float(self.tm.source.radial_potential_d1(r))
        d2 = float(self.tm.source.radial_potential_d2(r))
        proj = np.outer(e, e)
        return d2 * proj + (d1 / r) * (np.eye(self.dim) - proj)

    def w_grad(self, y):
        r, e = self._frame(y)
        return float(self.tm.target.radial_potential_d1(r)) * e

    def w_hess(self, y):
        r, e = self._frame(y)
        d1 = float(self.tm.target.radial_potential_d1(r))
        d2 = float(self.tm.target.radial_potential_d2(r))
        proj = np.outer(e, e)
        return d2 * proj + (d1 / r) * (np.eye(self.dim) - proj)

    def v_value(self, x):
        r = float(np.linalg.norm(np.asarray(x, dtype=float)))
        return float(self.tm.source.radial_potential(r))

    def w_value(self, y):
        r = float(np.linalg.norm(np.asarray(y, dtype=float)))
        return float(self.tm.target.radial_potential(r))


class _TripleSynthetic(SmoothTriple):
    """Phi = |x|^2/2 + cubic perturbation; V defined by mass conservation.

    The target potential W is a chosen convex quadratic, and V is whatever
    the transport equation forces:

        V(x) = -log det D^2 Phi(x) + W(grad Phi(x)).

    Because Phi has vanishing fourth derivatives, V's first two
    derivatives close in terms of the tensors already at hand, so the
    triple satisfies the conservation identity exactly, with no
    quadrature or FD noise.  V need not be convex; use
    ``v_hessian_floor`` to filter where convexity matters.
    """

    def __init__(self, cubic, w_quad, w_center):
        super().__init__(cubic.shape[0])
        self.cubic = cubic  # Phi_ijk, constant and fully symmetric
        self.w_quad = np.asarray(w_quad, dtype=float)
        self.w_center = np.asarray(w_center, dtype=float)

    def phi_grad(self, x):
        x = np.asarray(x, dtype=float)
        return x + 0.5 * np.einsum("ijk,j,k->i", self.cubic, x, x)

    def phi_hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.eye(self.dim) + np.einsum("ijk,k->ij", self.cubic, x)

    def phi_third(self, x):
        return self.cubic.copy()

    def phi_fourth(self, x):
        n = self.dim
        return np.zeros((n, n, n, n))

    def w_grad(self, y):
        return self.w_quad @ (np.asarray(y, dtype=float) - self.w_center)

    def w_hess(self, y):
        return self.w_quad.copy()

    def w_value(self, y):
        # normalizer omitted: the triple only promises derivatives, and the
        # quadrature tests use the weight up to a constant factor
        d = np.asarray(y, dtype=float) - self.w_center
        return 0.5 * float(d @ self.w_quad @ d)

    def v_value(self, x):
        h = self.phi_hess(x)
        sign, logdet = np.linalg.slogdet(h)
        if sign <= 0:
            raise ArithmeticError("potential Hessian lost positivity")
        return self.w_value(self.phi_grad(x)) - float(logdet)

    def v_grad(self, x):
        h = self.phi_hess(x)
        h_inv = np.linalg.inv(h)
        log_det_grad = np.einsum("ik,ikj->j", h_inv, self.cubic)
        return -log_det_grad + h @ self.w_grad(self.phi_grad(x))

    def v_hess(self, x):
        h = self.phi_hess(x)
        h_inv = np.linalg.inv(h)
        wg = self.w_grad(self.phi_grad(x))
        metric = np.einsum(
            "ab,bcj,cd,dak->jk", h_inv, self.cubic, h_inv, self.cubic
        )
        tilt = np.einsum("ijk,i->jk", self.cubic, wg)
        squeeze = h @ self.w_quad @ h
        return metric + tilt + squeeze


class CubicTestFunction:
    """u = c + a.x + x'Qx/2 + C[x,x,x]/6 with exact derivative oracles."""

    def __init__(self, const, linear, quadratic, cubic):
        self.const = float(const)
        self.linear = np.asarray(linear, dtype=float)
        self.quadratic = np.asarray(quadratic, dtype=float)
        self.cubic = np.asarray(cubic, dtype=float)
        self.dim = self.linear.size

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.const
            + self.linear @ x
            + 0.5 * x @ self.quadratic @ x
            + np.einsum("ijk,i,j,k->", self.cubic, x, x, x) / 6.0
        )

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.linear
            + self.quadratic @ x
            + 0.5 * np.einsum("ijk,j,k->i", self.cubic, x, x)
        )

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return self.quadratic + np.einsum("ijk,k->ij", self.cubic, x)

    def third(self, x):
        return self.cubic.copy()


class PhiPartialTestFunction:
    """u = Phi_k, the k-th partial of the potential of a triple.

    ``third`` needs the triple's fourth-derivative oracle, which radial
    triples do not provide; the first two derivatives always work.
    """

    def __init__(self, triple, k):
        self.triple = triple
        self.k = int(k)
        self.dim = triple.dim

    def value(self, x):
        return float(self.triple.phi_grad(x)[self.k])

    def grad(self, x):
        return self.triple.phi_hess(x)[:, self.k]

    def hess(self, x):
        return self.triple.phi_third(x)[:, :, self.k]

    def third(self, x):
        return self.triple.phi_fourth(x)[:, :, :, self.k]


def _symmetrize3(c):
    return (
        c
        + c.transpose(0, 2, 1)
        + c.transpose(1, 0, 2)
        + c.transpose(1, 2, 0)
        + c.transpose(2, 0, 1)
        + c.transpose(2, 1, 0)
    ) / 6.0


def make_test_function(stream, dim, scale=1.0):
    """Random cubic test function with symmetric derivative tensors."""
    quad = stream.standard_normal((dim, dim))
    cubic = _symmetrize3(stream.standard_normal((dim, dim, dim)))
    return CubicTestFunction(
        const=stream.standard_normal() * scale,
        linear=stream.standard_normal(dim) * scale,
        quadratic=0.5 * (quad + quad.T) * scale,
        cubic=cubic * scale,
    )


def triple_from_map(tm):
    """Closed-form triple for a transport map built by this library."""
    builders = {
        "1d": _Triple1D,
        "gaussian-linear": _TripleGaussian,
        "product": _TripleProduct,
        "radial": _TripleRadial,
    }
    if tm.kind not in builders:
        raise ValueError(f"no analytic triple for map kind {tm.kind!r}")
    return builders[tm.kind](tm)


def synthetic_triple(stream, dim, delta=0.2, hess_floor=0.1, box_radius=1.0):
    """Cubic-perturbed quadratic triple, exactly mass-conserving.

    The cubic tensor is scaled so that D^2 Phi stays above ``hess_floor``
    times the identity on the box |x|_inf <= box_radius; W is a random
    convex quadratic with eigenvalues in [1/2, 2].
    """
    cubic = _symmetrize3(stream.standard_normal((dim, dim, dim)))
    # sup over the box of the Hessian perturbation, in operator norm
    bound = box_radius * float(
        np.linalg.norm(np.abs(cubic).sum(axis=2), ord=2)
    )
    if bound > 0:
        cubic *= delta * (1.0 - hess_floor) / bound
    q = stream.standard_normal((dim, dim))
    q, _ = np.linalg.qr(q)
    eig = np.exp(stream.uniform(-math.log(2.0), math.log(2.0), size=dim))
    w_quad = (q * eig) @ q.T
    w_quad = 0.5 * (w_quad + w_quad.T)
    center = stream.uniform(-0.5, 0.5, size=dim)
    return _TripleSynthetic(cubic, w_quad, center)


@dataclass(frozen=True)
class ContractedTensors:
    """Tensor bundle at a point: Hessian, its inverse, and raised thirds."""

    hess: np.ndarray
    inv: np.ndarray
    third: np.ndarray  # Phi_ijk
    up1: np.ndarray  # Phi^i_{jk}
    up2: np.ndarray  # Phi^{ij}_k
    up3: np.ndarray  # Phi^{ijk}
    condition: float


def contracted_tensors(t, x):
    """All third-order contractions at x, computed from one inverse."""
    x = np.asarray(x, dtype=float)
    h = t.phi_hess(x)
    eig = np.linalg.eigvalsh(h)
    if eig[0] <= 0 or eig[-1] / eig[0] > _MAX_CONDITION:
        cond = math.inf if eig[0] <= 0 else eig[-1] / eig[0]
        raise ArithmeticError(
            f"potential Hessian too ill-conditioned at this point "
            f"(condition {cond:.3e} > {_MAX_CONDITION:.0e})"
        )
    inv = np.linalg.inv(h)
    inv = 0.5 * (inv + inv.T)
    third = t.phi_third(x)
    up1 = np.einsum("il,ljk->ijk", inv, third)
    up2 = np.einsum("il,jm,klm->ijk", inv, inv, third)
    up3 = np.einsum("il,jm,kr,lmr->ijk", inv, inv, inv, third)
    return ContractedTensors(
        hess=h,
        inv=inv,
        third=third,
        up1=up1,
        up2=up2,
        up3=up3,
        condition=float(eig[-1] / eig[0]),
    )


def operator_L(t, u, x, tensors=None):
    """L u = Phi^{ij} u_{ij} - W_j(grad Phi) u_j.

    The substituted form, which eliminates W through the conservation
    identity, is computed alongside; the two must agree, and a gap beyond
    1e-6 means the triple's V, W, and Phi are mutually inconsistent.
    """
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    ug = u.grad(x)
    trace_term = float(np.einsum("ij,ij->", ct.inv, u.hess(x)))
    w_at = t.w_grad(t.phi_grad(x))
    w_form = trace_term - float(w_at @ ug)
    v_form = trace_term - float(
        (np.einsum("imi->m", ct.up2) + ct.inv @ t.v_grad(x)) @ ug
    )
    scale = 1.0 + abs(trace_term) + float(np.abs(w_at @ ug))
    if abs(w_form - v_form) > 1e-6 * scale:
        raise ArithmeticError(
            f"the two forms of L disagree by {abs(w_form - v_form):.3e} "
            f"(scale {scale:.3e}); the triple violates mass conservation"
        )
    return w_form


def gamma2_expanded(t, u, x, tensors=None):
    """The expanded carre-du-champ iterate at a point.

    Gamma_2(u) = Phi^{kl}Phi^{ij}u_{ik}u_{jl} - Phi^{ijk}u_{ij}u_k
                 + (Phi^{ik}_l Phi^{jl}_k + Phi^{ik}Phi^{jl}V_{kl}) u_i u_j / 2
                 + (W_{ij} o grad Phi) u_i u_j / 2
    """
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    ug, uh = u.grad(x), u.hess(x)
    term1 = float(np.einsum("ij,jk,kl,li->", ct.inv, uh, ct.inv, uh))
    term2 = float(np.einsum("ijk,ij,k->", ct.up3, uh, ug))
    s2 = np.einsum("akl,blk->ab", ct.up2, ct.up2)
    v_mid = ct.inv @ t.v_hess(x) @ ct.inv
    w_mid = t.w_hess(t.phi_grad(x))
    quad = 0.5 * (s2 + v_mid + w_mid)
    return term1 - term2 + float(ug @ quad @ ug)


def gamma2_lower_bound(t, u, x, tensors=None):
    """Gradient-only floor Phi^{ik}_l Phi^{jl}_k u_i u_j / 4; nonnegative."""
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    ug = u.grad(x)
    s2 = np.einsum("akl,blk->ab", ct.up2, ct.up2)
    return 0.25 * float(ug @ s2 @ ug)


def bmatrix_certificate(t, u, x, tensors=None):
    """Tr(B^2) for b_i^j = Phi^{jk}u_{ki} - Phi^{jk}_i u_k / 2, as a square.

    (D^2 Phi) B is the symmetric matrix u_{ij} - Phi^l_{ij} u_l / 2, so a
    congruence by the inverse square root of the Hessian exhibits Tr(B^2)
    as a Frobenius norm.  Always nonnegative; equals the three u-second-
    order terms of the expanded Gamma_2 with the quarter coefficient.
    """
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    ug, uh = u.grad(x), u.hess(x)
    a = uh - 0.5 * np.einsum("lij,l->ij", ct.up1, ug)
    _, inv_half = sqrt_factors(ct.hess)
    m = inv_half @ a @ inv_half
    asym = float(np.max(np.abs(m - m.T)))
    if asym > 1e-8 * (1.0 + float(np.max(np.abs(m)))):
        raise ArithmeticError(
            f"congruence of the B-matrix lost symmetry by {asym:.3e}"
        )
    m = 0.5 * (m + m.T)
    return float(np.sum(m * m))


def pullback_metric(t, x, tensors=None):
    """g_ij = Phi^l_{ik} Phi^k_{jl}, checked against the trace form."""
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    g = np.einsum("lik,kjl->ij", ct.up1, ct.up1)
    trace_form = np.einsum(
        "ab,bci,cd,daj->ij", ct.inv, ct.third, ct.inv, ct.third
    )
    if np.max(np.abs(g - trace_form)) > 1e-9 * (1.0 + np.max(np.abs(g))):
        raise ArithmeticError("pullback metric forms disagree beyond 1e-9")
    g = 0.5 * (g + g.T)
    floor = float(np.linalg.eigvalsh(g)[0])
    if floor < -1e-10:
        raise ArithmeticError(
            f"pullback metric has negative eigenvalue {floor:.3e}"
        )
    return g


def ricci_tensor(t, x, tensors=None):
    """Ric_il = Phi^k_{ij} Phi^j_{lk} / 4 + V_il / 2
    + Phi_{ji} Phi_{lk} (W_{jk} o grad Phi) / 2."""
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    first = 0.25 * np.einsum("kij,jlk->il", ct.up1, ct.up1)
    second = 0.5 * t.v_hess(x)
    w_mid = t.w_hess(t.phi_grad(x))
    third = 0.5 * ct.hess @ w_mid @ ct.hess
    ric = first + second + third
    return 0.5 * (ric + ric.T)


def bochner_residual(t, u, x, tensors=None):
    """Expanded Gamma_2 minus its geometric decomposition; expected zero.

    The decomposition is |Hess_M u|^2_M + Ric_M(grad_M u, grad_M u) with
    (Hess_M u)_{ij} = u_{ij} - Phi^k_{ij} u_k / 2 and indices raised by
    the Hessian metric.
    """
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    ug = u.grad(x)
    a = u.hess(x) - 0.5 * np.einsum("kij,k->ij", ct.up1, ug)
    hess_term = float(np.einsum("ij,jk,kl,li->", ct.inv, a, ct.inv, a))
    raised = ct.inv @ ug
    ric_term = float(raised @ ricci_tensor(t, x, tensors=ct) @ raised)
    return gamma2_expanded(t, u, x, tensors=ct) - hess_term - ric_term


def triple_consistency_residual(t, x, tensors=None):
    """Gradient of the conservation identity: V_j + Phi^i_{ji}
    - Phi_{ij} W_i(grad Phi); the zero vector for exact triples."""
    x = np.asarray(x, dtype=float)
    ct = tensors if tensors is not None else contracted_tensors(t, x)
    w_at = t.w_grad(t.phi_grad(x))
    return t.v_grad(x) + np.einsum("iji->j", ct.up1) - ct.hess @ w_at
