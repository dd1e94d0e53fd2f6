"""Curvature calculus for transport potentials.

Given a smooth convex potential Phi pushing exp(-V) forward to exp(-W),
the operator

    L u = Phi^{ij} u_{ij} - sum_j W_j(grad Phi) u_j

is symmetric in L^2(exp(-V)), and its carre-du-champ iterate Gamma_2
controls spectral concentration.  This module evaluates L, Gamma_2, its
certificate split, and the Ricci tensor of the associated Hessian manifold
at sample points, for transport triples (Phi, V, W) whose derivatives are
available in closed form.

Index conventions: lower indices are partial derivatives, Phi^{ij} is the
inverse Hessian, and raising an index means contracting with Phi^{ij}.
The mixed third-order symbols are

    Phi^i_{jk}  = Phi^{il} Phi_{jkl}
    Phi^{ij}_k  = Phi^{il} Phi^{jm} Phi_{klm}
    Phi^{ijk}   = Phi^{il} Phi^{jm} Phi^{kr} Phi_{lmr}

Points are stacks: a triple's ``derivatives(x)`` and a test function's
``grad`` and ``hess`` take x of shape (..., n) and keep its leading shape,
so a batch of points is one call.  ``contracted_tensors(t, x)`` makes the
one ``derivatives`` call on a stack and bundles its arrays with the inverse
Hessian and the raised third derivatives.  The operators read arrays only:
the bundle, and the test function's gradient ``ug`` (..., n) and Hessian
``uh`` (..., n, n) at the bundle's points.  The partial Phi_k of the
potential, as a test function, has gradient ``ct.hess[..., :, k]`` and
Hessian ``ct.third[..., :, :, k]``.  All contractions go through
numpy.einsum over the leading axes; tensors are dense ndarrays of shape
(..., n), (..., n, n), (..., n, n, n), and scalars have shape (...).  A
check that fails names the first failing point of the stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spd import sqrt_factors

__all__ = [
    "SmoothTriple",
    "CubicTestFunction",
    "make_test_function",
    "triple_from_map",
    "synthetic_triple",
    "contracted_tensors",
    "operator_L",
    "gamma2_expanded",
    "gamma2_lower_bound",
    "bmatrix_certificate",
    "ricci_tensor",
    "bochner_residual",
    "triple_consistency_residual",
]

_MAX_CONDITION = 1e12


class SmoothTriple:
    """A transport triple (Phi, V, W) answering on point stacks.

    ``derivatives(x)`` takes points x of shape (..., d) and returns the
    seven arrays grad Phi, D^2 Phi, D^3 Phi, grad V, D^2 V, grad W, D^2 W in
    ``ContractedTensors`` field order, W's taken at y = grad Phi(x), with
    shapes (..., d), (..., d, d) and (..., d, d, d).  Each subclass computes
    the pieces these share once per call.  ``v_value(x)`` and ``w_value(y)``
    have shape (...); quadrature tests use them for the weights exp(-V) and
    exp(-W).
    """

    def __init__(self, dim):
        self.dim = int(dim)

    def derivatives(self, x):
        raise NotImplementedError

    def v_value(self, x):
        raise NotImplementedError

    def w_value(self, y):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# tensor order of each array ``derivatives`` returns
_ORDERS = (1, 2, 3, 1, 2, 1, 2)


def _first(bad):
    """Index of the first flagged point, and " at point k" naming it in a stack."""
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    if not idx:
        return idx, ""
    return idx, f" at point {idx[0] if len(idx) == 1 else idx}"


def _constant(a, x):
    """The point-independent tensor ``a`` repeated over the points of x."""
    return np.broadcast_to(a, np.shape(x)[:-1] + a.shape).copy()


def _coordinate(f, x):
    """f of the one coordinate of points x of shape (..., 1), shaped (...)."""
    return np.asarray(f(np.asarray(x, dtype=float)[..., 0]))


def _diagonal(d, order):
    """Tensor of the given order over n whose diagonal is d, shape (..., n)."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,) * (order - 1))
    out[(...,) + (np.arange(n),) * order] = d
    return out


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

    def _scalars(self, s):
        """The seven derivatives at coordinates s, each shaped like s."""
        src, dst = self.tm.source, self.tm.target
        t = np.asarray(self.tm.map_points(s))
        dd = np.exp(self.tm._log_d2(s, t))
        v1 = np.asarray(src.potential_d1(s))
        w1 = np.asarray(dst.potential_d1(t))
        third = dd * (w1 * dd - v1)
        return t, dd, third, v1, np.asarray(src.potential_d2(s)), w1, np.asarray(dst.potential_d2(t))

    def derivatives(self, x):
        s = np.asarray(x, dtype=float)[..., 0]
        return tuple(a[(...,) + (None,) * k] for a, k in zip(self._scalars(s), _ORDERS))

    def v_value(self, x):
        return _coordinate(self.tm.source.potential, x)

    def w_value(self, y):
        return _coordinate(self.tm.target.potential, y)


class _TripleGaussian(SmoothTriple):
    """Quadratic potential between Gaussians: third derivatives vanish."""

    def __init__(self, tm):
        super().__init__(tm.dim)
        self.tm = tm

    def derivatives(self, x):
        x = np.asarray(x, dtype=float)
        src, dst = self.tm.source, self.tm.target
        y = self.tm.map_points(x)
        return (
            y,
            _constant(self.tm.matrix, x),
            _constant(np.zeros((self.dim,) * 3), x),
            src.potential_grad(x),
            _constant(src.potential_hess(x), x),
            dst.potential_grad(y),
            _constant(dst.potential_hess(y), y),
        )

    def v_value(self, x):
        return self.tm.source.potential(np.asarray(x, dtype=float))

    def w_value(self, y):
        return self.tm.target.potential(np.asarray(y, dtype=float))


class _TripleProduct(SmoothTriple):
    """Coordinatewise aggregation of one-dimensional triples."""

    def __init__(self, tm):
        super().__init__(tm.dim)
        self.tm = tm
        self.parts = [_Triple1D(f) for f in tm.factors]

    def derivatives(self, x):
        x = np.asarray(x, dtype=float)
        columns = zip(*(p._scalars(x[..., i]) for i, p in enumerate(self.parts)))
        return tuple(_diagonal(np.stack(c, axis=-1), k) for c, k in zip(columns, _ORDERS))

    def _summed(self, value, x):
        """Sum over the factors of one value oracle on each factor's coordinate."""
        x = np.asarray(x, dtype=float)
        return np.stack(
            [value(p, x[..., i : i + 1]) for i, p in enumerate(self.parts)], axis=-1
        ).sum(axis=-1)

    def v_value(self, x):
        return self._summed(_Triple1D.v_value, x)

    def w_value(self, y):
        return self._summed(_Triple1D.w_value, y)


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
        self.tm = tm

    def _frame(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        bad = r < 1e-10
        if np.any(bad):
            _, at = _first(bad)
            raise ValueError(f"radial triple oracles need |x| > 0{at}")
        return r, x / r[..., None]

    def _split(self, e, radial, tangential):
        """radial e e^T + tangential (I - e e^T), with (...) coefficients."""
        proj = e[..., :, None] * e[..., None, :]
        eye = np.eye(self.dim)
        return radial[..., None, None] * proj + tangential[..., None, None] * (eye - proj)

    def derivatives(self, x):
        r, e = self._frame(x)
        src, dst = self.tm.source, self.tm.target
        phi = self.tm.profile(r)
        d1 = self.tm.profile_d1(r, phi=phi)
        d2 = d1 * (src.radial_pdf_logslope(r) - dst.radial_pdf_logslope(phi) * d1)
        eye = np.eye(self.dim)
        eee = np.einsum("...i,...j,...k->...ijk", e, e, e)
        sym = (
            np.einsum("ij,...k->...ijk", eye, e)
            + np.einsum("ik,...j->...ijk", eye, e)
            + np.einsum("jk,...i->...ijk", eye, e)
        )
        bend = (d1 - phi / r) / r
        third = d2[..., None, None, None] * eee + bend[..., None, None, None] * (sym - 3.0 * eee)
        y = phi[..., None] * e
        ry, ey = self._frame(y)
        v1, w1 = src.radial_potential_d1(r), dst.radial_potential_d1(ry)
        return (
            y,
            self._split(e, d1, phi / r),
            third,
            v1[..., None] * e,
            self._split(e, src.radial_potential_d2(r), v1 / r),
            w1[..., None] * ey,
            self._split(ey, dst.radial_potential_d2(ry), w1 / ry),
        )

    def v_value(self, x):
        return self.tm.source.potential(x)

    def w_value(self, y):
        return self.tm.target.potential(y)


class _TripleSynthetic(SmoothTriple):
    """Phi = |x|^2/2 + cubic perturbation; V defined by mass conservation.

    The target potential W is a chosen convex quadratic, and V is whatever
    the transport equation forces:

        V(x) = -log det D^2 Phi(x) + W(grad Phi(x)).

    Because Phi has vanishing fourth derivatives, V's first two
    derivatives close in terms of the tensors already at hand, so the
    triple satisfies the conservation identity exactly, with no
    quadrature or FD noise.  V need not be convex.
    """

    def __init__(self, cubic, w_quad, w_center):
        super().__init__(cubic.shape[0])
        self.cubic = cubic  # Phi_ijk, constant and fully symmetric
        self.w_quad = np.asarray(w_quad, dtype=float)
        self.w_center = np.asarray(w_center, dtype=float)

    def _grad(self, x):
        return x + 0.5 * np.einsum("ijk,...j,...k->...i", self.cubic, x, x)

    def _hess(self, x):
        return np.eye(self.dim) + np.einsum("ijk,...k->...ij", self.cubic, x)

    def derivatives(self, x):
        x = np.asarray(x, dtype=float)
        h = self._hess(x)
        h_inv = np.linalg.inv(h)
        y = self._grad(x)
        wg = np.einsum("ij,...j->...i", self.w_quad, y - self.w_center)
        log_det_grad = np.einsum("...ik,ikj->...j", h_inv, self.cubic)
        metric = np.einsum(
            "...ab,bcj,...cd,dak->...jk", h_inv, self.cubic, h_inv, self.cubic
        )
        tilt = np.einsum("ijk,...i->...jk", self.cubic, wg)
        squeeze = h @ self.w_quad @ h
        return (
            y,
            h,
            _constant(self.cubic, x),
            -log_det_grad + np.einsum("...ij,...j->...i", h, wg),
            metric + tilt + squeeze,
            wg,
            _constant(self.w_quad, y),
        )

    def w_value(self, y):
        # normalizer omitted: the triple only promises derivatives, and the
        # quadrature tests use the weight up to a constant factor
        d = np.asarray(y, dtype=float) - self.w_center
        return 0.5 * np.einsum("...i,ij,...j->...", d, self.w_quad, d)

    def v_value(self, x):
        x = np.asarray(x, dtype=float)
        sign, logdet = np.linalg.slogdet(self._hess(x))
        lost = sign <= 0
        if np.any(lost):
            _, at = _first(lost)
            raise ArithmeticError(f"potential Hessian lost positivity{at}")
        return self.w_value(self._grad(x)) - logdet


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
            + x @ self.linear
            + 0.5 * np.einsum("...i,ij,...j->...", x, self.quadratic, x)
            + np.einsum("ijk,...i,...j,...k->...", self.cubic, x, x, x) / 6.0
        )

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.linear
            + np.einsum("ij,...j->...i", self.quadratic, x)
            + 0.5 * np.einsum("ijk,...j,...k->...i", self.cubic, x, x)
        )

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return self.quadratic + np.einsum("ijk,...k->...ij", self.cubic, x)


def _symmetrize3(c):
    return (
        c
        + c.transpose(0, 2, 1)
        + c.transpose(1, 0, 2)
        + c.transpose(1, 2, 0)
        + c.transpose(2, 0, 1)
        + c.transpose(2, 1, 0)
    ) / 6.0


def make_test_function(stream, dim):
    """Random cubic test function with symmetric derivative tensors."""
    quad = stream.standard_normal((dim, dim))
    cubic = _symmetrize3(stream.standard_normal((dim, dim, dim)))
    return CubicTestFunction(
        const=stream.standard_normal(),
        linear=stream.standard_normal(dim),
        quadratic=0.5 * (quad + quad.T),
        cubic=cubic,
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


def synthetic_triple(stream, dim, delta=0.2, hess_floor=0.1):
    """Cubic-perturbed quadratic triple, exactly mass-conserving.

    The cubic tensor is scaled so that D^2 Phi stays above ``hess_floor``
    times the identity on the box |x|_inf <= 1; W is a random convex
    quadratic with eigenvalues in [1/2, 2].
    """
    cubic = _symmetrize3(stream.standard_normal((dim, dim, dim)))
    # sup over the unit box of the Hessian perturbation, in operator norm
    bound = float(np.linalg.norm(np.abs(cubic).sum(axis=2), ord=2))
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
    """Everything the operators read at a point stack, evaluated once.

    The points, the triple's derivatives there (W's at grad Phi), the
    inverse Hessian, and the third derivatives with raised indices.
    """

    x: np.ndarray
    grad: np.ndarray  # Phi_i
    hess: np.ndarray
    inv: np.ndarray
    third: np.ndarray  # Phi_ijk
    up1: np.ndarray  # Phi^i_{jk}
    up2: np.ndarray  # Phi^{ij}_k
    up3: np.ndarray  # Phi^{ijk}
    v_grad: np.ndarray
    v_hess: np.ndarray
    w_grad: np.ndarray  # W_i(grad Phi)
    w_hess: np.ndarray  # W_ij(grad Phi)


def contracted_tensors(t, x):
    """The operators' bundle at the points x, from one ``t.derivatives`` call.

    The Hessian is checked for conditioning before it is inverted.
    """
    x = np.asarray(x, dtype=float)
    grad, h, third, v_grad, v_hess, w_grad, w_hess = t.derivatives(x)
    eig = np.linalg.eigvalsh(h)
    lo, hi = eig[..., 0], eig[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lo > 0, hi / lo, math.inf)
    bad = cond > _MAX_CONDITION
    if np.any(bad):
        idx, at = _first(bad)
        raise ArithmeticError(
            f"potential Hessian too ill-conditioned{at or ' at this point'} "
            f"(condition {cond[idx]:.3e} > {_MAX_CONDITION:.0e})"
        )
    inv = np.linalg.inv(h)
    inv = 0.5 * (inv + np.swapaxes(inv, -2, -1))
    up1 = np.einsum("...il,...ljk->...ijk", inv, third)
    up2 = np.einsum("...il,...jm,...klm->...ijk", inv, inv, third)
    up3 = np.einsum("...il,...jm,...kr,...lmr->...ijk", inv, inv, inv, third)
    return ContractedTensors(
        x=x, grad=grad, hess=h, inv=inv, third=third, up1=up1, up2=up2, up3=up3,
        v_grad=v_grad, v_hess=v_hess, w_grad=w_grad, w_hess=w_hess,
    )


def _quad(v, m, w):
    """v_i m_ij w_j over the points."""
    return np.einsum("...i,...ij,...j->...", v, m, w)


def operator_L(ct, ug, uh):
    """L u = Phi^{ij} u_{ij} - W_j(grad Phi) u_j on the bundle's points.

    The substituted form, which eliminates W through the conservation
    identity, is computed alongside; the two must agree, and a gap beyond
    1e-6 means the triple's V, W, and Phi are mutually inconsistent.
    """
    trace_term = np.einsum("...ij,...ij->...", ct.inv, uh)
    w_drift = np.einsum("...j,...j->...", ct.w_grad, ug)
    v_drift = np.einsum("...imi->...m", ct.up2) + np.einsum("...ij,...j->...i", ct.inv, ct.v_grad)
    w_form = trace_term - w_drift
    v_form = trace_term - np.einsum("...m,...m->...", v_drift, ug)
    gap = np.abs(w_form - v_form)
    scale = 1.0 + np.abs(trace_term) + np.abs(w_drift)
    bad = gap > 1e-6 * scale
    if np.any(bad):
        idx, at = _first(bad)
        raise ArithmeticError(
            f"the two forms of L disagree by {gap[idx]:.3e}{at} "
            f"(scale {scale[idx]:.3e}); the triple violates mass conservation"
        )
    return w_form


def gamma2_expanded(ct, ug, uh):
    """The expanded carre-du-champ iterate on the bundle's points.

    Gamma_2(u) = Phi^{kl}Phi^{ij}u_{ik}u_{jl} - Phi^{ijk}u_{ij}u_k
                 + (Phi^{ik}_l Phi^{jl}_k + Phi^{ik}Phi^{jl}V_{kl}) u_i u_j / 2
                 + (W_{ij} o grad Phi) u_i u_j / 2
    """
    term1 = np.einsum("...ij,...jk,...kl,...li->...", ct.inv, uh, ct.inv, uh)
    term2 = np.einsum("...ijk,...ij,...k->...", ct.up3, uh, ug)
    s2 = np.einsum("...akl,...blk->...ab", ct.up2, ct.up2)
    v_mid = ct.inv @ ct.v_hess @ ct.inv
    quad = 0.5 * (s2 + v_mid + ct.w_hess)
    return term1 - term2 + _quad(ug, quad, ug)


def gamma2_lower_bound(ct, ug):
    """Gradient-only floor Phi^{ik}_l Phi^{jl}_k u_i u_j / 4; nonnegative."""
    s2 = np.einsum("...akl,...blk->...ab", ct.up2, ct.up2)
    return 0.25 * _quad(ug, s2, ug)


def bmatrix_certificate(ct, ug, uh):
    """Tr(B^2) for b_i^j = Phi^{jk}u_{ki} - Phi^{jk}_i u_k / 2, as a square.

    (D^2 Phi) B is the symmetric matrix u_{ij} - Phi^l_{ij} u_l / 2, so a
    congruence by the inverse square root of the Hessian exhibits Tr(B^2)
    as a Frobenius norm.  Always nonnegative; equals the three u-second-
    order terms of the expanded Gamma_2 with the quarter coefficient.  The
    inverse square roots of every point's Hessian come from one stacked
    ``sqrt_factors`` call.
    """
    a = uh - 0.5 * np.einsum("...lij,...l->...ij", ct.up1, ug)
    n = ct.hess.shape[-1]
    _, inv_half = sqrt_factors(ct.hess.reshape(-1, n, n))
    inv_half = inv_half.reshape(ct.hess.shape)
    m = inv_half @ a @ inv_half
    mt = np.swapaxes(m, -2, -1)
    asym = np.max(np.abs(m - mt), axis=(-2, -1))
    bad = asym > 1e-8 * (1.0 + np.max(np.abs(m), axis=(-2, -1)))
    if np.any(bad):
        idx, at = _first(bad)
        raise ArithmeticError(
            f"congruence of the B-matrix lost symmetry by {asym[idx]:.3e}{at}"
        )
    m = 0.5 * (m + mt)
    return np.sum(m * m, axis=(-2, -1))


def ricci_tensor(ct):
    """Ric_il = Phi^k_{ij} Phi^j_{lk} / 4 + V_il / 2
    + Phi_{ji} Phi_{lk} (W_{jk} o grad Phi) / 2."""
    first = 0.25 * np.einsum("...kij,...jlk->...il", ct.up1, ct.up1)
    second = 0.5 * ct.v_hess
    third = 0.5 * ct.hess @ ct.w_hess @ ct.hess
    ric = first + second + third
    return 0.5 * (ric + np.swapaxes(ric, -2, -1))


def bochner_residual(ct, ug, uh):
    """Expanded Gamma_2 minus its geometric decomposition; expected zero.

    The decomposition is |Hess_M u|^2_M + Ric_M(grad_M u, grad_M u) with
    (Hess_M u)_{ij} = u_{ij} - Phi^k_{ij} u_k / 2 and indices raised by
    the Hessian metric.
    """
    a = uh - 0.5 * np.einsum("...kij,...k->...ij", ct.up1, ug)
    hess_term = np.einsum("...ij,...jk,...kl,...li->...", ct.inv, a, ct.inv, a)
    raised = np.einsum("...ij,...j->...i", ct.inv, ug)
    ric_term = _quad(raised, ricci_tensor(ct), raised)
    return gamma2_expanded(ct, ug, uh) - hess_term - ric_term


def triple_consistency_residual(ct):
    """Gradient of the conservation identity: V_j + Phi^i_{ji}
    - Phi_{ij} W_i(grad Phi); the zero vector for exact triples."""
    return (
        ct.v_grad
        + np.einsum("...iji->...j", ct.up1)
        - np.einsum("...ij,...j->...i", ct.hess, ct.w_grad)
    )
