"""Affine-invariant geometry on symmetric positive-definite matrices.

The cone of SPD matrices carries the Riemannian metric whose squared
distance element at A is ``Tr[(A^{-1} dA)^2]``.  This module provides the
induced distance, geodesics, curve lengths, the log-eigenvalue map and its
Lipschitz companions, majorization diagnostics for products, and a Monte
Carlo estimator of the metric slope of a functional.

SPD values are plain float arrays of shape (n, n), or (m, n, n) for a
stack, and this is the only module that validates one.  Every public
function validates its matrix inputs once, on entry, and works from the
eigendecomposition that validation computes.  Geodesics are batched: one
call returns every requested point of the curve.
"""

import numpy as np

__all__ = [
    "MajorizationReport",
    "sqrt_factors",
    "spd_distance",
    "local_norm",
    "geodesic_point",
    "curve_length",
    "log_eigen_map",
    "log_quadratic_form",
    "majorization_check",
    "numeric_upper_gradient",
    "spectrum_derivative",
    "random_spd",
]

_SYM_RTOL = 1e-12
_RECON_RTOL = 1e-10


def _validated(a, name, stack=False, definite=True):
    """Check an SPD matrix, or a stack of them, and return its factors.

    This is the package's one SPD boundary.  Each matrix must be square,
    finite and symmetric to 1e-12 relative; with ``definite`` it must also
    be positive definite, with an eigendecomposition that reconstructs it
    to 1e-10 relative.  All checks run in one vectorized pass over the
    stack and name the first matrix that fails.

    Returns ``(a, w, v)``: the exactly symmetrized array of shape (n, n),
    or (m, n, n) with ``stack``, and its eigenvalues in descending order
    with the matching eigenvectors as columns (both None unless
    ``definite``).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stack or a.shape[-1] != a.shape[-2]:
        what = "a stack of square matrices" if stack else "a square 2d array"
        raise ValueError(f"{name} must be {what}, got shape {a.shape}")

    def check(ok, message):
        if not ok.all():
            k = int(np.flatnonzero(~ok)[0])
            raise ValueError((f"{name}[{k}]" if stack else name) + message(k))

    check(np.isfinite(a).all(axis=(-2, -1)), lambda k: " contains non-finite entries")
    at = np.swapaxes(a, -2, -1)
    scale, defect = _frobenius(a), _frobenius(a - at)
    check(
        defect <= _SYM_RTOL * np.maximum(scale, 1e-300),
        lambda k: f" is not symmetric: asymmetry {defect.flat[k]:.3e} exceeds "
        f"{_SYM_RTOL:g} relative to norm {scale.flat[k]:.3e}",
    )
    a = 0.5 * (a + at)
    if not definite:
        return a, None, None
    w, v = np.linalg.eigh(a)
    w, v = w[..., ::-1], v[..., ::-1]
    low = w[..., -1]
    check(
        low > 0.0,
        lambda k: f" is not positive definite: smallest eigenvalue {low.flat[k]:.6e}",
    )
    recon = (v * w[..., None, :]) @ np.swapaxes(v, -2, -1)
    check(
        _frobenius(recon - a) <= _RECON_RTOL * scale,
        lambda k: ": eigendecomposition failed the reconstruction check",
    )
    return a, w, v


def _frobenius(a):
    return np.sqrt((a * a).sum(axis=(-2, -1)))


def _sqrt_factors(w, v):
    r = np.sqrt(w)
    return (v * r) @ v.T, (v / r) @ v.T


def sqrt_factors(a):
    """(A^{1/2}, A^{-1/2}) of an SPD matrix, from one eigendecomposition."""
    _, w, v = _validated(a, "a")
    return _sqrt_factors(w, v)


def spd_distance(a, b):
    """Riemannian distance ‖log(A^{-1/2} B A^{-1/2})‖ between SPD matrices.

    The norm is the Hilbert-Schmidt (Frobenius) norm; equivalently the
    root sum of squared logs of the eigenvalues of A^{-1}B.
    """
    _, wa, va = _validated(a, "a")
    b, _, _ = _validated(b, "b")
    if wa.size != b.shape[0]:
        raise ValueError(f"dimension mismatch: {wa.size} vs {b.shape[0]}")
    _, isa = _sqrt_factors(wa, va)
    c = isa @ b @ isa
    w = np.linalg.eigvalsh(0.5 * (c + c.T))
    return float(np.linalg.norm(np.log(w)))


def local_norm(a, b):
    """Norm of a symmetric tangent vector B at the base point A.

    Evaluates both expressions ‖A^{-1/2} B A^{-1/2}‖ and
    √Tr[(A^{-1}B)²] and checks that they agree to 1e-10 relative
    tolerance before returning the first.
    """
    a, wa, va = _validated(a, "a")
    b, _, _ = _validated(b, "b", definite=False)
    if wa.size != b.shape[0]:
        raise ValueError(f"dimension mismatch: {wa.size} vs {b.shape[0]}")
    _, isa = _sqrt_factors(wa, va)
    m = isa @ b @ isa
    by_congruence = float(np.linalg.norm(m))
    ainv_b = np.linalg.solve(a, b)
    by_trace = float(np.sqrt(max(np.trace(ainv_b @ ainv_b), 0.0)))
    if abs(by_congruence - by_trace) > 1e-10 * max(1.0, by_congruence):
        raise ArithmeticError(
            f"local norm formulas disagree: {by_congruence!r} vs {by_trace!r}"
        )
    return by_congruence


def geodesic_point(a, b, s):
    """Points γ(s) = A^{1/2} (A^{-1/2} B A^{-1/2})^s A^{1/2} on the geodesic.

    Every point comes from one eigendecomposition C = V diag(w) Vᵗ of
    C = A^{-1/2} B A^{-1/2}, as γ(s) = A^{1/2} V diag(wˢ) Vᵗ A^{1/2}; C and
    the returned points are validated as one stack each.

    Parameters
    ----------
    a, b : array_like, shape (n, n)
        SPD endpoints, γ(0) = A and γ(1) = B.
    s : float or 1d array_like of floats in [0, 1]

    Returns
    -------
    ndarray of shape ``np.shape(s) + (n, n)``
    """
    _, wa, va = _validated(a, "a")
    b, _, _ = _validated(b, "b")
    if wa.size != b.shape[0]:
        raise ValueError(f"dimension mismatch: {wa.size} vs {b.shape[0]}")
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError(f"geodesic parameter must be a scalar or 1d, got shape {s.shape}")
    outside = ~((s >= 0.0) & (s <= 1.0))
    if np.any(outside):
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {s[outside].flat[0]}")
    sa, isa = _sqrt_factors(wa, va)
    _, wc, vc = _validated(isa @ b @ isa, "A^{-1/2} B A^{-1/2}")
    mid = (vc * wc ** s[..., None, None]) @ vc.T
    g = sa @ mid @ sa
    g = 0.5 * (g + np.swapaxes(g, -2, -1))
    return _validated(g, "geodesic point", stack=s.ndim == 1)[0]


def _batched_speeds(points):
    """Metric speeds ‖γ̇(s_k)‖_{γ(s_k)} from uniformly spaced curve samples.

    Tangents are finite differences: fourth-order central stencils in the
    interior, falling back to second-order central and then one-sided
    second-order at the ends.  The even-order interior stencil keeps the
    bias negligible even for well-separated endpoints.
    """
    p = np.asarray(points, dtype=float)
    m = p.shape[0]
    h = 1.0 / (m - 1)
    tangents = np.empty_like(p)
    if m >= 5:
        tangents[2:-2] = (
            -p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]
        ) / (12.0 * h)
        tangents[1] = (p[2] - p[0]) / (2.0 * h)
        tangents[-2] = (p[-1] - p[-3]) / (2.0 * h)
    else:
        tangents[1:-1] = (p[2:] - p[:-2]) / (2.0 * h)
    tangents[0] = (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * h)
    tangents[-1] = (3.0 * p[-1] - 4.0 * p[-2] + p[-3]) / (2.0 * h)
    inv_t = np.linalg.solve(p, tangents)
    speeds = np.sqrt(np.maximum(np.einsum("kij,kji->k", inv_t, inv_t), 0.0))
    return speeds, h


def curve_length(points):
    """Length of a curve given by uniformly spaced SPD samples.

    Trapezoidal rule applied to the finite-difference metric speeds; for
    samples of a geodesic this converges to the endpoint distance as the
    grid refines.

    Parameters
    ----------
    points : array_like, shape (m, n, n)
        At least two SPD samples at uniform parameter spacing.
    """
    stack, _, _ = _validated(points, "curve sample", stack=True)
    if stack.shape[0] < 2:
        raise ValueError("need at least two curve samples")
    if np.allclose(stack, stack[0], rtol=0.0, atol=1e-15 * np.linalg.norm(stack[0])):
        return 0.0
    speeds, h = _batched_speeds(stack)
    return float(np.trapezoid(speeds, dx=h))


def log_eigen_map(a):
    """Descending-sorted logs of the eigenvalues of an SPD matrix."""
    _, w, _ = _validated(a, "a")
    return np.log(w)


def log_quadratic_form(a, v):
    """log(Av·v), a 1-Lipschitz functional of A for each fixed v ≠ 0."""
    a, _, _ = _validated(a, "a")
    v = np.asarray(v, dtype=float).ravel()
    if v.size != a.shape[0]:
        raise ValueError(f"direction has size {v.size}, expected {a.shape[0]}")
    if not np.any(v != 0.0):
        raise ValueError("direction vector must be nonzero")
    return float(np.log(v @ a @ v))


class MajorizationReport:
    """Margins for the log-spectrum majorization of an SPD product.

    With α = Λ(A), β = Λ(B), γ = Λ(A^{1/2} B A^{1/2}) all descending,
    the recorded margins are minima of "bound minus value", so every
    field is nonnegative up to roundoff when the inequalities hold:

    - ``partial_sum``: min over k of Σ_{i≤k}(αᵢ+βᵢ) − Σ_{i≤k}γᵢ
    - ``total_sum_gap``: |Σγ − Σ(α+β)| (equality of determinants)
    - ``plus_square``: Σ((αᵢ+βᵢ)₊)² − Σ((γᵢ)₊)²
    - ``minus_square``: Σ((−αᵢ−βᵢ)₊)² − Σ((−γᵢ)₊)²
    - ``triangle``: ‖α‖₂ + ‖β‖₂ − ‖γ‖₂
    """

    def __init__(self, alpha, beta, gamma):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        combined = alpha + beta
        self.partial_sum = float(
            np.min(np.cumsum(combined) - np.cumsum(gamma))
        )
        self.total_sum_gap = float(abs(np.sum(gamma) - np.sum(combined)))
        plus = lambda t: np.square(np.maximum(t, 0.0)).sum()
        self.plus_square = float(plus(combined) - plus(gamma))
        self.minus_square = float(plus(-combined) - plus(-gamma))
        self.triangle = float(
            np.linalg.norm(alpha) + np.linalg.norm(beta) - np.linalg.norm(gamma)
        )

    def margins(self):
        return {
            "partial_sum": self.partial_sum,
            "total_sum_gap": self.total_sum_gap,
            "plus_square": self.plus_square,
            "minus_square": self.minus_square,
            "triangle": self.triangle,
        }

    def ok(self, tol=1e-9):
        m = self.margins()
        gap = m.pop("total_sum_gap")
        return gap <= tol and all(v >= -tol for v in m.values())

    def __repr__(self):
        inner = ", ".join(f"{k}={v:.3e}" for k, v in self.margins().items())
        return f"MajorizationReport({inner})"


def majorization_check(a, b):
    """Check the product-spectrum majorization inequalities for A, B SPD.

    Returns a :class:`MajorizationReport` whose margins certify the
    partial-sum dominance of Λ(A^{1/2}BA^{1/2}) by Λ(A)+Λ(B), the
    squared-positive-part and squared-negative-part comparisons, and the
    resulting two-norm triangle inequality.
    """
    _, wa, va = _validated(a, "a")
    b, wb, _ = _validated(b, "b")
    if wa.size != wb.size:
        raise ValueError(f"dimension mismatch: {wa.size} vs {wb.size}")
    sa, _ = _sqrt_factors(wa, va)
    prod = sa @ b @ sa
    gamma = log_eigen_map(0.5 * (prod + prod.T))
    return MajorizationReport(np.log(wa), np.log(wb), gamma)


def numeric_upper_gradient(f, a, eps, probes, rng):
    """Monte Carlo lower estimate of the metric slope of F at A.

    Draws antipodal pairs Y = A^{1/2} e^{S} A^{1/2}, Z = A^{1/2} e^{-S} A^{1/2}
    for random symmetric S with ‖S‖ ≤ eps (so dist(Y, Z) = 2‖S‖ exactly)
    and returns the largest difference quotient |F(Y) − F(Z)| / dist(Y, Z).
    For smooth F this converges to |∇F|(A) from below as probes grow.

    Parameters
    ----------
    f : callable
        Real functional of an SPD matrix, given as an (n, n) array.
    a : array_like, shape (n, n)
    eps : float
        Radius of the geodesic ball being probed.
    probes : int
    rng : numpy.random.Generator
    """
    _, wa, va = _validated(a, "a")
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("probe radius must be positive")
    probes = int(probes)
    if probes < 1:
        raise ValueError("need at least one probe")
    n = wa.size
    sa, _ = _sqrt_factors(wa, va)
    best = 0.0
    for i in range(probes):
        g = rng.standard_normal((n, n))
        s = 0.5 * (g + g.T)
        norm = np.linalg.norm(s)
        if norm == 0.0:
            continue
        s *= eps * rng.uniform(0.25, 1.0) / norm
        w, v = np.linalg.eigh(s)
        step = (v * np.exp(w)) @ v.T
        back = (v * np.exp(-w)) @ v.T
        pair = np.stack([sa @ step @ sa, sa @ back @ sa])
        (y, z), _, _ = _validated(pair, "probe", stack=True)
        fy, fz = float(f(y)), float(f(z))
        if not (np.isfinite(fy) and np.isfinite(fz)):
            raise ArithmeticError(
                f"functional returned a non-finite value at probe {i}"
            )
        quotient = abs(fy - fz) / (2.0 * np.linalg.norm(s))
        best = max(best, quotient)
    return best


def spectrum_derivative(a, direction):
    """Derivatives of the eigenvalues of A + tB at t = 0.

    Requires A to have simple spectrum (all gaps above 1e-6 relative to
    the largest eigenvalue); returns the vector (B vᵢ · vᵢ) ordered like
    the descending eigenvalues of A.
    """
    _, w, v = _validated(a, "a")
    b, _, _ = _validated(direction, "direction", definite=False)
    if w.size != b.shape[0]:
        raise ValueError(f"dimension mismatch: {w.size} vs {b.shape[0]}")
    if w.size > 1:
        gap = np.min(np.abs(np.diff(w)))
        if gap <= 1e-6 * w[0]:
            raise ValueError(
                f"spectral gap {gap:.3e} too small for eigenvalue derivatives"
            )
    return np.einsum("ij,jk,ki->i", v.T, b, v)


def random_spd(rng, dim, log_spread=3.0):
    """Random SPD matrix QᵗDQ with controlled spectrum.

    Q comes from the QR factorization of a standard Gaussian matrix and D
    is diagonal with entries log-uniform on [e^{-log_spread}, e^{log_spread}],
    so condition numbers up to e^{2 log_spread} stress the tolerances.
    """
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    d = np.exp(rng.uniform(-log_spread, log_spread, size=dim))
    return _validated((q.T * d) @ q, "random_spd")[0]
