"""Affine-invariant geometry on symmetric positive-definite matrices.

The cone of SPD matrices carries the Riemannian metric whose squared
distance element at A is ``Tr[(A^{-1} dA)^2]``.  This module provides the
induced distance, geodesics, curve lengths, the log-eigenvalue map and its
Lipschitz companions, majorization diagnostics for products, and a Monte
Carlo estimator of the metric slope of a functional.

Everything here is a pure function of validated immutable inputs;
eigendecompositions are computed once per matrix and cached on the
container.
"""

import numpy as np

__all__ = [
    "SpdMatrix",
    "SymMatrix",
    "LogSpectrum",
    "MajorizationReport",
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


def _as_square_array(values, name):
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_symmetry(a, name):
    scale = np.linalg.norm(a)
    defect = np.linalg.norm(a - a.T)
    if defect > _SYM_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"{name} is not symmetric: asymmetry {defect:.3e} exceeds "
            f"{_SYM_RTOL:g} relative to norm {scale:.3e}"
        )
    return 0.5 * (a + a.T)


class SymMatrix:
    """A validated real symmetric matrix (not necessarily definite).

    Parameters
    ----------
    values : array_like, shape (n, n)
        Matrix entries.  Must be symmetric to within 1e-12 relative
        tolerance; the stored copy is exactly symmetrized.
    """

    def __init__(self, values):
        a = _as_square_array(values, "SymMatrix")
        a = _check_symmetry(a, "SymMatrix")
        a.setflags(write=False)
        self.values = a

    @property
    def dim(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


class SpdMatrix:
    """A validated symmetric positive-definite matrix with cached spectrum.

    Eigenvalues are stored in descending order together with the matching
    orthonormal eigenvectors (as columns).  Construction fails if any
    eigenvalue is not strictly positive or if the eigendecomposition does
    not reconstruct the input to 1e-10 relative accuracy.

    Parameters
    ----------
    values : array_like, shape (n, n)
        Symmetric positive-definite entries.
    """

    def __init__(self, values):
        a = _as_square_array(values, "SpdMatrix")
        a = _check_symmetry(a, "SpdMatrix")
        w, v = np.linalg.eigh(a)
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        if w[-1] <= 0.0:
            raise ValueError(
                f"matrix is not positive definite: smallest eigenvalue {w[-1]:.6e}"
            )
        recon = (v * w) @ v.T
        scale = np.linalg.norm(a)
        if np.linalg.norm(recon - a) > _RECON_RTOL * scale:
            raise ValueError("eigendecomposition failed the reconstruction check")
        for arr in (a, w, v):
            arr.setflags(write=False)
        self.values = a
        self.eigenvalues = w
        self.eigenvectors = v

    @property
    def dim(self):
        return self.values.shape[0]

    def apply_scalar(self, f):
        """Apply ``f`` to the spectrum, returning raw entries Σ f(λᵢ) vᵢvᵢᵗ."""
        with np.errstate(invalid="ignore", divide="ignore"):
            fw = np.asarray(f(self.eigenvalues), dtype=float)
        if not np.all(np.isfinite(fw)):
            bad = self.eigenvalues[~np.isfinite(fw)][0]
            raise ValueError(
                f"scalar function is not finite at eigenvalue {bad:.6e}"
            )
        v = self.eigenvectors
        return (v * fw) @ v.T

    def sqrt_factors(self):
        """Return (A^{1/2}, A^{-1/2}) as plain arrays from the cached spectrum."""
        v = self.eigenvectors
        r = np.sqrt(self.eigenvalues)
        return (v * r) @ v.T, (v / r) @ v.T

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


class LogSpectrum:
    """Descending-sorted vector of eigenvalue logarithms."""

    def __init__(self, values):
        a = np.asarray(values, dtype=float).ravel().copy()
        if not np.all(np.isfinite(a)):
            raise ValueError("LogSpectrum contains non-finite entries")
        if np.any(np.diff(a) > 0):
            raise ValueError("LogSpectrum values must be sorted non-increasing")
        a.setflags(write=False)
        self.values = a

    @property
    def dim(self):
        return self.values.size

    def norm(self):
        return float(np.linalg.norm(self.values))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)

    def __repr__(self):
        return f"LogSpectrum({np.array2string(self.values, precision=4)})"


def _coerce_spd(a):
    return a if isinstance(a, SpdMatrix) else SpdMatrix(a)


def _coerce_sym(b):
    return b if isinstance(b, SymMatrix) else SymMatrix(b)


def spd_distance(a, b):
    """Riemannian distance ‖log(A^{-1/2} B A^{-1/2})‖ between SPD matrices.

    The norm is the Hilbert-Schmidt (Frobenius) norm; equivalently the
    root sum of squared logs of the eigenvalues of A^{-1}B.
    """
    a, b = _coerce_spd(a), _coerce_spd(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    _, isa = a.sqrt_factors()
    c = isa @ b.values @ isa
    w = np.linalg.eigvalsh(0.5 * (c + c.T))
    return float(np.linalg.norm(np.log(w)))


def local_norm(a, b):
    """Norm of a tangent vector B at the base point A.

    Evaluates both expressions ‖A^{-1/2} B A^{-1/2}‖ and
    √Tr[(A^{-1}B)²] and checks that they agree to 1e-10 relative
    tolerance before returning the first.
    """
    a, b = _coerce_spd(a), _coerce_sym(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    _, isa = a.sqrt_factors()
    m = isa @ b.values @ isa
    by_congruence = float(np.linalg.norm(m))
    ainv_b = np.linalg.solve(a.values, b.values)
    by_trace = float(np.sqrt(max(np.trace(ainv_b @ ainv_b), 0.0)))
    if abs(by_congruence - by_trace) > 1e-10 * max(1.0, by_congruence):
        raise ArithmeticError(
            f"local norm formulas disagree: {by_congruence!r} vs {by_trace!r}"
        )
    return by_congruence


def geodesic_point(a, b, s):
    """Point γ(s) = A^{1/2} (A^{-1/2} B A^{-1/2})^s A^{1/2} on the geodesic.

    Parameters
    ----------
    a, b : SpdMatrix
        Endpoints, γ(0) = A and γ(1) = B.
    s : float in [0, 1]
    """
    a, b = _coerce_spd(a), _coerce_spd(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {s}")
    sa, isa = a.sqrt_factors()
    c = SpdMatrix(isa @ b.values @ isa)
    mid = c.apply_scalar(lambda w: w**s)
    g = sa @ mid @ sa
    return SpdMatrix(0.5 * (g + g.T))


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
    points : sequence of SpdMatrix, or array of shape (m, n, n)
        At least two samples at uniform parameter spacing.
    """
    if isinstance(points, np.ndarray) and points.ndim == 3:
        stack = points.astype(float)
        stack = 0.5 * (stack + np.transpose(stack, (0, 2, 1)))
        if np.linalg.eigvalsh(stack).min() <= 0.0:
            raise ValueError("curve contains a non-SPD sample")
    else:
        pts = [_coerce_spd(q) for q in points]
        if len(pts) >= 2 and any(q.dim != pts[0].dim for q in pts):
            raise ValueError("curve samples must share one dimension")
        stack = np.stack([q.values for q in pts]) if pts else np.empty((0, 0, 0))
    if stack.shape[0] < 2:
        raise ValueError("need at least two curve samples")
    if np.allclose(stack, stack[0], rtol=0.0, atol=1e-15 * np.linalg.norm(stack[0])):
        return 0.0
    speeds, h = _batched_speeds(stack)
    return float(np.trapezoid(speeds, dx=h))


def log_eigen_map(a):
    """Descending-sorted logs of the eigenvalues of an SPD matrix."""
    a = _coerce_spd(a)
    return LogSpectrum(np.log(a.eigenvalues))


def log_quadratic_form(a, v):
    """log(Av·v), a 1-Lipschitz functional of A for each fixed v ≠ 0."""
    a = _coerce_spd(a)
    v = np.asarray(v, dtype=float).ravel()
    if v.size != a.dim:
        raise ValueError(f"direction has size {v.size}, expected {a.dim}")
    if not np.any(v != 0.0):
        raise ValueError("direction vector must be nonzero")
    return float(np.log(v @ a.values @ v))


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
    a, b = _coerce_spd(a), _coerce_spd(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sa, _ = a.sqrt_factors()
    prod = sa @ b.values @ sa
    gamma = log_eigen_map(SpdMatrix(0.5 * (prod + prod.T))).values
    alpha = np.log(a.eigenvalues)
    beta = np.log(b.eigenvalues)
    return MajorizationReport(alpha, beta, gamma)


def numeric_upper_gradient(f, a, eps, probes, rng):
    """Monte Carlo lower estimate of the metric slope of F at A.

    Draws antipodal pairs Y = A^{1/2} e^{S} A^{1/2}, Z = A^{1/2} e^{-S} A^{1/2}
    for random symmetric S with ‖S‖ ≤ eps (so dist(Y, Z) = 2‖S‖ exactly)
    and returns the largest difference quotient |F(Y) − F(Z)| / dist(Y, Z).
    For smooth F this converges to |∇F|(A) from below as probes grow.

    Parameters
    ----------
    f : callable
        Real functional accepting an SpdMatrix.
    a : SpdMatrix
    eps : float
        Radius of the geodesic ball being probed.
    probes : int
    rng : numpy.random.Generator
    """
    a = _coerce_spd(a)
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("probe radius must be positive")
    probes = int(probes)
    if probes < 1:
        raise ValueError("need at least one probe")
    n = a.dim
    sa, _ = a.sqrt_factors()
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
        y = SpdMatrix(sa @ step @ sa)
        z = SpdMatrix(sa @ back @ sa)
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
    the cached descending eigenvalues.
    """
    a, b = _coerce_spd(a), _coerce_sym(direction)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    w = a.eigenvalues
    if a.dim > 1:
        gap = np.min(np.abs(np.diff(w)))
        if gap <= 1e-6 * w[0]:
            raise ValueError(
                f"spectral gap {gap:.3e} too small for eigenvalue derivatives"
            )
    v = a.eigenvectors
    return np.einsum("ij,jk,ki->i", v.T, b.values, v)


def random_spd(rng, dim, log_spread=3.0):
    """Random SPD matrix QᵗDQ with controlled spectrum.

    Q comes from the QR factorization of a standard Gaussian matrix and D
    is diagonal with entries log-uniform on [e^{-log_spread}, e^{log_spread}],
    so condition numbers up to e^{2 log_spread} stress the tolerances.
    """
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    d = np.exp(rng.uniform(-log_spread, log_spread, size=dim))
    return SpdMatrix((q.T * d) @ q)
