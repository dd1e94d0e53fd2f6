"""Affine-invariant geometry on symmetric positive-definite matrices.

The cone of SPD matrices carries the Riemannian metric whose squared
distance element at A is ``Tr[(A^{-1} dA)^2]``.  This module provides the
induced distance, geodesics, curve lengths, and the log-eigenvalue map and
log quadratic forms whose 1-Lipschitz bounds the geometry self-test checks.

SPD values are plain float arrays of shape (n, n), or (m, n, n) for a
stack, and this is the only module that validates one.  The distance, the
log-eigenvalue map, the log quadratic form and the square-root factors take
either shape and return results with the matching leading shape.  Every
public function validates each SPD argument once, on entry, as one stack,
and works from the factor that validation computes: the eigendecomposition
where the answer is a spectrum or a matrix function (``log_eigen_map``,
``sqrt_factors``, the whitened matrix of a geodesic's frame), and the
several times cheaper Cholesky factor A = L Lᵀ where A only whitens or is
only checked (``spd_distance``, the endpoints of a geodesic,
``curve_length``, ``log_quadratic_form``).  Whitening by L⁻¹ · L⁻ᵀ in place
of A^{-1/2} · A^{-1/2} conjugates by an orthogonal matrix, which changes no
spectrum and no Frobenius norm.  The functions that build SPD values
(``geodesic_point``, ``random_spd``) return them exactly symmetrized but
unvalidated, so each value is checked once, by its consumer.

Geodesics are batched: one call returns every requested point of the
curve, from the geodesic's frame γ(s) = G diag(wˢ) Gᵀ, validated once: A
and B by Cholesky and L⁻¹ B L⁻ᵀ by the eigen check.  ``curve_length`` is
the generic length of any sampled curve: it validates the sample stack and
takes the metric speeds from the Cholesky factors that validation
computes.  The geometry self-test measures each geodesic's length in its
own frame instead (``_geodesic_lengths``): the endpoints of a stack of
geodesics are validated once, as stacks; each geodesic's samples are
``geodesic_point``'s, each held to its factor G diag(w^{s/2}) at the
validator's tolerances; and every speed comes from the tangents whitened by
the one matrix G⁻¹, with no factorization per sample.
"""

import numpy as np

__all__ = [
    "sqrt_factors",
    "spd_distance",
    "geodesic_point",
    "curve_length",
    "log_eigen_map",
    "log_quadratic_form",
    "random_spd",
]

_SYM_RTOL = 1e-12
_RECON_RTOL = 1e-10
# entries per chunk of a stacked reconstruction check: 1 MB of floats
_CHUNK = 1 << 17
# e^x is a finite normal float for |x| up to this bound
_MAX_LOG_SPREAD = -float(np.log(np.finfo(float).tiny))
# random_spd's default log-spread, which geometry-selftest's draws share
_LOG_SPREAD = 3.0


def _validated(a, name, stack=False, cholesky=False):
    """Check an SPD matrix, or a stack of them, and return its factors.

    This is the package's one SPD boundary.  Each matrix must be square,
    finite, symmetric to 1e-12 relative, and positive definite, with a
    factorization that reconstructs it to 1e-10 relative.  All checks run
    in one vectorized pass over the stack and name the first matrix that
    fails.

    The caller asks for the factor its answer needs.  By default it is the
    eigendecomposition, and the return is ``(a, w, v)``: the exactly
    symmetrized array of shape (n, n), or (m, n, n) with ``stack``, and its
    eigenvalues in descending order with the matching eigenvectors as
    columns.  With ``cholesky`` it is the lower-triangular factor of
    A = L Lᵀ, and the return is ``(a, l)``.  A stack that Cholesky refuses
    is given the eigen check, which names the first matrix that is not
    positive definite and its smallest eigenvalue.  The norm, the symmetry
    defect and the symmetrization are computed in the buffer that is
    returned, and the reconstruction check rebuilds the stack a chunk at a
    time, so beyond the input and the returned arrays the checks hold two
    chunks of at most 1 MB.
    """
    a, scale, check = _symmetrized(a, name, stack)
    if not cholesky:
        return (a, *_eigen_factors(a, scale, check))
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _eigen_factors(a, scale, check)
        # every eigenvalue positive, yet a pivot was not: numerically singular
        raise ValueError(
            f"{name} is not positive definite: Cholesky factorization failed "
            "although every computed eigenvalue is positive"
        ) from None
    check(
        _residual(a, lambda l: l @ np.swapaxes(l, -2, -1), l) <= _RECON_RTOL * scale,
        lambda k: ": Cholesky factor failed the reconstruction check",
    )
    return a, l


def _symmetrized(a, name, stack):
    """``_validated``'s checks of shape, finite entries and symmetry.

    Returns the exactly symmetrized array, its Frobenius norms, and the
    ``check(ok, message)`` that raises for the first matrix not ``ok``,
    naming it.
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
    # the norm, the symmetry defect and the symmetrization share one buffer,
    # which becomes the returned array
    at = np.swapaxes(a, -2, -1)
    sym = np.multiply(a, a)
    scale = np.sqrt(sym.sum(axis=(-2, -1)))
    np.subtract(a, at, out=sym)
    defect = np.sqrt(np.square(sym, out=sym).sum(axis=(-2, -1)))
    check(
        defect <= _SYM_RTOL * np.maximum(scale, 1e-300),
        lambda k: f" is not symmetric: asymmetry {defect.flat[k]:.3e} exceeds "
        f"{_SYM_RTOL:g} relative to norm {scale.flat[k]:.3e}",
    )
    return np.multiply(np.add(a, at, out=sym), 0.5, out=sym), scale, check


def _eigen_factors(a, scale, check):
    """Descending eigenvalues and eigenvectors of a symmetrized stack, with
    the positivity and reconstruction checks of ``_validated``."""
    w, v = np.linalg.eigh(a)
    w, v = w[..., ::-1], v[..., ::-1]
    low = w[..., -1]
    check(
        low > 0.0,
        lambda k: f" is not positive definite: smallest eigenvalue {low.flat[k]:.6e}",
    )
    check(
        _residual(a, lambda w, v: (v * w[..., None, :]) @ np.swapaxes(v, -2, -1), w, v)
        <= _RECON_RTOL * scale,
        lambda k: ": eigendecomposition failed the reconstruction check",
    )
    return w, v


def _residual(a, rebuild, *factors):
    """‖rebuild(*factors) − A‖_F for each matrix of A, an (n, n) array or a
    stack, from its factors (stacked like A, without its last two axes
    where a factor is a vector).  The stack is rebuilt one chunk of at most
    ``_CHUNK`` entries at a time, so the check's temporaries stay near 1 MB
    however long the stack."""
    n = a.shape[-1]
    a3, *f3 = (x.reshape(-1, *x.shape[a.ndim - 2 :]) for x in (a, *factors))
    out = np.empty(a3.shape[0])
    step = max(1, _CHUNK // (n * n))
    for i in range(0, out.size, step):
        r = rebuild(*(f[i : i + step] for f in f3))
        r -= a3[i : i + step]
        out[i : i + step] = np.sqrt(np.square(r, out=r).sum(axis=(-2, -1)))
    return out.reshape(a.shape[:-2])


def _frobenius(a):
    return np.sqrt((a * a).sum(axis=(-2, -1)))


def _same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: a has shape {a.shape}, b has shape {b.shape}")


def _whiten(l, x):
    """L⁻¹ X L⁻ᵀ for symmetric X and lower-triangular L, one per matrix of
    X's stack: L Y = X and then L Z = Yᵀ, two forward substitutions."""
    return _forward(l, np.swapaxes(_forward(l, x), -2, -1))


def _forward(l, x):
    """L⁻¹ X by forward substitution, one row sweep over the whole stack."""
    y = np.empty_like(x)
    for i in range(l.shape[-1]):
        r = x[..., i, :] - np.einsum("...k,...kj->...j", l[..., i, :i], y[..., :i, :])
        y[..., i, :] = r / l[..., i, i, None]
    return y


def sqrt_factors(a):
    """(A^{1/2}, A^{-1/2}) of an SPD matrix or stack, from one eigendecomposition."""
    _, w, v = _validated(a, "a", stack=np.ndim(a) == 3)
    r = np.sqrt(w)[..., None, :]
    vt = np.swapaxes(v, -2, -1)
    return (v * r) @ vt, (v / r) @ vt


def spd_distance(a, b):
    """Riemannian distance ‖log(A^{-1/2} B A^{-1/2})‖ between SPD matrices.

    The norm is the Hilbert-Schmidt (Frobenius) norm; equivalently the
    root sum of squared logs of the eigenvalues of A^{-1}B, which are those
    of L⁻¹ B L⁻ᵀ for the Cholesky factor A = L Lᵀ.  ``a`` and ``b`` are two
    matrices of shape (n, n), giving a float, or two stacks of shape
    (m, n, n), giving the m pairwise distances.
    """
    a, la = _validated(a, "a", stack=np.ndim(a) == 3, cholesky=True)
    b, _ = _validated(b, "b", stack=np.ndim(b) == 3, cholesky=True)
    _same_shape(a, b)
    c = _whiten(la, b)
    w = np.linalg.eigvalsh(0.5 * (c + np.swapaxes(c, -2, -1)))
    return np.linalg.norm(np.log(w), axis=-1)


def _geodesic_frame(a, b, stack=False):
    """The eigenframe (G, w) of the geodesic from A to B, validated once.

    With A = L Lᵀ by Cholesky and L⁻¹ B L⁻ᵀ = V diag(w) Vᵀ by the eigen
    check, G = L V and γ(s) = G diag(wˢ) Gᵀ, so G diag(w^{s/2}) factors
    every point of the curve.  With ``stack``, A and B are stacks of
    endpoints, validated as stacks, and G and w the stacks of their frames.
    """
    a, la = _validated(a, "a", stack=stack, cholesky=True)
    b, _ = _validated(b, "b", stack=stack, cholesky=True)
    _same_shape(a, b)
    _, w, v = _validated(_whiten(la, b), "L^{-1} B L^{-T}", stack=stack)
    return la @ v, w


def _frame_product(g, w, s):
    """G diag(wˢ) Gᵀ for each parameter of s, as computed: not symmetrized."""
    # a contiguous transpose: matmul over a stack runs up to twice as long
    # on a transposed view
    return (g * w ** s[..., None, None]) @ g.T.copy()


def _geodesic_points(products):
    """Geodesic points from their frame products, exactly symmetrized."""
    p = products + np.swapaxes(products, -2, -1)
    return np.multiply(p, 0.5, out=p)


def geodesic_point(a, b, s):
    """Points γ(s) = A^{1/2} (A^{-1/2} B A^{-1/2})^s A^{1/2} on the geodesic.

    With the Cholesky factor A = L Lᵀ the same curve is γ(s) = L Cˢ Lᵀ,
    C = L⁻¹ B L⁻ᵀ, and every point comes from one eigendecomposition
    C = V diag(w) Vᵗ, as γ(s) = G diag(wˢ) Gᵀ with G = L V.  A, B and C are
    validated; the points are returned exactly symmetrized but not
    validated, since their consumer (``curve_length``, say) checks the
    stack at its own boundary.

    Parameters
    ----------
    a, b : array_like, shape (n, n)
        SPD endpoints, γ(0) = A and γ(1) = B.
    s : float or 1d array_like of floats in [0, 1]

    Returns
    -------
    ndarray of shape ``np.shape(s) + (n, n)``
    """
    g, w = _geodesic_frame(a, b)
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError(f"geodesic parameter must be a scalar or 1d, got shape {s.shape}")
    outside = ~((s >= 0.0) & (s <= 1.0))
    if np.any(outside):
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {s[outside].flat[0]}")
    return _geodesic_points(_frame_product(g, w, s))


def _stencil_tangents(p):
    """Finite-difference tangents of uniformly spaced curve samples, and
    their spacing h.

    Fourth-order central stencils in the interior, falling back to
    second-order central and then one-sided second-order at the ends.  The
    even-order interior stencil keeps the bias negligible even for
    well-separated endpoints.
    """
    m = p.shape[0]
    h = 1.0 / (m - 1)
    tangents = np.empty_like(p)
    if m >= 5:
        # (8 (p₊₁ − p₋₁) + p₋₂ − p₊₂) / 12h in place, with no temporaries
        inner = np.subtract(p[3:-1], p[1:-3], out=tangents[2:-2])
        inner *= 8.0
        inner += p[:-4]
        inner -= p[4:]
        inner /= 12.0 * h
        tangents[1] = (p[2] - p[0]) / (2.0 * h)
        tangents[-2] = (p[-1] - p[-3]) / (2.0 * h)
    else:
        tangents[1:-1] = (p[2:] - p[:-2]) / (2.0 * h)
    tangents[0] = (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * h)
    tangents[-1] = (3.0 * p[-1] - 4.0 * p[-2] + p[-3]) / (2.0 * h)
    return tangents, h


def curve_length(points):
    """Length of a curve given by uniformly spaced SPD samples.

    Trapezoidal rule applied to the finite-difference metric speeds; for
    samples of a geodesic this converges to the endpoint distance as the
    grid refines.  The samples are validated once, as one stack.  With
    each sample factored as L Lᵀ by that validation, the squared speed
    Tr[(γ⁻¹γ̇)²] is ‖L⁻¹γ̇L⁻ᵀ‖²_F, a sum of squares.

    Parameters
    ----------
    points : array_like, shape (m, n, n)
        At least three SPD samples at uniform parameter spacing: the end
        tangents are second-order one-sided stencils over three samples.
    """
    stack, l = _validated(points, "curve sample", stack=True, cholesky=True)
    if stack.shape[0] < 3:
        raise ValueError(f"need at least three curve samples, got {stack.shape[0]}")
    if np.allclose(stack, stack[0], rtol=0.0, atol=1e-15 * np.linalg.norm(stack[0])):
        return 0.0
    tangents, h = _stencil_tangents(stack)
    return float(np.trapezoid(_frobenius(_whiten(l, tangents)), dx=h))


def _check_samples(points, products, name):
    """Hold each geodesic sample to its factor G diag(w^{s/2}).

    ``_validated``'s checks at its tolerances, with the frame's factor in
    place of one computed per sample: each sample must be finite,
    symmetric, and reconstructed by the factor's product G diag(wˢ) Gᵀ to
    1e-10 relative.  The first sample that fails is named by its index.
    """
    sym, scale, check = _symmetrized(points, name, stack=True)
    check(
        _frobenius(products - sym) <= _RECON_RTOL * scale,
        lambda k: ": geodesic factor failed the reconstruction check",
    )


def _geodesic_lengths(a, b, m):
    """``curve_length`` of each geodesic from ``a[k]`` to ``b[k]``, sampled
    at m uniformly spaced parameters and measured in its own frame.

    The endpoint stacks are validated once, as stacks, and each geodesic's
    samples are ``geodesic_point``'s, held to their factors G diag(w^{s/2})
    by ``_check_samples`` in place of a factorization each.  Whitening by
    those factors, the squared metric speed at γ(s) is
    ‖diag(w^{-s/2}) G⁻¹ γ̇ G⁻ᵀ diag(w^{-s/2})‖²_F: the tangents of the
    whole curve are whitened by the one matrix G⁻¹.
    """
    s = np.linspace(0.0, 1.0, m)
    frames = zip(*_geodesic_frame(a, b, stack=True))
    return np.array(
        [_frame_length(g, w, s, f"geodesic {k}: curve sample") for k, (g, w) in enumerate(frames)]
    )


def _frame_length(g, w, s, name):
    """One geodesic's length for ``_geodesic_lengths``, whose samples are
    freed on return: one curve's samples are held at a time."""
    products = _frame_product(g, w, s)
    points = _geodesic_points(products)
    _check_samples(points, products, name)
    # freed before the tangents and their whitened stack are made
    del products
    tangents, h = _stencil_tangents(points)
    gi = np.linalg.inv(g)
    x = gi @ tangents @ gi.T.copy()
    r = w ** (-0.5 * s[:, None])
    x *= r[:, :, None]
    x *= r[:, None, :]
    return np.trapezoid(_frobenius(x), dx=h)


def log_eigen_map(a):
    """Descending-sorted logs of the eigenvalues of an SPD matrix or stack."""
    _, w, _ = _validated(a, "a", stack=np.ndim(a) == 3)
    return np.log(w)


def log_quadratic_form(a, v):
    """log(Av·v), a 1-Lipschitz functional of A for each fixed v ≠ 0.

    ``a`` of shape (n, n) takes ``v`` of shape (n,); a stack of shape
    (m, n, n) takes one direction per matrix, ``v`` of shape (m, n).
    """
    stack = np.ndim(a) == 3
    a, _ = _validated(a, "a", stack=stack, cholesky=True)
    v = np.asarray(v, dtype=float)
    if v.shape != a.shape[:-1]:
        raise ValueError(f"direction has shape {v.shape}, expected {a.shape[:-1]}")
    zero = ~np.any(v != 0.0, axis=-1)
    if np.any(zero):
        where = f" (v[{int(np.flatnonzero(zero)[0])}])" if stack else ""
        raise ValueError("direction vector must be nonzero" + where)
    return _log_quadform(a, v)


def _log_quadform(a, v):
    """``log_quadratic_form`` on a validated ``a`` and checked ``v``."""
    return np.log((v[..., None, :] @ a @ v[..., :, None])[..., 0, 0])


def random_spd(rng, dim, log_spread=_LOG_SPREAD):
    """Random SPD matrix QᵗDQ with controlled spectrum.

    Q comes from the QR factorization of a standard Gaussian matrix and D
    is diagonal with entries log-uniform on [e^{-log_spread}, e^{log_spread}],
    so condition numbers up to e^{2 log_spread} stress the tolerances.  The
    Gaussian matrix is drawn first, then the log-eigenvalues.  The draw is
    returned exactly symmetrized but not validated: every consumer
    validates its stack at its own boundary.
    """
    log_spread = float(log_spread)
    if not 0.0 <= log_spread <= _MAX_LOG_SPREAD:
        raise ValueError(
            f"log_spread must lie in [0, {_MAX_LOG_SPREAD:.2f}] so that its "
            f"exponentials stay normal floats, got {log_spread}"
        )
    normals = rng.standard_normal((dim, dim))
    return _spd_from_draws(normals, rng.uniform(-log_spread, log_spread, size=dim))


def _spd_from_draws(normals, log_eigs):
    """QᵗDQ from a Gaussian matrix and log-eigenvalues, for one matrix or
    a stack.

    ``normals`` has shape (..., n, n) and ``log_eigs`` shape (..., n).  A
    stack is factored by one stacked QR and gives, slice by slice, the bits
    that each slice factored alone gives.
    """
    q, r = np.linalg.qr(normals)
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    a = (np.swapaxes(q, -2, -1) * np.exp(log_eigs)[..., None, :]) @ q
    return 0.5 * (a + np.swapaxes(a, -2, -1))
