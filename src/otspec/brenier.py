"""Monotone transport maps with evaluable Hessians.

Each constructor returns a map T = grad(Phi) between log-concave measures
together with the Hessian D^2 Phi as a positive-definite matrix oracle.
Four shapes admit exact or quadrature-exact solutions: one-dimensional
(monotone rearrangement), Gaussian to Gaussian (a constant linear map),
products of one-dimensional maps, and rotationally symmetric pairs
(a radial profile from mass balance).

A map has two public point oracles, ``map_points`` and ``hessian``; the
spectra of D^2 Phi at a set of source draws come from its private coupled
path, ``_coupled_log_spectra``, which ``concentration.spectral_samples``
reads.

All map objects are pure: evaluation never mutates state, and a radial
map's one table, the quantile table of its target's radius law, is built
at construction and read afterward, so instances can be shared freely
across threads.
"""

import math

import numpy as np

from .measures import (
    GaussianMeasure,
    LogConcaveMeasure1D,
    ProductMeasure,
    RadialMeasure,
    _RadialLaw,
)
from .spd import _validated, sqrt_factors

__all__ = [
    "TransportMap",
    "brenier_1d",
    "brenier_gaussian",
    "brenier_product",
    "brenier_radial",
]

# Evaluation is restricted to source quantile levels inside this band; the
# second derivative of Phi can blow up at support endpoints (1/(1-x) for
# uniform to exponential), and quantile solves lose accuracy there.
_EDGE = 1e-9


class TransportMap:
    """Base for maps T = grad(Phi) with Hessian oracles.

    Subclasses implement ``map_points`` (vectorized T), ``hessian``
    (the Hessians at points of shape (..., n), as an array of shape
    (..., n, n)) and ``_coupled_log_spectra(gen, size)``: the descending
    log-eigenvalues of the Hessian at ``size`` source draws, as a
    column-major (m, n) array, so that each index's values are contiguous,
    computed from only the draws of ``gen`` the spectrum depends on.  It
    makes the requests the source's ``sample`` would make, in the same
    order, up to the last one it needs, so each draw's spectrum is that of
    the Hessian at the point ``sample`` would give, up to rounding.
    """

    kind = "abstract"

    def __init__(self, dim, source, target):
        self.dim = int(dim)
        self.source = source
        self.target = target

    def map_points(self, x):
        raise NotImplementedError

    def hessian(self, x):
        raise NotImplementedError

    def _coupled_log_spectra(self, gen, size):
        raise NotImplementedError

    def _points(self, x):
        """``x`` as a float array of points, shape (..., n); a last axis
        other than n raises ``ValueError``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"points must have shape (..., {self.dim}), got {x.shape}")
        return x

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind!r}, dim={self.dim})"


class Map1D(TransportMap):
    """Monotone rearrangement T = G^{-1} o F between 1D measures."""

    kind = "1d"

    def __init__(self, source, target):
        super().__init__(1, source, target)

    def map_points(self, x):
        u = np.clip(self.source.cdf(np.asarray(x, dtype=float)), _EDGE, 1.0 - _EDGE)
        return self.target.quantile(u)

    def log_second_derivative(self, x):
        """log Phi'' from the one-dimensional transport equation.

        Phi'' = f(x) / g(T(x)), the density quotient, read from each
        measure's ``_log_pdf`` (``_log_d2``); tests use a finite-difference
        slope of T as the independent check.
        """
        x = np.asarray(x, dtype=float)
        return self._log_d2(x, self.map_points(x))

    def _log_d2(self, x, t):
        """log Phi'' at x from x and its image t = T(x): log f(x) - log g(t).

        A catalog measure's log density is -V, so this is -V_f(x) + V_g(t)
        bit for bit; a regularized measure's is its node-table log density,
        the density whose CDF T is built from.
        """
        return self.source._log_pdf(x) - self.target._log_pdf(t)

    def hessian(self, x):
        x = self._points(x)
        return np.exp(self.log_second_derivative(x[..., 0]))[..., None, None]

    def _coupled_log_d2(self, u):
        """log Phi'' at the source's u-quantile, for quantile levels u.

        The monotone coupling pairs F^{-1}(u) with G^{-1}(u), so no CDF is
        evaluated to recover u.
        """
        t = self.target.quantile(np.clip(u, _EDGE, 1.0 - _EDGE))
        return self._log_d2(self.source.quantile(u), t)

    def _coupled_log_spectra(self, gen, size):
        return self._coupled_log_d2(gen.uniform(size=size))[:, None]


class LinearMap(TransportMap):
    """T(x) = A (x - m1) + m2 between Gaussians; constant Hessian A.

    ``matrix`` is kept as the validated, read-only (n, n) array A.
    """

    kind = "gaussian-linear"

    def __init__(self, source, target, matrix):
        super().__init__(source.dim, source, target)
        self.matrix, w, _ = _validated(matrix, "matrix")
        self.matrix.setflags(write=False)
        self._log_spec = np.log(w)

    def map_points(self, x):
        x = self._points(x)
        return (x - self.source.mean) @ self.matrix + self.target.mean

    def hessian(self, x):
        lead = self._points(x).shape[:-1]
        return np.broadcast_to(self.matrix, lead + self.matrix.shape).copy()

    def _coupled_log_spectra(self, gen, size):
        """The constant spectrum in every row, as a read-only view; ``gen``
        is not read."""
        return np.broadcast_to(self._log_spec, (size, self.dim))


class ProductMap(TransportMap):
    """Coordinatewise action of one-dimensional maps."""

    kind = "product"

    def __init__(self, factor_maps):
        factor_maps = list(factor_maps)
        source = ProductMeasure([m.source for m in factor_maps])
        target = ProductMeasure([m.target for m in factor_maps])
        super().__init__(len(factor_maps), source, target)
        self.factors = factor_maps

    def map_points(self, x):
        x = self._points(x)
        cols = [f.map_points(x[..., i]) for i, f in enumerate(self.factors)]
        return np.stack(cols, axis=-1)

    def _factor_log_d2(self, x):
        """log Phi_i'' of each factor at points (..., n), shaped (..., n).

        The factor axis is outermost in memory, so for (m, n) points the
        result is column-major.
        """
        x = np.asarray(x, dtype=float)
        cols = [f.log_second_derivative(x[..., i]) for i, f in enumerate(self.factors)]
        return np.moveaxis(np.stack(cols), 0, -1)

    def hessian(self, x):
        diag = np.exp(self._factor_log_d2(self._points(x)))
        out = np.zeros(diag.shape + (self.dim,))
        k = np.arange(self.dim)
        out[..., k, k] = diag
        return out

    def _coupled_log_spectra(self, gen, size):
        """One uniform request per factor, in factor order, as the source's
        ``sample`` makes them."""
        s = np.empty((size, self.dim), order="F")
        for i, f in enumerate(self.factors):
            s[:, i] = f._coupled_log_d2(gen.uniform(size=size))
        return _sort_rows_descending(s)


def _sort_rows_descending(s):
    """Sorts each row of the column-major (m, n) array ``s`` in place,
    largest first, and returns it.

    An odd-even transposition network of n rounds orders each row: a
    compare-exchange is one ``np.maximum``/``np.minimum`` pair on two
    contiguous columns, which for a few columns is several times faster
    than sorting the rows, with the same values.
    """
    n = s.shape[1]
    for first in range(n):
        for i in range(first % 2, n - 1, 2):
            a, b = s[:, i], s[:, i + 1]
            big = np.maximum(a, b)
            np.minimum(a, b, out=b)
            a[...] = big
    return s


class RadialMap(TransportMap):
    """Map between rotation-invariant measures through a radial profile.

    The profile solves radial_cdf_source(r) = radial_cdf_target(phi(r)).
    The Hessian at x with r = |x| has eigenvalue phi'(r) on the radial
    line and phi(r)/r on the tangent space (multiplicity n - 1); at the
    origin the tangential value degenerates to phi'(0).

    ``profile`` solves the mass balance exactly and serves ``map_points``
    and ``hessian``.  The spectra read ``profile_fast``, the quintic
    start of the quantile table of the target's radius law (built once,
    here), which the tests hold to ``profile``: within 1e-6 in
    log-eigenvalue from r = 1e-4 out, in dimensions 2 to 64.

    Radii are floored at 1e-7 of the source's top radius r_hi, and norms
    are taken in a frame rescaled by the power of two that brings r_hi into
    [1/2, 1), so the squared coordinates of a source at any accepted scale
    stay inside the normal doubles.  The rescaling is exact, so it changes
    no radius whose squares were normal already.
    """

    kind = "radial"

    def __init__(self, source, target):
        super().__init__(source.dim, source, target)
        self._r_hi = float(source.radial_quantile(1.0 - _EDGE))
        self._floor = 1e-7 * self._r_hi
        self._frame = 2.0 ** -math.frexp(self._r_hi)[1]
        self._target_law = _RadialLaw(target)

    def profile(self, r):
        """phi(r) from exact mass balance (safeguarded quantile solve)."""
        r = np.asarray(r, dtype=float)
        u = np.clip(self.source.radial_cdf(r), 0.0, 1.0 - _EDGE)
        return self.target.radial_quantile(u)

    def profile_fast(self, r):
        """phi(r) from the start of the target radius law's quantile table.

        The start is the table's quintic Hermite interpolant of x(z) at
        z = ndtri(u), u = F(r), with no Newton step.  It matches the
        inverse CDF's first two derivatives at the nodes, so it is exact
        but for rounding in the bulk, and within about 2e-7 in log where
        u = r**n reaches the table's stretched lower tail.  u is kept at or
        above the smallest normal double: in high dimension r**n underflows
        to 0 near the origin, and the table's tail start is positive for
        every u > 0.
        """
        r = np.asarray(r, dtype=float)
        u = np.clip(self.source.radial_cdf(r), np.finfo(float).tiny, 1.0 - _EDGE).ravel()
        return self._target_law._quantile_start(u)[0].reshape(r.shape)

    def profile_d1(self, r, phi=None):
        """phi'(r) from differentiating the mass balance."""
        r = np.asarray(r, dtype=float)
        if phi is None:
            phi = self.profile(r)
        return self.source.radial_pdf(r) / self.target.radial_pdf(phi)

    def _radii(self, x):
        """|x| along the last axis, taken in the rescaled frame."""
        y = np.multiply(x, self._frame)
        y *= y
        return np.sqrt(np.sum(y, axis=-1)) / self._frame

    def _eigen_pair(self, r, fast=False):
        """(radial eigenvalue, tangential eigenvalue) at radius r."""
        r_safe = np.maximum(np.asarray(r, dtype=float), self._floor)
        phi = self.profile_fast(r_safe) if fast else self.profile(r_safe)
        lam_tan = phi / r_safe
        lam_rad = self.source.radial_pdf(r_safe) / self.target.radial_pdf(phi)
        return lam_rad, lam_tan

    def map_points(self, x):
        x = self._points(x)
        r_safe = np.maximum(self._radii(x), self._floor)
        scale = self.profile(r_safe) / r_safe
        return x * np.expand_dims(scale, -1)

    def hessian(self, x):
        """lam_rad e e^T + lam_tan (I - e e^T) with e = x / |x|, stacked.

        Within 1e-7 r_hi of the origin the Hessian is lam_rad I.
        """
        x = self._points(x)
        r = self._radii(x)
        lam_rad, lam_tan = self._eigen_pair(r)
        origin = r < self._floor
        lam_tan = np.where(origin, lam_rad, lam_tan)[..., None, None]
        lam_rad = lam_rad[..., None, None]
        e = np.where(origin[..., None], 0.0, x / np.where(origin, 1.0, r)[..., None])
        proj = e[..., :, None] * e[..., None, :]
        # e_i e_j == e_j e_i in floating point, so h is exactly symmetric
        h = lam_rad * proj
        h += np.multiply(lam_tan, np.subtract(np.eye(self.dim), proj, out=proj), out=proj)
        return h

    def _coupled_log_spectra(self, gen, size):
        """Spectra at the radii of the source's draws: the radius uniforms
        come first in ``sample``, and no direction is drawn."""
        return self._radial_log_spectra(self.source.radial_quantile(gen.uniform(size=size)))

    def _radial_log_spectra(self, r):
        """Descending log-spectra at the radii r of shape (m,), as a
        column-major (m, n) array."""
        lam_rad, lam_tan = self._eigen_pair(r, fast=True)
        log_rad, log_tan = np.log(lam_rad), np.log(lam_tan)
        # the tangential value fills every index but the two ends, which
        # hold the larger and the smaller of the two distinct values
        spectra = np.empty((r.shape[0], self.dim), order="F")
        np.maximum(log_rad, log_tan, out=spectra[:, 0])
        spectra[:, 1:-1] = log_tan[:, None]
        np.minimum(log_rad, log_tan, out=spectra[:, -1])
        return spectra


def brenier_1d(mu, nu):
    """Monotone rearrangement between one-dimensional measures."""
    for m in (mu, nu):
        if not isinstance(m, LogConcaveMeasure1D):
            raise TypeError(f"{m!r} is not a one-dimensional log-concave measure")
    return Map1D(mu, nu)


def brenier_gaussian(mu, nu):
    """Closed-form linear map between Gaussians.

    A = S1^{-1/2} (S1^{1/2} S2 S1^{1/2})^{1/2} S1^{-1/2} is the unique
    positive-definite matrix with A S1 A = S2.
    """
    if not isinstance(mu, GaussianMeasure) or not isinstance(nu, GaussianMeasure):
        raise TypeError("brenier_gaussian expects Gaussian measures")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    s1_half, s1_inv_half = sqrt_factors(mu.covariance)
    mid_half, _ = sqrt_factors(s1_half @ nu.covariance @ s1_half)
    a = s1_inv_half @ mid_half @ s1_inv_half
    return LinearMap(mu, nu, 0.5 * (a + a.T))


def brenier_product(factor_maps):
    """Coordinatewise product of one-dimensional maps."""
    factor_maps = list(factor_maps)
    if not factor_maps:
        raise ValueError("product map needs at least one factor")
    for f in factor_maps:
        if not isinstance(f, Map1D):
            raise TypeError(f"{f!r} is not a one-dimensional transport map")
    return ProductMap(factor_maps)


def brenier_radial(mu, nu):
    """Radial transport between rotation-invariant measures, n >= 2."""
    if not isinstance(mu, RadialMeasure) or not isinstance(nu, RadialMeasure):
        raise TypeError("brenier_radial expects radial measures")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.dim < 2:
        raise ValueError("radial transport needs dimension at least 2")
    return RadialMap(mu, nu)
