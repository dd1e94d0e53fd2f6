"""Log-concave probability measures with potential, CDF, and sampling oracles.

The one-dimensional catalog (gaussian, uniform, exponential, gamma, beta,
logistic, laplace, subbotin) exposes the convex potential V with
``density = exp(-V)`` normalized, one or two derivatives of V where they
exist, closed-form CDFs, and quantiles through a shared safeguarded-Newton
solver.  Multivariate measures are Gaussians, products of 1D factors, and
radially symmetric families; these are the sources and targets for which
transport maps have closed forms.

``regularize`` implements the smoothing scheme that convolves a density
with a narrow Gaussian and damps it by a wide one, producing a smooth,
uniformly convex potential on all of the real line while keeping the
original measure in the tight-variance limit.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .spd import _validated, sqrt_factors

__all__ = [
    "LogConcaveMeasure1D",
    "GaussianMeasure",
    "ProductMeasure",
    "RadialMeasure",
    "CATALOG_NAMES",
    "check_catalog_params",
    "make_catalog_measure",
    "make_radial_measure",
    "regularize",
]

_QUAD_ATOL = 1e-12
# absolute roundoff allowed in a CDF value; the catalog and node-table CDFs
# stay below 3e-15, and a closed quantile bracket whose residual exceeds
# this straddles a jump of the CDF, not a root
_CDF_ROUNDOFF = 1e-13


# double-exponential rule: level k adds the abscissae t of step 2**-k on
# [-_DE_T, _DE_T]; beyond |t| = 4 the substitution leaves less than 1e-18
# of the interval next to a finite end, and only points beyond 1e18 on an
# infinite side; two coarse levels can agree on a peak both miss, so no
# piece is accepted before level 3
_DE_T = 4.0
_DE_MIN_LEVEL = 3
_DE_MAX_LEVEL = 10


def _de_abscissae(level):
    """The abscissae t that ``level`` adds: every point of step 1 on level 0,
    the odd multiples of 2**-level after it."""
    if level == 0:
        return np.arange(-_DE_T, _DE_T + 0.5)
    h = 2.0**-level
    return -_DE_T + h * np.arange(1, round(2.0 * _DE_T / h), 2)


def _de_substitution(t, lo, hi, center=0.0, scale=1.0):
    """Nodes and weights dx/dt of the double-exponential substitution.

    One row per piece [lo, hi]: tanh-sinh on a finite piece, with each
    node taken from its nearer end so that nodes next to an end keep
    their precision; exp-sinh on a half-line, anchored at its finite end;
    sinh-sinh on the whole line, centred at ``center``.  Infinite pieces
    spread their nodes by ``scale``.
    """
    u = 0.5 * np.pi * np.sinh(t)
    du = 0.5 * np.pi * np.cosh(t)
    lo, hi = lo[:, None], hi[:, None]
    lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
    grow = np.exp(u)
    with np.errstate(invalid="ignore"):
        half = 0.5 * (hi - lo)
        gap = half * np.exp(-np.abs(u)) / np.cosh(u)
        x = np.where(
            lo_fin & hi_fin,
            np.where(t < 0.0, lo + gap, hi - gap),
            np.where(
                lo_fin,
                lo + scale * grow,
                np.where(hi_fin, hi - scale * grow, center + scale * np.sinh(u)),
            ),
        )
        w = du * np.where(
            lo_fin & hi_fin,
            half / np.cosh(u) ** 2,
            scale * np.where(lo_fin | hi_fin, grow, np.cosh(u)),
        )
    return x, w


def _integrate(f, a, b, kinks=(), center=0.0, scale=1.0):
    """Integral of ``f`` over [a, b] with absolute tolerance 1e-12.

    Double-exponential quadrature (Takahasi and Mori 1974).  [a, b] is cut
    at the kinks inside it, and the pieces are integrated together: each
    level of the rule is one call of ``f`` on a 1-D array of the new
    nodes of every piece not yet done.  Only nodes strictly inside their
    piece are evaluated.  A piece is done, from level ``_DE_MIN_LEVEL``
    on, once its value moves by at most 1e-12 max(1, |value|) from the
    level before; a piece not done by level ``_DE_MAX_LEVEL`` raises
    ``ArithmeticError``.  ``center`` and ``scale`` place the nodes of the
    infinite pieces (see ``_de_substitution``); the defaults leave them
    where the plain substitution puts them.
    """
    edges = np.array([a, *sorted(k for k in kinks if a < k < b), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    sums = np.zeros(lo.size)
    value = np.full(lo.size, np.nan)
    error = np.full(lo.size, np.inf)
    live = np.arange(lo.size)
    for level in range(_DE_MAX_LEVEL + 1):
        x, w = _de_substitution(_de_abscissae(level), lo[live], hi[live], center, scale)
        inside = (x > lo[live, None]) & (x < hi[live, None])
        fx = np.zeros_like(x)
        if np.any(inside):
            # a potential may overflow at the far nodes of an infinite
            # side, where the density is 0
            with np.errstate(over="ignore"):
                fx[inside] = f(x[inside])
        sums[live] += np.sum(w * fx, axis=1)
        new = 2.0**-level * sums[live]
        error[live] = np.abs(new - value[live])
        value[live] = new
        if level >= _DE_MIN_LEVEL:
            live = live[~(error[live] <= _QUAD_ATOL * np.maximum(1.0, np.abs(new)))]
            if live.size == 0:
                return float(np.sum(value))
    i = live[0]
    raise ArithmeticError(
        f"quadrature on ({lo[i]}, {hi[i]}) reports error {error[i]:.3e} "
        f"for value {value[i]:.6e}"
    )


# fixed panel Gauss-Legendre rule of the regularized measures
_GL_Z, _GL_W = np.polynomial.legendre.leggauss(16)
_GRADE_LEVELS = 12
_GRADE_RATIO = 0.25
# tilted moments: equal panels per piece of the window, distinct points per
# block of the rule; the modes of all points of a call come from one bisection
_TILT_PANELS = 16
_TILT_BLOCK = 32
# node-table sums: ndtr(z) is exactly 1.0 from z = 8.2924 up and exactly 0
# from z = -37.677 down, and exp(z) is exactly 0 below -745.134; each bound
# keeps a margin, so the terms a window leaves out are exact
_NDTR_ONE = 8.5
_NDTR_ZERO = -38.5
_EXP_ZERO = -746.0
# elements per block of a node-table sum: as many as 256 points of a 64-node
# table; blocks four times larger fall out of cache and run slower
_WINDOW_BLOCK = 1 << 14

# quantile start table (see LogConcaveMeasure1D._build_quantile_table): its
# nodes sit at even steps _TABLE_DW of a level coordinate w(z), z = ndtri(F):
# w(z) = z, except that below _TABLE_Z_TAIL it runs _TABLE_STRETCH times
# slower, and within _KINK_DZ of an interior kink _KINK_REFINE times faster;
# every uniform double draw has |z| <= 8.3, above the stretched tail
_TABLE_DW = 0.02
_TABLE_Z_TAIL = -8.5
_TABLE_STRETCH = 12.5
_TABLE_W_TAIL = _TABLE_Z_TAIL * (1.0 - 1.0 / _TABLE_STRETCH)
_KINK_DZ = 0.4
_KINK_REFINE = 4.0
# the table spans z from _table_z_low, F = 1e-305 unless a family says
# otherwise, to _TABLE_Z_HIGH, where F is 3e-14 short of 1: the few doubles
# of F left below 1 no longer resolve a level step in z; the coarse grid
# the nodes are placed from reaches beyond both ends, with cells that rise
# by at most _COARSE_DZ in w
_COARSE_DZ = 0.5
_TABLE_Z_HIGH = 7.5


def _monotone_cubic(z, x, slope):
    """Cubic coefficients, in powers of (z - z_j), of x(z) on each cell.

    The slopes dx/dz are cut to three times the smaller adjacent secant,
    which keeps every cubic monotone (Fritsch and Carlson 1980).  Column j
    is (x_j, c1, c2, c3) on [z_j, z_j+1].
    """
    h = np.diff(z)
    secant = np.diff(x) / h
    limit = 3.0 * np.minimum(
        np.concatenate([secant, [np.inf]]), np.concatenate([[np.inf], secant])
    )
    m = np.minimum(np.where(np.isfinite(slope), slope, np.inf), limit)
    m0, m1 = m[:-1], m[1:]
    return np.array(
        [x[:-1], m0, (3.0 * secant - 2.0 * m0 - m1) / h, (m0 + m1 - 2.0 * secant) / h**2]
    )


def _horner(cubic, t):
    """The cubics of ``_monotone_cubic`` columns at offsets t = z - z_j."""
    return cubic[0] + t * (cubic[1] + t * (cubic[2] + t * cubic[3]))


def _cdf_slope(z, dens):
    """dx/dz = phi(z) / pdf(x) on the nodes of a CDF table."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(-0.5 * z**2) / (math.sqrt(2.0 * math.pi) * dens)


def _exact_cumsum(v):
    """Sums of v[:k] for k = 0..len(v), each rounded once.

    ``np.cumsum`` adds in order, so the rounding error of each addition is
    recovered exactly (Knuth's TwoSum) and summed alongside.
    """
    s = np.cumsum(v)
    prev = np.concatenate([[0.0], s[:-1]])
    part = s - prev
    err = (prev - (s - part)) + (v - part)
    return np.concatenate([[0.0], s + np.cumsum(err)])


def _window_size(nodes, length):
    """Most of the sorted ``nodes`` that a closed stretch ``length`` long holds."""
    ends = np.searchsorted(nodes, nodes + length, side="right")
    return int(np.max(ends - np.arange(nodes.size)))


def _window_rows(arrays, width):
    """Row j of slice k holds ``arrays[k][j:j + width]``; a view, no copy."""
    return sliding_window_view(np.stack(arrays), width, axis=1)


def _by_blocks(size, width, block):
    """``block(lo, hi)`` over runs of ``size`` points whose windows, ``width``
    nodes each, hold about ``_WINDOW_BLOCK`` elements together."""
    out = np.empty(size)
    step = max(1, _WINDOW_BLOCK // width)
    for lo in range(0, size, step):
        out[lo:lo + step] = block(lo, lo + step)
    return out


def _panel_rule(lo, hi, panels, grade_lo, grade_hi):
    """Panel Gauss-Legendre nodes and weights on [lo, hi], on a new last axis.

    ``lo`` and ``hi`` broadcast against each other.  [lo, hi] is cut into
    ``panels`` equal panels of 16 nodes; at a graded end, the end panel is
    cut again into ``_GRADE_LEVELS`` panels whose widths shrink by
    ``_GRADE_RATIO`` toward that end, so that a factor like
    (y - lo)**(s - 1), not analytic at the end, still integrates to
    roundoff.  A zero-length interval gets zero weights.
    """
    s = np.linspace(0.0, 1.0, panels + 1)
    geo = _GRADE_RATIO ** np.arange(_GRADE_LEVELS - 1, 0, -1) / panels
    if grade_lo:
        s = np.concatenate([[0.0], geo, s[1:]])
    if grade_hi:
        s = np.concatenate([s[:-1], 1.0 - geo[::-1], [1.0]])
    width = np.diff(s)[:, None]
    u = (s[:-1, None] + 0.5 * width * (1.0 + _GL_Z)).ravel()
    q = (0.5 * width * _GL_W).ravel()
    lo = np.asarray(lo, dtype=float)[..., None]
    span = np.asarray(hi, dtype=float)[..., None] - lo
    return lo + span * u, span * q


class LogConcaveMeasure1D:
    """Base class for one-dimensional measures with density exp(-V).

    Subclasses provide the potential ``V`` (including the normalizing
    constant), its derivatives where defined, a CDF, and a starting point
    for the quantile solver.  Families whose CDF has a closed-form inverse
    (gaussian, uniform, exponential, logistic, laplace) start from it, in
    ``_quantile_init``.  The others (gamma, beta, subbotin and the
    regularized measures) build a table of their own CDF at construction
    (``_build_quantile_table``) and start from a monotone cubic through it:
    inverting an incomplete beta or gamma function costs 4 to 16 times a
    ``cdf`` evaluation, and a node-table CDF has no inverse at all.

    Attributes
    ----------
    support : tuple (a, b)
        Open interval carrying the measure; endpoints may be infinite.
    has_d2 : bool
        Whether the second-derivative oracle exists everywhere on the
        support (False for the non-smooth members).
    """

    name = "measure"
    dim = 1
    has_d2 = True
    # the quantile start table, once built: the nodes (_tab_x, _tab_f,
    # _tab_z), column j of ``_tab_cubic`` holding the cubic's coefficients
    # on the cell [x_j, x_j+1], and z = ndtri(F) at the interior kinks
    _tab_cubic = None
    _tab_kinks = ()
    _table_z_low = float(special.ndtri(1e-305))

    def __init__(self, support):
        self.support = (float(support[0]), float(support[1]))

    # -- oracles ---------------------------------------------------------
    def potential(self, x):
        raise NotImplementedError

    def potential_d1(self, x):
        raise NotImplementedError

    def potential_d2(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        x_in = np.asarray(x, dtype=float)
        x1 = np.atleast_1d(x_in)
        a, b = self.support
        inside = (x1 > a) & (x1 < b)
        if np.all(inside):
            out = np.exp(-np.atleast_1d(self.potential(x1)))
        else:
            out = np.zeros_like(x1)
            if np.any(inside):
                out[inside] = np.exp(-np.atleast_1d(self.potential(x1[inside])))
        return float(out[0]) if x_in.ndim == 0 else out

    # -- quantile solver ---------------------------------------------------
    def _location_scale(self):
        """Rough center and spread used to seed brackets and the CDF table."""
        a, b = self.support
        if np.isfinite(a) and np.isfinite(b):
            return 0.5 * (a + b), 0.5 * (b - a)
        return 0.0, 1.0

    def _quantile_init(self, p):
        """Starting points of the quantile solver: the CDF table's.

        Families with a closed-form inverse override this and build no table.
        """
        if self._tab_cubic is None:
            raise NotImplementedError(f"{self.name}: no quantile table was built")
        return self._quantile_start(p)[0]

    def _quantile_start(self, p):
        """(x, lo, hi): starting points and their brackets.

        From the CDF table, the bracket of a start is its table cell, with
        cdf(lo) <= p < cdf(hi), or beyond the table's ends the one
        ``_tail_start`` gives.  A closed-form start carries the infinite
        bracket, and the solver searches one (``_bracket``) for the starts
        that do not settle.
        """
        if self._tab_cubic is None:
            x = self._quantile_init(p)
            return x, np.full_like(x, -np.inf), np.full_like(x, np.inf)
        z = special.ndtri(p)
        # the levels are even in w(z) and each node's w(z) is within an
        # eighth of a step of its level, so g is the cell holding p or the
        # one above it, and F_g > p tells which
        g = (self._table_w(z) * (1.0 / _TABLE_DW) + self._tab_g0).astype(np.intp)
        j = g - (p < np.take(self._tab_f, g, mode="clip"))
        cubic = np.take(self._tab_cubic, j, axis=1, mode="clip")
        t = z - np.take(self._tab_z, j, mode="clip")
        x = _horner(cubic, t)
        lo, hi = cubic[0], np.take(self._tab_x[1:], j, mode="clip")
        # the cubic stays in its cell but for rounding
        np.clip(x, lo, hi, out=x)
        for side, out in enumerate((j < 0, j >= self._tab_f.size - 1)):
            if np.any(out):
                x[out], lo[out], hi[out] = self._tail_start(p[out], side)
        return x, lo, hi

    def _tail_start(self, p, side):
        """(x, lo, hi) for p below the table's first node (side 0) or at or
        above its last (side 1).

        The mass beyond the end node, F or 1 - F, is taken as a power of the
        distance to a finite support edge, or as exponential on an infinite
        side, matching the density at the node.  A log-concave tail falls
        off at least that fast, so on an infinite side the model's point
        lies beyond the root and is the bracket's outer end; a finite edge
        is.
        """
        x_end, mass, dens = self._tab_ends[side]
        edge = self.support[side]
        sign = 1.0 if side else -1.0
        ratio = (1.0 - p if side else p) / mass
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if np.isfinite(edge):
                gap = abs(edge - x_end)
                x = edge - sign * gap * ratio ** (mass / (gap * dens))
                outer = np.full_like(x, edge)
            else:
                x = x_end - sign * (mass / dens) * np.log(ratio)
                outer = x
        inner = np.full_like(x, x_end)
        return (x, inner, outer) if side else (x, outer, inner)

    def _table_w(self, z):
        """The table's level coordinate w(z) (see ``_TABLE_DW``)."""
        w = np.maximum(z, z * (1.0 / _TABLE_STRETCH) + _TABLE_W_TAIL)
        for zk in self._tab_kinks:
            w += (_KINK_REFINE - 1.0) * np.clip(z - zk, -_KINK_DZ, _KINK_DZ)
        return w

    def _build_quantile_table(self):
        """CDF values F_j at nodes x_j evenly spaced in w(z), z = ndtri(F).

        A coarse grid (41 points over +-10 spreads of ``_location_scale``,
        13 more on each infinite side out to about 900 spreads, the kinks,
        and points that halve their distance to each finite support edge)
        has every cell whose w(z) rises by more than ``_COARSE_DZ`` halved,
        until it reaches below ``_table_z_low`` and above ``_TABLE_Z_HIGH``.
        A monotone cubic x(z) through it, with the exact slopes
        dx/dz = phi(z) / pdf(x), places one node at every level
        w = k ``_TABLE_DW``, and F is evaluated exactly there.  A node whose
        w(z) misses its level by more than an eighth of a step (next to a
        finite edge, where x(z) bends most, up to a hundred of them) is
        moved by Newton steps in z.  The table is graded: its levels run
        finer near interior kinks, where x(z) is not smooth, and coarser in
        the far lower tail.  The start of a quantile solve is the monotone
        cubic through the nodes at z = ndtri(p) (Fritsch and Carlson 1980),
        so p = F_j starts exactly at x_j.
        """
        a, b = self.support
        center, scale = self._location_scale()
        reach = 10.0 * scale * 2.0 ** (np.arange(1.0, 14.0) / 2.0)
        kinks = np.array([k for k in self._kink_points if a < k < b], dtype=float)
        parts = [center + scale * np.linspace(-10.0, 10.0, 41), center - reach,
                 center + reach, kinks]
        for edge in (a, b):
            if np.isfinite(edge):
                parts.append(edge + (center - edge) * 2.0 ** -np.arange(1.0, 1075.0))
        x = np.unique(np.concatenate(parts))
        x = x[(x > a) & (x < b)]
        self._tab_kinks = tuple(special.ndtri(self.cdf(kinks)))
        f = self.cdf(x)
        # F = 0 and F = 1 count as z = -inf and +inf, so the grid is also
        # refined toward the points where F underflows or rounds to 1
        for _ in range(60):
            z = special.ndtri(f)
            with np.errstate(invalid="ignore"):
                split = (
                    (np.diff(self._table_w(z)) > _COARSE_DZ)
                    & (z[1:] >= self._table_z_low)
                    & (z[:-1] <= _TABLE_Z_HIGH)
                )
            lo, hi = x[:-1][split], x[1:][split]
            mid = 0.5 * (lo + hi)
            mid = mid[(mid > lo) & (mid < hi)]
            if mid.size == 0:
                break
            order = np.argsort(np.concatenate([x, mid]))
            x = np.concatenate([x, mid])[order]
            f = np.concatenate([f, self.cdf(mid)])[order]
        z = special.ndtri(f)
        keep = np.isfinite(z)
        keep[keep] &= z[keep] > np.maximum.accumulate(
            np.concatenate([[-np.inf], z[keep][:-1]])
        )
        x, z = x[keep], z[keep]
        coarse = _monotone_cubic(z, x, _cdf_slope(z, self.pdf(x)))

        bottom, top = max(z[0], self._table_z_low), min(z[-1], _TABLE_Z_HIGH)
        knots = np.unique(
            np.clip([bottom, top, _TABLE_Z_TAIL]
                    + [zk + d for zk in self._tab_kinks for d in (-_KINK_DZ, _KINK_DZ)],
                    bottom, top)
        )
        w = _TABLE_DW * np.arange(
            math.ceil(self._table_w(bottom) / _TABLE_DW),
            math.floor(self._table_w(top) / _TABLE_DW) + 1,
        )
        level = np.interp(w, self._table_w(knots), knots)
        k = np.clip(np.searchsorted(z, level, side="right") - 1, 0, z.size - 2)
        x = _horner(coarse[:, k], level - z[k])
        f = self.cdf(x)
        z = special.ndtri(f)
        dens = self.pdf(x)

        def astray():
            return np.flatnonzero(~(np.abs(self._table_w(z) - w) <= 0.125 * _TABLE_DW))

        off = astray()
        for _ in range(4):
            if off.size == 0:
                break
            x[off] += (level[off] - z[off]) * _cdf_slope(z[off], dens[off])
            f[off] = self.cdf(x[off])
            z[off] = special.ndtri(f[off])
            dens[off] = self.pdf(x[off])
            off = astray()
        if off.size:
            # a node still off its level, as where x runs out of doubles next
            # to a finite edge, ends the table on its side of the median
            mid = np.argmin(np.abs(level))
            if np.isin(mid, off):
                raise ArithmeticError(f"{self.name}: the quantile table misses its median")
            first = max([k + 1 for k in off if k < mid], default=0)
            last = min([k for k in off if k > mid], default=w.size)
            x, f, z, dens, w = (v[first:last] for v in (x, f, z, dens, w))
        self._tab_g0 = 0.375 - w[0] / _TABLE_DW
        self._tab_x, self._tab_f, self._tab_z = x, f, z
        self._tab_ends = ((x[0], f[0], dens[0]), (x[-1], 1.0 - f[-1], dens[-1]))
        self._tab_cubic = _monotone_cubic(z, x, _cdf_slope(z, dens))

    def _bracket(self, p):
        """Per-element interval [lo, hi] with cdf(lo) ≤ p ≤ cdf(hi).

        An infinite end doubles its distance from the center, for the
        elements it does not yet bracket only, up to 2**89 scales out.
        """
        a, b = self.support
        center, scale = self._location_scale()
        lo = np.full_like(p, a if np.isfinite(a) else center - scale)
        hi = np.full_like(p, b if np.isfinite(b) else center + scale)
        sides = ((lo, a, -1.0, np.greater), (hi, b, 1.0, np.less))
        for end, edge, sign, short in sides:
            if np.isfinite(edge):
                continue
            bad = np.flatnonzero(short(self.cdf(end), p))
            for k in range(1, 90):
                if bad.size == 0:
                    break
                end[bad] = center + sign * scale * 2.0**k
                bad = bad[short(self.cdf(end[bad]), p[bad])]
            if bad.size:
                raise ArithmeticError(
                    f"{self.name}: quantile bracket search failed for {bad.size} "
                    f"of {p.size} probabilities (widest bracket "
                    f"[{lo.min():.6g}, {hi.max():.6g}])"
                )
        return lo, hi

    def quantile(self, p):
        """Inverse CDF by safeguarded Newton with bisection fallback.

        Each element stops on its own, as soon as one of these holds at a
        point x inside the support:

        - |F(x) - p| is within one spacing of p, or within four once a
          Newton step fails to halve the previous move (F's roundoff then
          decides, and bisecting the bracket would gain nothing);
        - its Newton step is below 1e-15 (1 + |x|) and stays in the support;
        - its bracket has closed to twice that width while |F(x) - p| is
          within ``_CDF_ROUNDOFF``; this catches CDFs whose roundoff is
          larger than both tests above, and never a CDF that jumps.

        ``cdf`` and ``pdf`` see only the elements still active.  After each
        ``cdf`` evaluation the elements within one spacing retire before
        ``pdf``, the Newton step or the bracket is computed for them, so an
        exact start costs one ``cdf`` evaluation and no ``pdf`` evaluation.
        A start from the CDF table carries its table cell as its bracket; a
        closed-form start, or one outside the table, gets one from the
        bracket search, which runs only for the elements the start does not
        settle.  A table start costs two ``cdf`` evaluations and one ``pdf``
        evaluation for most draws: its cubic is accurate to about 1e-10 of
        the cell, so one Newton step reaches the root.  A Newton step that
        leaves the bracket, or fails to halve the previous move, is replaced
        by bisection.  An element still active after 80 evaluations raises
        ``ArithmeticError``.
        """
        p_in = np.asarray(p, dtype=float)
        p_all = p_in.ravel()
        if not np.all((p_all > 0.0) & (p_all < 1.0)):
            raise ValueError("quantile probability must lie strictly in (0, 1)")
        if p_all.size == 0:
            return np.empty(p_in.shape)
        x_all, lo, hi = self._quantile_start(p_all)
        x_all = np.array(x_all, dtype=float).reshape(p_all.shape)
        a, b = self.support
        idx = np.arange(p_all.size)
        p_act, x = p_all, x_all.copy()
        searched = False
        moved = np.full_like(x, np.inf)
        for _ in range(80):
            f = self.cdf(x) - p_act
            inside = (x > a) & (x < b)
            # within one spacing is a root whatever the step, so these
            # elements retire before pdf, step and bracket are computed; an
            # element still active is written again when it retires
            settled = inside & (np.abs(f) <= np.spacing(p_act))
            if np.any(settled):
                x_all[idx] = x
                keep = np.flatnonzero(~settled)
                idx, p_act, x, f, inside, moved, lo, hi = (
                    v[keep] for v in (idx, p_act, x, f, inside, moved, lo, hi)
                )
                if idx.size == 0:
                    break
            dens = self.pdf(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = f / dens
                newton = x - step
            tol = 1e-15 * (1.0 + np.abs(x))
            newton_done = (newton > a) & (newton < b) & (np.abs(step) <= tol)
            if searched:
                ulps = np.where(np.abs(step) > 0.5 * moved, 4.0, 1.0)
                at_root = inside & (np.abs(f) <= ulps * np.spacing(p_act))
                newton_done &= ~at_root
                active = ~(at_root | newton_done)
            else:
                # no move yet, so the root test is the settled test above;
                # the starts that carry no bracket get one
                active = ~newton_done
                search = active & ~np.isfinite(hi - lo)
                if np.any(search):
                    lo[search], hi[search] = self._bracket(p_act[search])
                searched = True
            np.copyto(lo, x, where=(f <= 0.0) & (x > lo))
            np.copyto(hi, x, where=(f >= 0.0) & (x < hi))
            narrow = hi - lo <= 2.0 * tol
            if np.any(narrow):
                active &= ~(narrow & inside & (np.abs(f) <= _CDF_ROUNDOFF))
            if not np.all(active):
                x_all[idx] = np.where(newton_done, newton, x)
                keep = np.flatnonzero(active)
                idx, p_act, x, step, newton, lo, hi, moved = (
                    v[keep] for v in (idx, p_act, x, step, newton, lo, hi, moved)
                )
                if idx.size == 0:
                    break
            # bisect where the Newton step leaves the bracket (as it does
            # where the density is 0) or fails to halve the previous move
            fallback = ~((newton > lo) & (newton < hi)) | (np.abs(step) > 0.5 * moved)
            if np.any(fallback):
                newton[fallback] = 0.5 * (lo[fallback] + hi[fallback])
            moved, x = np.abs(newton - x), newton
        else:
            raise ArithmeticError(
                f"{self.name}: quantile solve left {idx.size} of {p_all.size} "
                f"probabilities unconverged after 80 iterations (widest bracket "
                f"{np.max(hi - lo):.3e})"
            )
        return float(x_all[0]) if p_in.ndim == 0 else x_all.reshape(p_in.shape)

    def sample(self, rng, size=None):
        return self.quantile(rng.uniform(size=size))

    # -- construction-time validation -------------------------------------
    def _validation_grid(self):
        """Bulk points: the quantiles of an even 1000-point grid in (0, 1),
        or the CDF table's nodes over the same range, which cost no solve."""
        count = 1000
        lo, hi = 1.0 / (count + 1), count / (count + 1.0)
        if self._tab_cubic is not None:
            return self._tab_x[(self._tab_f >= lo) & (self._tab_f <= hi)]
        return self.quantile(np.linspace(lo, hi, count))

    # points where the density is not analytic: kinks of V inside the
    # support, and finite support edges where the density vanishes like a
    # non-integer power; quadratures split or grade their panels there
    _kink_points = ()

    def _validate(self):
        grid = self._validation_grid()
        if self.has_d2:
            d2 = np.atleast_1d(self.potential_d2(grid))
            if np.any(d2 < -1e-9):
                raise ValueError(
                    f"{self.name}: potential is not convex "
                    f"(min V'' = {d2.min():.3e} on the validation grid)"
                )
        mass = self._total_mass()
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(
                f"{self.name}: density integrates to {mass!r}, expected 1"
            )

    def _total_mass(self):
        """Integral of the density, split at interior kinks of the potential.

        One double-exponential rule runs over every piece at once, so each
        of its levels is one ``pdf`` call.  The infinite pieces are placed
        by ``_location_scale``, so a narrow density far from 0 is not
        missed by every node.
        """
        center, scale = self._location_scale()
        return _integrate(
            self.pdf, *self.support, kinks=self._kink_points, center=center, scale=scale
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class _Gaussian1D(LogConcaveMeasure1D):
    name_stem = "gaussian"

    @staticmethod
    def _check_params(m, sigma):
        if sigma <= 0:
            raise ValueError(f"gaussian scale must be positive, got {sigma}")

    def __init__(self, m, sigma):
        super().__init__((-np.inf, np.inf))
        self.m, self.sigma = float(m), float(sigma)
        self.name = f"gaussian({m},{sigma})"
        self._log_norm = math.log(self.sigma * math.sqrt(2.0 * math.pi))
        self._validate()

    def potential(self, x):
        z = (np.asarray(x, float) - self.m) / self.sigma
        return 0.5 * z**2 + self._log_norm

    def potential_d1(self, x):
        return (np.asarray(x, float) - self.m) / self.sigma**2

    def potential_d2(self, x):
        return np.full_like(np.asarray(x, float), 1.0 / self.sigma**2)

    def cdf(self, x):
        return special.ndtr((np.asarray(x, float) - self.m) / self.sigma)

    def _location_scale(self):
        return self.m, self.sigma

    def _quantile_init(self, p):
        return self.m + self.sigma * special.ndtri(p)


class _Uniform1D(LogConcaveMeasure1D):
    @staticmethod
    def _check_params(a, b):
        if not b > a:
            raise ValueError(f"uniform needs a < b, got ({a}, {b})")

    def __init__(self, a, b):
        super().__init__((a, b))
        self.name = f"uniform({a},{b})"
        self._log_norm = math.log(b - a)
        self._validate()

    def potential(self, x):
        x = np.asarray(x, float)
        a, b = self.support
        return np.where((x > a) & (x < b), self._log_norm, np.inf)

    def potential_d1(self, x):
        return np.zeros_like(np.asarray(x, float))

    def potential_d2(self, x):
        return np.zeros_like(np.asarray(x, float))

    def cdf(self, x):
        a, b = self.support
        return np.clip((np.asarray(x, float) - a) / (b - a), 0.0, 1.0)

    def _quantile_init(self, p):
        a, b = self.support
        return a + p * (b - a)


class _Exponential1D(LogConcaveMeasure1D):
    @staticmethod
    def _check_params(rate):
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")

    def __init__(self, rate):
        super().__init__((0.0, np.inf))
        self.rate = float(rate)
        self.name = f"exponential({rate})"
        self._validate()

    def potential(self, x):
        x = np.asarray(x, float)
        return np.where(x > 0, self.rate * x - math.log(self.rate), np.inf)

    def potential_d1(self, x):
        return np.full_like(np.asarray(x, float), self.rate)

    def potential_d2(self, x):
        return np.zeros_like(np.asarray(x, float))

    def cdf(self, x):
        x = np.asarray(x, float)
        return np.where(x > 0, -np.expm1(-self.rate * x), 0.0)

    def _location_scale(self):
        return 1.0 / self.rate, 1.0 / self.rate

    def _quantile_init(self, p):
        return -np.log1p(-p) / self.rate


class _Gamma1D(LogConcaveMeasure1D):
    @staticmethod
    def _check_params(shape, rate):
        if shape < 1:
            raise ValueError(
                f"gamma shape must be >= 1 for log-concavity, got {shape}"
            )
        if rate <= 0:
            raise ValueError(f"gamma rate must be positive, got {rate}")

    def __init__(self, shape, rate):
        super().__init__((0.0, np.inf))
        self.shape, self.rate = float(shape), float(rate)
        self.name = f"gamma({shape},{rate})"
        if self.shape % 1.0:
            self._kink_points = (0.0,)
        self._log_norm = math.lgamma(self.shape) - self.shape * math.log(self.rate)
        self._build_quantile_table()
        self._validate()

    def potential(self, x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = self.rate * x - (self.shape - 1.0) * np.log(x) + self._log_norm
        return np.where(x > 0, v, np.inf)

    def potential_d1(self, x):
        x = np.asarray(x, float)
        return self.rate - (self.shape - 1.0) / x

    def potential_d2(self, x):
        x = np.asarray(x, float)
        return (self.shape - 1.0) / x**2

    def cdf(self, x):
        x = np.asarray(x, float)
        return np.where(x > 0, special.gammainc(self.shape, self.rate * x), 0.0)

    def _location_scale(self):
        return self.shape / self.rate, math.sqrt(self.shape) / self.rate


class _Beta1D(LogConcaveMeasure1D):
    @staticmethod
    def _check_params(alpha, beta):
        if alpha < 1 or beta < 1:
            raise ValueError(
                f"beta parameters must be >= 1 for log-concavity, got ({alpha}, {beta})"
            )

    def __init__(self, alpha, beta):
        super().__init__((0.0, 1.0))
        self.alpha, self.beta = float(alpha), float(beta)
        self.name = f"beta({alpha},{beta})"
        self._kink_points = tuple(
            e for e, s in ((0.0, self.alpha), (1.0, self.beta)) if s % 1.0
        )
        self._log_norm = (
            math.lgamma(self.alpha)
            + math.lgamma(self.beta)
            - math.lgamma(self.alpha + self.beta)
        )
        self._build_quantile_table()
        self._validate()

    def potential(self, x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = (
                -(self.alpha - 1.0) * np.log(x)
                - (self.beta - 1.0) * np.log1p(-x)
                + self._log_norm
            )
        return np.where((x > 0) & (x < 1), v, np.inf)

    def potential_d1(self, x):
        x = np.asarray(x, float)
        return -(self.alpha - 1.0) / x + (self.beta - 1.0) / (1.0 - x)

    def potential_d2(self, x):
        x = np.asarray(x, float)
        return (self.alpha - 1.0) / x**2 + (self.beta - 1.0) / (1.0 - x) ** 2

    def cdf(self, x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return special.betainc(self.alpha, self.beta, x)

    def _location_scale(self):
        # mean and deviation: the support's (0.5, 0.5) would spread the
        # quantile table's coarse grid thin over a narrow beta
        s = self.alpha + self.beta
        return self.alpha / s, math.sqrt(self.alpha * self.beta / (s + 1.0)) / s


class _Logistic1D(LogConcaveMeasure1D):
    @staticmethod
    def _check_params(m, s):
        if s <= 0:
            raise ValueError(f"logistic scale must be positive, got {s}")

    def __init__(self, m, s):
        super().__init__((-np.inf, np.inf))
        self.m, self.s = float(m), float(s)
        self.name = f"logistic({m},{s})"
        self._validate()

    def potential(self, x):
        z = (np.asarray(x, float) - self.m) / self.s
        # -log pdf = z + 2 log(1+e^{-z}) + log s, written stably for |z| large
        return np.abs(z) + 2.0 * np.log1p(np.exp(-np.abs(z))) + math.log(self.s)

    def potential_d1(self, x):
        z = (np.asarray(x, float) - self.m) / self.s
        return np.tanh(0.5 * z) / self.s

    def potential_d2(self, x):
        z = (np.asarray(x, float) - self.m) / self.s
        return 0.5 / (self.s**2 * np.cosh(0.5 * z) ** 2)

    def cdf(self, x):
        z = (np.asarray(x, float) - self.m) / self.s
        return special.expit(z)

    def _location_scale(self):
        return self.m, self.s

    def _quantile_init(self, p):
        return self.m + self.s * special.logit(p)


class _Laplace1D(LogConcaveMeasure1D):
    has_d2 = False

    @staticmethod
    def _check_params(m, b):
        if b <= 0:
            raise ValueError(f"laplace scale must be positive, got {b}")

    def __init__(self, m, b):
        super().__init__((-np.inf, np.inf))
        self.m, self.b = float(m), float(b)
        self.name = f"laplace({m},{b})"
        self._kink_points = (self.m,)
        self._validate()

    def potential(self, x):
        z = (np.asarray(x, float) - self.m) / self.b
        return np.abs(z) + math.log(2.0 * self.b)

    def potential_d1(self, x):
        """One-sided at the kink: sign convention gives +1/b at x = m."""
        z = (np.asarray(x, float) - self.m) / self.b
        return np.where(z >= 0, 1.0, -1.0) / self.b

    def potential_d2(self, x):
        raise NotImplementedError("laplace potential has no second derivative")

    def cdf(self, x):
        z = (np.asarray(x, float) - self.m) / self.b
        return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def _location_scale(self):
        return self.m, self.b

    def _quantile_init(self, p):
        q = np.where(
            p < 0.5, np.log(2.0 * p), -np.log(2.0 * np.maximum(1.0 - p, 1e-300))
        )
        return self.m + self.b * q


class _Subbotin1D(LogConcaveMeasure1D):
    """Density proportional to exp(-|x|^p / p); p = 2 is the standard normal."""

    @staticmethod
    def _check_params(p):
        if p < 1:
            raise ValueError(f"subbotin exponent must be >= 1, got {p}")

    def __init__(self, p):
        super().__init__((-np.inf, np.inf))
        self.p = float(p)
        self.has_d2 = self.p >= 2.0
        self.name = f"subbotin({p})"
        # |x|**p is analytic at 0 only for an even integer p
        if self.p % 2.0 != 0.0:
            self._kink_points = (0.0,)
        self._log_norm = (
            math.log(2.0)
            + (1.0 / self.p - 1.0) * math.log(self.p)
            + math.lgamma(1.0 / self.p)
        )
        self._build_quantile_table()
        self._validate()

    def potential(self, x):
        x = np.asarray(x, float)
        return np.abs(x) ** self.p / self.p + self._log_norm

    def potential_d1(self, x):
        x = np.asarray(x, float)
        return np.sign(x) * np.abs(x) ** (self.p - 1.0)

    def potential_d2(self, x):
        if not self.has_d2:
            raise NotImplementedError(
                f"subbotin({self.p}) potential has no second derivative at 0"
            )
        x = np.asarray(x, float)
        return (self.p - 1.0) * np.abs(x) ** (self.p - 2.0)

    def cdf(self, x):
        x = np.asarray(x, float)
        a, t = 1.0 / self.p, np.abs(x) ** self.p / self.p
        g = special.gammainc(a, t)
        lower = x < 0.0
        out = np.where(lower, 0.5 * (1.0 - g), 0.5 + 0.5 * g)
        # 1 - g keeps relative accuracy while g <= 0.9; beyond that the
        # lower tail comes from the upper incomplete gamma, which is much
        # slower than gammainc at small t, so it is called only there
        far = lower & (g > 0.9)
        out[far] = 0.5 * special.gammaincc(a, t[far])
        return out


_CATALOG = {
    "gaussian": (_Gaussian1D, 2),
    "uniform": (_Uniform1D, 2),
    "exponential": (_Exponential1D, 1),
    "gamma": (_Gamma1D, 2),
    "beta": (_Beta1D, 2),
    "logistic": (_Logistic1D, 2),
    "laplace": (_Laplace1D, 2),
    "subbotin": (_Subbotin1D, 1),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def check_catalog_params(name, params):
    """Check a catalog measure's name and parameters without building it.

    Returns the parameters as floats; raises ``ValueError`` where
    ``make_catalog_measure`` would reject them.  Building a measure costs
    its CDF table and mass check, so a config is checked with this.
    """
    if name not in _CATALOG:
        raise ValueError(
            f"unknown catalog measure {name!r}; choose from {CATALOG_NAMES}"
        )
    cls, arity = _CATALOG[name]
    params = [float(p) for p in np.atleast_1d(params)]
    if len(params) != arity:
        raise ValueError(
            f"{name} takes {arity} parameter(s), got {len(params)}: {params}"
        )
    cls._check_params(*params)
    return params


def make_catalog_measure(name, params):
    """Construct a catalog measure by name with validated parameters.

    Parameters
    ----------
    name : str
        One of ``CATALOG_NAMES``.
    params : sequence of float
        Family parameters; lengths and log-concavity ranges are enforced
        (gamma shape >= 1, beta parameters >= 1, subbotin exponent >= 1).
    """
    params = check_catalog_params(name, params)
    return _CATALOG[name][0](*params)


class GaussianMeasure:
    """Multivariate Gaussian with mean vector and SPD covariance.

    ``covariance`` is kept as the validated, exactly symmetric, read-only
    (n, n) array.
    """

    def __init__(self, mean, covariance):
        self.mean = np.asarray(mean, dtype=float).ravel()
        self.covariance, w, _ = _validated(covariance, "covariance")
        self.covariance.setflags(write=False)
        if self.mean.size != self.covariance.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        self.dim = self.mean.size
        self._precision = np.linalg.inv(self.covariance)
        self._log_norm = 0.5 * (
            self.dim * math.log(2.0 * math.pi)
            + float(np.sum(np.log(w)))
        )
        self._sqrt_cov, _ = sqrt_factors(self.covariance)
        self.name = f"gaussian(dim={self.dim})"

    def potential(self, x):
        d = np.asarray(x, dtype=float) - self.mean
        q = np.einsum("...i,ij,...j->...", d, self._precision, d)
        return 0.5 * q + self._log_norm

    def potential_grad(self, x):
        d = np.asarray(x, dtype=float) - self.mean
        return d @ self._precision

    def potential_hess(self, x):
        return self._precision.copy()

    def pdf(self, x):
        return np.exp(-self.potential(x))

    def sample(self, rng, size=None):
        shape = (self.dim,) if size is None else (size, self.dim)
        z = rng.standard_normal(shape)
        return self.mean + z @ self._sqrt_cov

    def box_mass(self, box):
        """Probability of an axis-aligned rectangle (2D only).

        Conditioning on the first coordinate reduces the rectangle mass to a
        single one-dimensional quadrature at the library tolerance.
        """
        if self.dim != 2:
            raise NotImplementedError("box_mass implemented for dim 2")
        (x0, x1), (y0, y1) = box
        c = self.covariance
        m0, m1 = self.mean
        s0 = math.sqrt(c[0, 0])
        slope = c[0, 1] / c[0, 0]
        s_cond = math.sqrt(c[1, 1] - c[0, 1] ** 2 / c[0, 0])

        def strip(t):
            mid = m1 + slope * (t - m0)
            phi = np.exp(-0.5 * ((t - m0) / s0) ** 2) / (s0 * math.sqrt(2 * math.pi))
            return phi * (
                special.ndtr((y1 - mid) / s_cond) - special.ndtr((y0 - mid) / s_cond)
            )

        lo = max(x0, m0 - 40.0 * s0)
        hi = min(x1, m0 + 40.0 * s0)
        if lo >= hi:
            return 0.0
        return _integrate(strip, lo, hi)

    def __repr__(self):
        return f"GaussianMeasure(dim={self.dim})"


class ProductMeasure:
    """Product of independent one-dimensional log-concave factors."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product measure needs at least one factor")
        for f in factors:
            if not isinstance(f, LogConcaveMeasure1D):
                raise TypeError(f"factor {f!r} is not a 1D log-concave measure")
        self.factors = factors
        self.dim = len(factors)
        self.name = "product(" + ", ".join(f.name for f in factors) + ")"

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return sum(f.potential(x[..., i]) for i, f in enumerate(self.factors))

    def pdf(self, x):
        return np.exp(-self.potential(x))

    def sample(self, rng, size=None):
        cols = [f.sample(rng, size=size) for f in self.factors]
        return np.stack(cols, axis=-1)

    def box_mass(self, box):
        mass = 1.0
        for f, (lo, hi) in zip(self.factors, box):
            mass *= float(f.cdf(hi) - f.cdf(lo))
        return mass

    def __repr__(self):
        return f"ProductMeasure(dim={self.dim})"


class RadialMeasure:
    """Rotation-invariant log-concave measure with density exp(-v(|x|)).

    Subclasses provide the radial potential v (with the normalizer), the
    radial CDF (mass of the centered ball), its density in r, and the
    radial quantile.
    """

    def __init__(self, dim, radius):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        self.radius = float(radius)  # support radius, may be inf

    def radial_potential(self, r):
        raise NotImplementedError

    def radial_potential_d1(self, r):
        raise NotImplementedError

    def radial_potential_d2(self, r):
        raise NotImplementedError

    def radial_cdf(self, r):
        raise NotImplementedError

    def radial_pdf(self, r):
        raise NotImplementedError

    def radial_pdf_logslope(self, r):
        """d/dr log radial_pdf, used by transport profile curvature."""
        raise NotImplementedError

    def radial_quantile(self, p):
        raise NotImplementedError

    def potential(self, x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return self.radial_potential(r)

    def pdf(self, x):
        return np.exp(-self.potential(x))

    def sample(self, rng, size=None):
        m = 1 if size is None else int(size)
        radii = self.radial_quantile(rng.uniform(size=m))
        direction = rng.standard_normal((m, self.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        points = radii[:, None] * direction
        return points[0] if size is None else points

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class _UniformBall(RadialMeasure):
    def __init__(self, dim, radius=1.0):
        if radius <= 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        super().__init__(dim, radius)
        n = self.dim
        self._log_volume = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0) \
            + n * math.log(self.radius)
        self.name = f"uniform-ball(dim={dim},R={radius})"

    def radial_potential(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.radius, self._log_volume, np.inf)

    def radial_potential_d1(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def radial_potential_d2(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def radial_pdf_logslope(self, r):
        return (self.dim - 1.0) / np.asarray(r, dtype=float)

    def radial_cdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.clip(r / self.radius, 0.0, 1.0) ** self.dim

    def radial_pdf(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r >= 0) & (r <= self.radius)
        return np.where(
            inside, self.dim * r ** (self.dim - 1) / self.radius**self.dim, 0.0
        )

    def radial_quantile(self, p):
        return self.radius * np.asarray(p, dtype=float) ** (1.0 / self.dim)


class _RadialGaussian(RadialMeasure):
    def __init__(self, dim, sigma=1.0):
        if sigma <= 0:
            raise ValueError(f"gaussian scale must be positive, got {sigma}")
        super().__init__(dim, np.inf)
        self.sigma = float(sigma)
        self._log_norm = 0.5 * dim * math.log(2.0 * math.pi * self.sigma**2)
        self._log_shell = (
            math.log(2.0)
            - math.lgamma(0.5 * dim)
            - 0.5 * dim * math.log(2.0 * self.sigma**2)
        )
        self.name = f"radial-gaussian(dim={dim},sigma={sigma})"

    def radial_potential(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * (r / self.sigma) ** 2 + self._log_norm

    def radial_potential_d1(self, r):
        return np.asarray(r, dtype=float) / self.sigma**2

    def radial_potential_d2(self, r):
        return np.full_like(np.asarray(r, dtype=float), 1.0 / self.sigma**2)

    def radial_pdf_logslope(self, r):
        r = np.asarray(r, dtype=float)
        return (self.dim - 1.0) / r - r / self.sigma**2

    def radial_cdf(self, r):
        r = np.asarray(r, dtype=float)
        return special.gammainc(0.5 * self.dim, 0.5 * (r / self.sigma) ** 2)

    def radial_pdf(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            logpdf = (
                self._log_shell
                + (self.dim - 1.0) * np.log(r)
                - 0.5 * (r / self.sigma) ** 2
            )
        return np.where(r > 0, np.exp(logpdf), 0.0 if self.dim > 1 else np.exp(self._log_shell))

    def radial_quantile(self, p):
        p = np.asarray(p, dtype=float)
        return self.sigma * np.sqrt(2.0 * special.gammaincinv(0.5 * self.dim, p))


_RADIAL = {"uniform-ball": _UniformBall, "gaussian": _RadialGaussian}


def make_radial_measure(family, dim, *params):
    """Radial catalog: 'uniform-ball' (optional radius) or 'gaussian' (optional scale)."""
    if family not in _RADIAL:
        raise ValueError(
            f"unknown radial family {family!r}; choose from {tuple(sorted(_RADIAL))}"
        )
    return _RADIAL[family](dim, *[float(p) for p in params])


class _Regularized1D(LogConcaveMeasure1D):
    """Convolve with a narrow Gaussian, damp by a wide one, renormalize.

    With convolution variance sig2 and damping variance damp2, every
    moment of the smoothed density is an integral against the tilted
    weight w(y) = exp(-V(y)) * N(t - y; sig2); the potential derivatives
    come from the first two tilted moments:

        V_N'(t)  = (t - E_t[Y]) / sig2 + t / damp2
        V_N''(t) = 1/sig2 - Var_t[Y] / sig2**2 + 1/damp2

    Because the base potential is convex, the tilted variance never
    exceeds sig2, so the second line is bounded below by 1/damp2.

    The three potential oracles evaluate the tilted mass and moments of
    all distinct points of a call together: one bisection finds every tilt
    mode, and the fixed rule of ``_tilted_moments`` integrates around it.
    ``cdf`` and ``pdf`` sum over the node table of ``_build_node_table``,
    each point over its own window of nodes, sorted in y: outside it every
    ``cdf`` term is exactly 0 or exactly its full weight, which exact head
    and tail sums of the weights supply, and every ``pdf`` term is exactly
    0.  So a point costs a few hundred terms, not the whole table, and
    the sums differ from full ones only in their order.  That CDF has no
    inverse, so ``quantile`` starts from the CDF table of the base class,
    built once, at construction, around the gaussian fit of
    ``_location_scale``.
    """

    has_d2 = True
    # each cdf or pdf point still sums a window of some hundred nodes, so
    # the quantile table stops where the uniform draws do, and beyond it
    # the tail start brackets
    _table_z_low = _TABLE_Z_TAIL

    def __init__(self, base, n):
        super().__init__((-np.inf, np.inf))
        self.base = base
        self.n_level = int(n)
        self.sig2 = 1.0 / float(n) ** 2
        self.damp2 = float(n)
        self.sig = math.sqrt(self.sig2)
        self.name = f"regularized({base.name}, N={n})"
        # completed-square pieces for the CDF:
        #   N(t - y; sig2) * exp(-t^2 / (2 damp2))
        #     = amp(y) * N(t - shrink * y; tau2)
        self._tau2 = self.sig2 * self.damp2 / (self.sig2 + self.damp2)
        self._tau = math.sqrt(self._tau2)
        self._shrink = self.damp2 / (self.sig2 + self.damp2)
        self._c2 = self.sig2 + self.damp2
        a, b = base.support
        lo = base.quantile(1e-15) if not np.isfinite(a) else a
        hi = base.quantile(1.0 - 1e-15) if not np.isfinite(b) else b
        self._ylo, self._yhi = float(lo), float(hi)
        self._y_cuts = tuple(
            k for k in base._kink_points if self._ylo < k < self._yhi
        )
        self._log_z = self._log_weight_integral()
        m1 = self._weight_moment(1)
        m2 = self._weight_moment(2)
        mean = self._shrink * m1
        var = self._shrink**2 * (m2 - m1**2) + self._tau2
        self._approx_mean, self._approx_std = mean, math.sqrt(var)
        self._build_node_table()
        self._build_quantile_table()
        self._validate()

    def _validation_grid(self):
        # an even 41-point grid over the bulk: each potential_d2 point costs a
        # tilted-moment rule, so the base path's table nodes would cost more
        return self._approx_mean + self._approx_std * np.linspace(-8.0, 8.0, 41)

    # -- weight w(y) = exp(-V(y) - y^2 / (2 c2)) * tau / sig ---------------
    def _log_weight(self, y):
        return (
            -self.base.potential(y)
            - 0.5 * y**2 / self._c2
            + math.log(self._tau / self.sig)
        )

    def _log_weight_integral(self):
        peak = max(np.max(self._log_weight(np.linspace(self._ylo, self._yhi, 201))), -700.0)
        val = _integrate(
            lambda y: np.exp(self._log_weight(y) - peak),
            self._ylo,
            self._yhi,
            kinks=self._y_cuts,
        )
        return peak + math.log(val)

    def _weight_moment(self, k):
        peak = self._log_z
        return _integrate(
            lambda y: y**k * np.exp(self._log_weight(y) - peak),
            self._ylo,
            self._yhi,
            kinks=self._y_cuts,
        )

    # -- shared node table for the batched cdf/pdf paths -------------------
    def _build_node_table(self):
        """Panel Gauss-Legendre nodes in y, reused by every cdf/pdf call.

        The integrand varies on the smaller of two scales: the kernel's,
        sig, and the base's own (``_location_scale``), so panels 2.5 times
        that wide with 16 nodes each integrate both the CDF kernel and the
        density kernel far below the 1e-8 normalization budget.  The table is split at
        the base's interior kinks, and its panels are graded toward every
        point where the base density is not analytic (``_kink_points``),
        such as the factor y**(s - 1) of a gamma base with non-integer
        shape s.  On an infinite side the table ends at the base's 1e-15
        quantile, which drops less than 1e-15 of the mass.  The potential
        oracles share the panel rule, not the table.
        """
        edges = np.unique(
            np.concatenate(
                [np.array([self._ylo, self._yhi]), np.asarray(self._y_cuts, float)]
            )
        )
        width = 2.5 * min(self.sig, self.base._location_scale()[1])
        ys, qs = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            panels = min(6000, max(1, int(math.ceil((b - a) / width))))
            y, q = _panel_rule(
                a, b, panels, a in self.base._kink_points, b in self.base._kink_points
            )
            ys.append(y)
            qs.append(q)
        self._node_y = np.concatenate(ys)
        self._node_q = np.concatenate(qs)
        self._node_cdf_w = np.exp(self._log_weight(self._node_y) - self._log_z) * self._node_q
        # cdf: ndtr((t - y')/tau) at the shrunk nodes y' = shrink y is
        # exactly 1.0 up to _NDTR_ONE tau below t, and exactly 0 from
        # _NDTR_ZERO tau above it; the window holds the most nodes any
        # stretch of that length holds, and the nodes on the 1.0 side add
        # their weights from exact head and tail sums
        self._node_sy = self._shrink * self._node_y
        self._node_head = _exact_cumsum(self._node_cdf_w)
        self._node_tail = _exact_cumsum(self._node_cdf_w[::-1])[::-1]
        self._cdf_window = _window_size(
            self._node_sy, (_NDTR_ONE - _NDTR_ZERO) * self._tau
        )
        self._cdf_rows = _window_rows([self._node_sy, self._node_cdf_w], self._cdf_window)
        # pdf: a term exp(z - peak) is exactly 0 below _EXP_ZERO.  The
        # nearest node, d_near away, bounds the peak from below, so z - peak
        # is below it beyond sqrt(d_near^2 + 2 sig2 (spread - _EXP_ZERO)),
        # spread being the range of z's node part; inside the table d_near
        # is at most half the widest gap, and outside it the window is the
        # one at the nearer end
        with np.errstate(divide="ignore"):
            log_q = np.log(self._node_q)
        self._node_logterm = -np.atleast_1d(self.base.potential(self._node_y)) + log_q
        spread = np.ptp(self._node_logterm)
        gap = np.max(np.diff(self._node_y), initial=0.0)
        self._pdf_reach = math.sqrt(0.25 * gap**2 + 2.0 * self.sig2 * (spread - _EXP_ZERO))
        self._pdf_window = _window_size(self._node_y, 2.0 * self._pdf_reach)
        self._pdf_rows = _window_rows([self._node_y, self._node_logterm], self._pdf_window)

    # -- tilted Gaussian moments around a point t --------------------------
    def _tilt_modes(self, t):
        """Mode of g(y) = V(y) + (t - y)^2 / (2 sig2) at every point of 1D ``t``.

        One bisection on the increasing g' serves every point, within
        t +- (60 sig + 1) on the support; each row stops on its own, so its
        mode does not depend on which other points share the call.  The
        mode is kept inside the open support, where V is finite.
        """
        base, sig2 = self.base, self.sig2
        a, b = base.support
        lo = np.maximum(a, t - 60.0 * self.sig - 1.0)
        hi = np.minimum(b, t + 60.0 * self.sig + 1.0)
        empty = lo >= hi
        lo[empty], hi[empty] = self._ylo, self._yhi
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                live = (hi - lo > 1e-14 * self.sig) & (mid != lo) & (mid != hi)
                if not np.any(live):
                    break
                up = base.potential_d1(mid) + (mid - t) / sig2 > 0.0
                hi = np.where(live & up, mid, hi)
                lo = np.where(live & ~up, mid, lo)
        return np.clip(0.5 * (lo + hi), np.nextafter(a, b), np.nextafter(b, a))

    def _tilted_moments(self, t, mode):
        """(log mass, mean, variance) of exp(-V(y)) N(t - y; sig2) dy.

        ``t`` is a 1D block of points and ``mode`` their ``_tilt_modes``.
        The moments come from the window of +-12 sig around the mode, cut
        short at a finite support edge, and pulled in from either side to
        twice the distance at which g has risen at most 120 above its
        value at the mode.  The window is split at the mode and at the
        base's kinks, and each piece gets ``_TILT_PANELS`` equal panels,
        graded at both ends when the base density has points where it is
        not analytic.  The integrand is shifted by its largest value at the
        nodes, so a mode on a support edge, where V is infinite, does no
        harm.
        """
        base, sig2 = self.base, self.sig2
        a, b = base.support

        def g(y):
            return base.potential(y) + 0.5 * (t[:, None] - y) ** 2 / sig2

        g_mode = g(mode[:, None])[:, 0]

        # boundary layer: halve the distance d to each window end, at most
        # 20 times, until g at mode + d has risen at most 120; keep 2 d
        rows = np.arange(t.size)
        span = 12.0 * self.sig
        ends = []
        for end in (np.maximum(a, mode - span), np.minimum(b, mode + span)):
            d = (end - mode)[:, None] * 0.5 ** np.arange(21)
            with np.errstate(invalid="ignore"):
                low = g(mode[:, None] + d[:, :20]) - g_mode[:, None] <= 120.0
            k = np.argmax(np.column_stack([low, np.ones(t.size, bool)]), axis=1)
            step = np.where(k > 0, 2.0 * d[rows, k], d[:, 0])
            ends.append(mode + step)
        qlo, qhi = ends
        cuts = [np.clip(k, qlo, qhi) for k in self._y_cuts]
        breaks = np.sort(np.column_stack([qlo, mode, qhi] + cuts), axis=1)
        grade = bool(self.base._kink_points)
        y, q = _panel_rule(breaks[:, :-1], breaks[:, 1:], _TILT_PANELS, grade, grade)
        y, q = y.reshape(t.size, -1), q.reshape(t.size, -1)

        with np.errstate(invalid="ignore"):
            log_f = -g(y)
        shift = np.max(log_f, axis=1)
        f = q * np.exp(log_f - shift[:, None])
        i0 = np.sum(f, axis=1)
        dy = y - mode[:, None]
        offset = np.sum(f * dy, axis=1) / i0
        var = np.sum(f * (dy - offset[:, None]) ** 2, axis=1) / i0
        log_mass = shift + np.log(i0) - 0.5 * math.log(2.0 * math.pi * sig2)
        return log_mass, mode + offset, var

    def _pointwise(self, x):
        """Tilted (log mass, mean, variance) at every point of ``x``.

        Each distinct value is evaluated once: one bisection finds every
        tilt mode, and the moment rule runs ``_TILT_BLOCK`` points at a
        time; the three arrays have the shape of ``x``.
        """
        x = np.asarray(x, dtype=float)
        t, inverse = np.unique(x.ravel(), return_inverse=True)
        mode = self._tilt_modes(t)
        out = np.empty((3, t.size))
        for lo in range(0, t.size, _TILT_BLOCK):
            hi = lo + _TILT_BLOCK
            out[:, lo:hi] = self._tilted_moments(t[lo:hi], mode[lo:hi])
        return tuple(v[inverse].reshape(x.shape) for v in out)

    @staticmethod
    def _like(x, v):
        return float(v) if np.ndim(x) == 0 else v

    def potential(self, x):
        t = np.asarray(x, dtype=float)
        log_mass, _, _ = self._pointwise(t)
        return self._like(x, 0.5 * t**2 / self.damp2 - log_mass + self._log_z)

    def potential_d1(self, x):
        t = np.asarray(x, dtype=float)
        _, mean, _ = self._pointwise(t)
        return self._like(x, (t - mean) / self.sig2 + t / self.damp2)

    def potential_d2(self, x):
        _, _, var = self._pointwise(x)
        return self._like(x, 1.0 / self.sig2 - var / self.sig2**2 + 1.0 / self.damp2)

    def _cdf_starts(self, t):
        """First node of each point's ``cdf`` window, and which points sum
        their upper tail.  Below the window (above it, for an upper tail)
        every term is its full weight, and beyond its other end every term
        is 0."""
        sy, width = self._node_sy, self._cdf_window
        upper = t > self._approx_mean
        first = np.searchsorted(sy, t - _NDTR_ONE * self._tau)
        last = np.searchsorted(sy, t + _NDTR_ONE * self._tau, side="right")
        start = np.where(
            upper, np.maximum(last, width) - width, np.minimum(first, sy.size - width)
        )
        return start, upper

    def _pdf_starts(self, t):
        """First node of each point's ``pdf`` window; every term outside it is 0."""
        y = self._node_y
        return np.minimum(np.searchsorted(y, t - self._pdf_reach), y.size - self._pdf_window)

    def cdf(self, x):
        """Node-table CDF, summed over each point's window of nodes; above
        the approximate mean, 1 minus the upper tail, so that values near 1
        carry no summation roundoff."""
        x_in = np.asarray(x, dtype=float)
        t = np.atleast_1d(x_in).astype(float).ravel()
        width = self._cdf_window
        start, upper = self._cdf_starts(t)
        full = np.where(upper, self._node_tail[start + width], self._node_head[start])
        # dividing by -tau negates z exactly
        tau = np.where(upper, -self._tau, self._tau)[:, None]

        def block(lo, hi):
            sy, w = self._cdf_rows[:, start[lo:hi]]
            z = (t[lo:hi, None] - sy) / tau[lo:hi]
            return full[lo:hi] + np.sum(special.ndtr(z) * w, axis=1)

        tail = _by_blocks(t.size, width, block)
        out = np.clip(np.where(upper, 1.0 - tail, tail), 0.0, 1.0)
        return float(out[0]) if x_in.ndim == 0 else out.reshape(np.shape(x_in))

    def pdf(self, x):
        """Node-table density, summed over each point's window of nodes."""
        x_in = np.asarray(x, dtype=float)
        t = np.atleast_1d(x_in).astype(float).ravel()
        width = self._pdf_window
        start = self._pdf_starts(t)
        shift = self._log_z + 0.5 * math.log(2.0 * math.pi * self.sig2)

        def block(lo, hi):
            y, logterm = self._pdf_rows[:, start[lo:hi]]
            z = logterm - 0.5 * ((t[lo:hi, None] - y) / self.sig) ** 2
            peak = np.max(z, axis=1, keepdims=True)
            log_conv = peak[:, 0] + np.log(np.sum(np.exp(z - peak), axis=1))
            return np.exp(log_conv - 0.5 * t[lo:hi] ** 2 / self.damp2 - shift)

        out = _by_blocks(t.size, width, block)
        return float(out[0]) if x_in.ndim == 0 else out.reshape(np.shape(x_in))

    def _total_mass(self):
        """Integral of ``pdf`` on one fixed panel rule: one ``pdf`` call.

        The rule spans the node table widened by 12 sig on each side.  The
        density turns over within a few sig of each finite support edge
        and kink of the base, and elsewhere varies on the scale of its
        deviation.  So the panels are at most 2.5 approximate deviations
        wide, and next to each such point they are cut again into panels
        2.5 sig wide that double in width away from it.
        """
        a, b = self.base.support
        turns = [y for y, end in ((self._ylo, a), (self._yhi, b)) if np.isfinite(end)]
        turns = np.array(turns + list(self._y_cuts))
        wide = 2.5 * self._approx_std
        steps = 2.5 * self.sig * 2.0 ** np.arange(
            max(0, math.ceil(math.log2(wide / (2.5 * self.sig))))
        )
        near = turns[:, None] + np.concatenate([[0.0], -steps, steps])
        lo, hi = self._ylo - 12.0 * self.sig, self._yhi + 12.0 * self.sig
        grid = np.linspace(lo, hi, math.ceil((hi - lo) / wide) + 1)
        breaks = np.unique(
            np.clip(np.concatenate([grid, [self._ylo, self._yhi], near.ravel()]), lo, hi)
        )
        y, q = _panel_rule(breaks[:-1], breaks[1:], 1, False, False)
        return float(self.pdf(y.ravel()) @ q.ravel())

    def _location_scale(self):
        return self._approx_mean, self._approx_std


def regularize(m, n):
    """Smooth a 1D log-concave measure at sharpness level N.

    Returns the measure with density proportional to
    ``(exp(-V) convolved with N(0, 1/N^2)) * N(0, N)``, renormalized.
    The output lives on all of the real line, has a smooth potential with
    curvature at least 1/N, and converges back to the input locally
    uniformly as N grows.
    """
    if not isinstance(m, LogConcaveMeasure1D):
        raise TypeError("regularize expects a 1D log-concave measure")
    n = int(n)
    if n < 1:
        raise ValueError(f"regularization level must be >= 1, got {n}")
    return _Regularized1D(m, n)
