"""Entropic transport on 2D grids.

Discretizes a planar log-concave measure on a rectangular lattice,
solves the entropically regularized transport problem with over-relaxed
Sinkhorn iterations under the quadratic cost |x - y|^2 / 2, and exposes the
map E[Y | x] with its exact Jacobian Cov[Y | x] / eps (Pooladian and
Niles-Weed 2021; Chewi and Pooladian 2022).  This is the only part of the
library that produces Hessian fields with no product or radial structure;
everything it feeds into the experiment layer is tagged approximate.

The grid is rectangular, so the cost kernel factorizes along axes and
every log-sum-exp over the plane is two one-dimensional stages of the form
log sum_i exp(lead[i, p] + tail[i, q]).  The weights of a discretized
Gaussian span hundreds of orders of magnitude, so the potentials stay in
the log domain throughout; only the inner sums run in the linear domain.

Fast path.  A stage shifts every column of ``lead`` and of ``tail`` by
its maximum, so each factor exp(lead - max) is at most 1, and forms
S = A^T B with one matrix product (the separable Gaussian kernel of
Solomon et al. 2015, "Convolutional Wasserstein Distances"); the result
is log S plus the two shifts.  The axis factors dx / eps and dy / eps of
both half updates do not change within an epsilon stage, so
``sinkhorn_solve`` builds their shifted exponentials (``_Factor``) once
per epsilon stage; each log-sum-exp stage builds only the factor of the
potential, four ``exp`` passes over (n, n) arrays per iteration.
``_moments`` does the same with three factors: the row-shifted plan
weights on the target grid and the two axis kernels of each point,
giving both weight marginals of a point from two matrix products.

Exactness.  The shifted exponents are clamped at -700 before ``exp``,
and every factor is lifted by e^346 (added to the exponent), so each
product of two factors lies in [e^-708, e^692]: a normal double, never a
subnormal one.  Both matter for speed: BLAS runs two orders of magnitude
slower on subnormal products, and numpy's ``exp`` one to two orders of
magnitude slower on arguments between -708 and -745.  A clamped factor stands for
a true one below e^-700, so every term that holds one is off by less
than e^-700 < 2**-1009, and a sum of at most 2**18 terms (a 512 x 512
map; a stage sums at most 512) by less than 2**-991.  Wherever the sum S
is at least ``_FLOOR`` = 2**-900, that is a relative change below 2**-91,
far below one ulp, so the fast result agrees with the log-domain one to
rounding.  The moments' last step multiplies the marginals, lifted by
e^692, by the unlifted third factor; what underflows there is below
2**-1022 against a lifted total of at least 2**-900 e^692.  A third
product gives the cross moment with the same lifts; its terms carry node
offsets from the mean, at most D_x and D_y in size, so its clamped part
is below 2**-91 D_x D_y of the total.

Fallback.  Where a sum falls below the floor (at small epsilon, when the
peaks of ``lead`` and ``tail`` lie far apart) the fast value is not
used.  A Sinkhorn stage recomputes every output row holding such an
entry, whole, with the blocked log-domain kernel ``_logsumexp_outer_exact``,
from the raw columns of the factors it needs; ``_moments`` sums each
such point's max-shifted block of log weights along both axes
(``_map_exact``), one ``exp`` per weight.  Rows and columns whose terms
are all -inf (zero-weight nodes) are set to -inf directly and never fall
back: their sums are zero, not small.

Memory is bounded at any grid the config accepts (up to 512 nodes per
axis).  A Sinkhorn solve keeps the four stage factors and their axis
distances, and a fast stage holds a few more (n, n) arrays, 2 MiB each
at grid 512.  The exact kernels work through one preallocated block of
2**17 float64 (1 MiB), or of one (n, n) slice where that is larger,
instead of materializing (n, n, n) or (points, n, n) tensors.
``_moments`` takes ``_BLOCK // (16 n)`` points at a time, so that
all temporaries of a chunk together fit in ``_BLOCK`` elements.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import GaussianMeasure, ProductMeasure, RadialMeasure

__all__ = [
    "GridMeasure",
    "EntropicPlan",
    "discretize",
    "sinkhorn_solve",
    "default_eps_schedule",
    "entropic_map",
    "entropic_jacobian",
    "extrapolated",
]

_COVERAGE = 1.0 - 1e-6
# float64 elements in one kernel block (1 MiB): small enough to stay in
# a per-core L2 cache, which measured faster than 2**18 or 2**20
_BLOCK = 1 << 17
# exponents are clamped here after the max-shift; see the module docstring
_EXP_FLOOR = -700.0
# fast-path factors are lifted by e^_LIFT, so a product of two is normal
# and a sum of 2**18 such products stays below e^705, short of overflow
_LIFT = 346.0
_UNLIFT = math.exp(-2.0 * _LIFT)
# a fast-path sum at or above this is exact to rounding
_FLOOR = 2.0**-900


@dataclass(frozen=True)
class GridMeasure:
    """Probability weights on a rectangular lattice of nx * ny nodes."""

    xs: np.ndarray  # (nx,) node abscissae
    ys: np.ndarray  # (ny,) node ordinates
    weights: np.ndarray  # (nx, ny), nonnegative, sums to 1
    box: tuple  # ((x0, x1), (y0, y1))

    def __post_init__(self):
        if self.xs.size < 2 or self.ys.size < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if np.any(self.weights < 0):
            raise ValueError("grid weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"grid weights sum to {total!r}, expected 1")

    @property
    def shape(self):
        return (self.xs.size, self.ys.size)

    @property
    def spacing(self):
        return (
            float(self.xs[1] - self.xs[0]),
            float(self.ys[1] - self.ys[0]),
        )

    def nodes(self):
        """All node coordinates as an (nx*ny, 2) array, x-major."""
        gx, gy = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def contains(self, x):
        """Whether each point of shape (..., 2) lies in the closed box."""
        (x0, x1), (y0, y1) = self.box
        return (x[..., 0] >= x0) & (x[..., 0] <= x1) & (x[..., 1] >= y0) & (x[..., 1] <= y1)


@dataclass
class EntropicPlan:
    """Converged dual potentials plus the iteration trail that led there.

    The plan itself is the implicit coupling
    pi[ij, pq] = mu[ij] nu[pq] exp((f[ij] + g[pq] - C) / eps); only the
    potentials are stored.  ``history`` has one row per Sinkhorn
    iteration, (eps, iteration within the stage, target-marginal error,
    dual objective), measured after the iteration's f-update.  From the
    third row of a stage on, an iteration is over-relaxed when the stage's
    measured rate gave omega > 1 (see ``sinkhorn_solve``); the last row is
    always a plain iteration, and its error is ``marginal_error``.

    ``coarse`` is the plan of the ladder's second-to-last stage (2 eps on
    the default ladder) with an empty ``history``, or None for a one-stage
    ladder.  The map and its Jacobian carry a smoothing bias of first
    order in eps, which their Richardson values cancel (``extrapolated``).
    """

    source: GridMeasure
    target: GridMeasure
    f: np.ndarray
    g: np.ndarray
    eps: float
    marginal_error: float
    history: list = field(default_factory=list)
    coarse: "EntropicPlan | None" = None


def _box_mass(m, box):
    """Mass the measure assigns to the box (lower bound for radial)."""
    if isinstance(m, (GaussianMeasure, ProductMeasure)):
        return float(m.box_mass(box))
    if isinstance(m, RadialMeasure):
        # inscribed-disk bound; exact only when the support fits the box
        (x0, x1), (y0, y1) = box
        r_in = min(x1, -x0, y1, -y0)
        if r_in <= 0:
            return 0.0
        return float(m.radial_cdf(r_in))
    raise TypeError(f"cannot compute box coverage for {type(m).__name__}")


def discretize(m, box, nx, ny):
    """Sample a planar measure's density on a regular grid in the box.

    The box must capture all but 1e-6 of the mass; weights are the node
    densities renormalized to sum to one.
    """
    (x0, x1), (y0, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must have positive extent on both axes")
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2 nodes per axis")
    if getattr(m, "dim", None) != 2:
        raise ValueError("entropic grids are two-dimensional")
    mass = _box_mass(m, box)
    if mass < _COVERAGE:
        raise ValueError(
            f"box covers only {mass:.9f} of the mass; "
            f"need at least {_COVERAGE:.7f}"
        )
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    with np.errstate(over="ignore"):
        logw = -np.asarray(m.potential(pts), dtype=float).reshape(nx, ny)
    logw -= logw.max()
    w = np.exp(logw)
    return GridMeasure(xs=xs, ys=ys, weights=w / w.sum(), box=box)


def default_eps_schedule(mu, nu):
    """Geometric epsilon ladder from the box scale down to grid resolution.

    Descending: floor, 2 floor, 8 floor, 32 floor, ..., up to the first
    value at or above a tenth of the squared joint box diagonal.  It ends
    at exactly 2 eps then eps for the Richardson values of
    ``extrapolated``; above that each step quarters epsilon, since
    ``sinkhorn_solve`` spends the first two iterations of every stage
    measuring its contraction rate: an intermediate stage warm-started
    from 4 eps meets its 1e-4 tolerance in at most 11 iterations on the
    ``sinkhorn2d`` parts at grids 64 to 128.  The floor
    is 1.2 times the squared coarsest grid spacing: the barycentric map
    needs the softmax kernel width sqrt(eps) to stay near the lattice
    spacing, and pushing the floor to a fixed fraction of diam^2 leaves a
    smoothing bias of order eps/2 times the inverse covariance, which is
    several times too large for tight oracle agreement on mass-complete
    boxes.
    """
    corners = []
    for g in (mu, nu):
        (x0, x1), (y0, y1) = g.box
        corners.extend([(x0, y0), (x1, y1)])
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    diam2 = (max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2
    h = max(max(mu.spacing), max(nu.spacing))
    floor = 1.2 * h * h
    out = [floor, 2.0 * floor]
    while out[-1] < 0.1 * diam2:
        out.append(4.0 * out[-1])
    return out[::-1]


def _log_weights(g):
    with np.errstate(divide="ignore"):
        return np.log(g.weights)


def _top(x, axis):
    """Maxima of x along ``axis`` (kept), and where they are -inf.

    Those maxima are set to 0, so shifting by them yields -inf, not NaN.
    """
    top = x.max(axis=axis, keepdims=True)
    dead = np.isneginf(top)
    top[dead] = 0.0
    return top, dead


def _lifted_exp(x, top):
    """exp(max(x - top, _EXP_FLOOR) + _LIFT), as a new array."""
    out = np.subtract(x, top)
    np.maximum(out, _EXP_FLOOR, out=out)
    out += _LIFT
    return np.exp(out, out=out)


class _Factor:
    """One factor x = num / den of ``_logsumexp_outer``, column-shifted.

    ``lifted`` is ``_lifted_exp(x, top)``, with ``top`` the column maxima
    of x (kept axis, 0 where a column is all -inf) and ``dead`` the mask
    of those all -inf columns, or None when there is none.  Of x itself
    only ``num`` is kept: ``columns`` recomputes the columns the exact
    fallback needs, so a factor built from a constant numerator holds one
    (n, n) array of its own.  ``den`` None means x is ``num``.
    """

    def __init__(self, num, den=None):
        self.num, self.den = num, den
        x = num if den is None else num / den
        self.top, dead = _top(x, 0)
        self.dead = dead[0] if dead.any() else None
        self.lifted = _lifted_exp(x, self.top)

    def columns(self, cols):
        """The columns ``x[:, cols]``, recomputed from ``num``."""
        x = self.num[:, cols]
        return x if self.den is None else x / self.den


def _logsumexp_outer(lead, tail):
    """log sum_i exp(lead[i, p] + tail[i, q]) as a (p, q) array.

    ``lead`` and ``tail`` are ``_Factor``s.  One matrix product of their
    lifted exponentials.  An output row with an entry below ``_FLOOR`` is
    recomputed whole by ``_logsumexp_outer_exact``.  An entry whose lead
    column or tail column is all -inf (zero-weight nodes) is -inf.
    """
    s = lead.lifted.T @ tail.lifted
    s *= _UNLIFT
    low = s < _FLOOR
    with np.errstate(divide="ignore"):
        out = np.log(s, out=s)
    out += lead.top.T
    out += tail.top
    if lead.dead is not None:
        out[lead.dead] = -np.inf
        low[lead.dead] = False
    if tail.dead is not None:
        out[:, tail.dead] = -np.inf
        low[:, tail.dead] = False
    rows = np.flatnonzero(low.any(axis=1))
    if rows.size:
        out[rows] = _logsumexp_outer_exact(lead.columns(rows), tail.columns(slice(None)))
    return out


def _logsumexp_outer_exact(lead, tail):
    """log sum_i exp(lead[i, p] + tail[i, q]) in the log domain.

    Works through the p axis in blocks of ``_BLOCK`` elements (at least
    one p row), each filled, max-shifted per (p, q), floored at
    ``_EXP_FLOOR``, exponentiated and summed in place.  The floor is exact
    here: a floored term is below 1e-304 and each shifted sum is at least
    1, so even the 2**18 terms of a 512 x 512 slice move it by less than
    1e-298.  A slice whose terms are all -inf yields -inf.
    """
    n, p = lead.shape
    q = tail.shape[1]
    rows = max(1, _BLOCK // (n * q))
    buf = np.empty((n, min(rows, p), q))
    out = np.empty((p, q))
    for lo in range(0, p, rows):
        hi = min(lo + rows, p)
        blk = buf[:, : hi - lo]
        np.add(lead[:, lo:hi, None], tail[:, None, :], out=blk)
        top = blk.max(axis=0)
        dead = np.isneginf(top)
        top[dead] = 0.0
        blk -= top
        np.maximum(blk, _EXP_FLOOR, out=blk)
        np.exp(blk, out=blk)
        res = out[lo:hi]
        np.log(blk.sum(axis=0), out=res)
        res += top
        res[dead] = -np.inf
    return out


def _half_update(kx, ky, pot_plus_logw, eps):
    """One side of the Sinkhorn step, factorized along grid axes.

    kx, ky : the stage factors of dx / eps and dy / eps, with dx, dy of
    shape (n_from_x, n_to_x), (n_from_y, n_to_y) the negated squared
    half-distances between axis nodes.  pot_plus_logw lives on the "from"
    grid; the result is the logsumexp over it, on the "to" grid.
    """
    # stage 1 collapses the x axis of the from grid, stage 2 the y axis
    a = _logsumexp_outer(kx, _Factor(pot_plus_logw / eps))
    return _logsumexp_outer(_Factor(a.T), ky)


def _overrelaxation(err1, err2):
    """The factor 2 / (1 + sqrt(1 - rho)) for the measured rate rho = err2 / err1.

    This is the optimal successive over-relaxation factor for a plain
    iteration contracting by rho (references in ``sinkhorn_solve``).  It
    is 1 when the error did not fall or err1 is 0, and below 2 whenever
    rho < 1.
    """
    if not 0.0 <= err2 < err1:
        return 1.0
    return 2.0 / (1.0 + math.sqrt(1.0 - err2 / err1))


def _relaxed(old, new, omega):
    """``old + omega (new - old)``, or ``new`` itself when omega is 1."""
    return new if omega == 1.0 else old + omega * (new - old)


def sinkhorn_solve(mu, nu, eps_schedule, max_iter=2000, tol=1e-8):
    """Over-relaxed log-domain Sinkhorn with epsilon-scaling warm starts.

    Each ladder stage reuses the previous stage's potentials.  An
    iteration updates f, measures the target-marginal error, then updates
    g.  The first two iterations of a stage are plain alternating updates;
    their errors give the stage's contraction rate rho = err2 / err1, and
    every later update over-relaxes both potentials,
    f <- f + omega (f_hat - f) and g <- g + omega (g_hat - g), with
    omega = 2 / (1 + sqrt(1 - rho)) (Thibault, Chizat, Dossal and
    Papadakis 2017, "Overrelaxed Sinkhorn-Knopp algorithm for regularized
    optimal transport"; Lehmann, von Renesse, Sambale and Uschmajew 2021,
    "A note on overrelaxation in the Sinkhorn algorithm").  omega is 1
    when the error did not fall, and always below 2.

    The last two stages run to ``tol``: the second-to-last (2 eps on the
    default ladder) is kept as the plan's ``coarse`` plan, whose error
    would otherwise enter the Richardson values of ``extrapolated``.  A
    relaxed f does not fit the source marginal, so each of them ends on a
    plain update: once a relaxed iteration meets ``tol``, the stage
    continues plain until a plain iteration meets it too.  Its f is then
    the exact log-domain update against its g, so the source marginal
    holds to rounding and the target marginal to ``tol`` in sup norm.
    Earlier stages stop at max(tol, 1e-4), relaxed or not.  ``tol`` must
    be > 0 and ``max_iter`` at least 1; either of the last two stages
    raises if it does not converge in ``max_iter`` iterations.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("empty epsilon schedule")
    if eps_schedule[-1] <= 0:
        raise ValueError("final epsilon must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    # a NaN tolerance fails every comparison, so it is refused as not > 0
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")

    log_mu = _log_weights(mu)
    log_nu = _log_weights(nu)
    # negated squared half-distances between axis node sets; rows index
    # the grid being summed over, columns the grid being updated
    dx_for_f = -0.5 * (nu.xs[:, None] - mu.xs[None, :]) ** 2  # (nx_t, nx_s)
    dy_for_f = -0.5 * (nu.ys[:, None] - mu.ys[None, :]) ** 2
    dx_for_g = dx_for_f.T.copy()
    dy_for_g = dy_for_f.T.copy()

    f = np.zeros(mu.shape)
    g = np.zeros(nu.shape)
    history = []
    coarse = None
    err = math.inf
    for stage, eps in enumerate(eps_schedule):
        final = stage >= len(eps_schedule) - 2
        stage_tol = tol if final else max(tol, 1e-4)
        # the axis factors are constant within a stage: built once per eps
        kx_f, ky_f, kx_g, ky_g = (
            _Factor(d, eps) for d in (dx_for_f, dy_for_f, dx_for_g, dy_for_g)
        )
        omega = 1.0
        for it in range(max_iter):
            f = _relaxed(f, -eps * _half_update(kx_f, ky_f, g + eps * log_nu, eps), omega)
            b = _half_update(kx_g, ky_g, f + eps * log_mu, eps)
            col = np.exp(np.clip((g + eps * b) / eps, -745.0, 50.0)) * nu.weights
            err = float(np.max(np.abs(col - nu.weights)))
            objective = (
                float(np.sum(f * mu.weights))
                + float(np.sum(g * nu.weights))
                - eps * (float(col.sum()) - 1.0)
            )
            history.append((eps, it, err, objective))
            if err <= stage_tol:
                if omega == 1.0 or not final:
                    break
                # the kept f must come from a plain update
                omega = 1.0
            g = _relaxed(g, -eps * b, omega)
            if it == 1:
                omega = _overrelaxation(history[-2][2], err)
        else:
            if final:
                raise ArithmeticError(
                    f"sinkhorn did not converge: marginal error {err:.3e} "
                    f"after {max_iter} iterations at eps={eps:.3e} "
                    f"(tolerance {tol:.1e})"
                )
        if stage == len(eps_schedule) - 2:
            coarse = EntropicPlan(source=mu, target=nu, f=f, g=g, eps=eps, marginal_error=err)
    return EntropicPlan(
        source=mu,
        target=nu,
        f=f,
        g=g,
        eps=eps_schedule[-1],
        marginal_error=err,
        history=history,
        coarse=coarse,
    )


def _moments(plan, x):
    """Means (..., 2) and covariances (..., 2, 2) of the plan's conditional at x.

    Refuses points outside the source box, where the conditional is pure
    extrapolation.  The conditional's log weights over the target nodes
    are g / eps + log nu - |x - y|^2 / (2 eps); they factor as
    A[p] * E[p, q] * B[q], with E the row-shifted plan weights and A, B
    the axis kernels of the point, so the two weight marginals are
    A * (B @ E^T) and B * (A @ E), and the cross moment sums
    (A dx) * ((B dy) @ E^T) for the centred nodes dx, dy.  A point whose
    total weight falls below ``_FLOOR`` takes its moments from one
    max-shifted block of its log weights instead (``_map_exact``).
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 2)
    ok = plan.source.contains(pts)
    if not np.all(ok):
        bad = pts[~ok][0]
        raise ValueError(f"point {bad} lies outside the source box")
    nu = plan.target
    base = plan.g / plan.eps + _log_weights(nu)
    top, dead = _top(base, 1)
    ker = _lifted_exp(base, top)  # (nx_t, ny_t)
    # a zero-weight row must not carry the x factor's maximum
    row_top = np.where(dead, -np.inf, top)[:, 0]
    # about twelve (points, n) temporaries live at once; 16 leaves room
    step = max(1, _BLOCK // (16 * max(base.shape)))
    mean = np.empty_like(pts)
    cov = np.empty((pts.shape[0], 2, 2))
    for lo in range(0, pts.shape[0], step):
        chunk = pts[lo : lo + step]
        ax = -0.5 * (chunk[:, 0:1] - nu.xs[None, :]) ** 2 / plan.eps  # (k, nx_t)
        ay = -0.5 * (chunk[:, 1:2] - nu.ys[None, :]) ** 2 / plan.eps  # (k, ny_t)
        ax_top = ax + row_top
        a = _lifted_exp(ax_top, ax_top.max(axis=1, keepdims=True))
        b = _lifted_exp(ay, ay.max(axis=1, keepdims=True))
        wx = b @ ker.T
        wy = a @ ker
        # drop one lift from each axis factor: the marginals keep e^(2 _LIFT)
        a *= math.exp(-_LIFT)
        wx *= a
        wy *= b * math.exp(-_LIFT)
        # b stays lifted in the cross product, so that no product in it is subnormal
        mean[lo : lo + step], cov[lo : lo + step], total = _conditional_moments(
            wx, wy, nu.xs, nu.ys, lambda dx, dy: np.einsum("kp,kp->k", a * dx, (b * dy) @ ker.T)
        )
        slow = np.flatnonzero(total * _UNLIFT < _FLOOR)
        if slow.size:
            mean[lo + slow], cov[lo + slow] = _map_exact(ax[slow], ay[slow], base, nu.xs, nu.ys)
    return mean.reshape(x.shape), cov.reshape(x.shape + (2,))


def _map_exact(ax, ay, base, xs, ys):
    """Means and covariances of the weights exp(ax[k, p] + ay[k, q] + base[p, q]).

    The log-domain path of ``_moments``, in blocks of ``_BLOCK`` elements
    (at least one point): each point's exponents are max-shifted, floored
    at ``_EXP_FLOOR`` and exponentiated once.  The floor is exact as in
    ``_logsumexp_outer_exact``: each shifted total is at least 1.
    """
    k = ax.shape[0]
    rows = max(1, _BLOCK // base.size)
    buf = np.empty((min(rows, k),) + base.shape)
    mean, cov = np.empty((k, 2)), np.empty((k, 2, 2))
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        blk = buf[: hi - lo]
        np.add(ax[lo:hi, :, None], ay[lo:hi, None, :], out=blk)
        blk += base
        blk -= blk.max(axis=(1, 2), keepdims=True)
        np.maximum(blk, _EXP_FLOOR, out=blk)
        np.exp(blk, out=blk)
        mean[lo:hi], cov[lo:hi], _ = _conditional_moments(
            blk.sum(axis=2),
            blk.sum(axis=1),
            xs,
            ys,
            lambda dx, dy: np.einsum("kp,kp->k", dx, np.matmul(blk, dy[:, :, None])[:, :, 0]),
        )
    return mean, cov


def _conditional_moments(wx, wy, xs, ys, cross):
    """Means (k, 2), covariances (k, 2, 2) and totals (k,) of weights w[k, p, q].

    ``wx`` and ``wy`` are w's marginals over the nodes ``xs`` and ``ys``;
    ``cross(dx, dy)`` sums w dx dy for the nodes' offsets from the means.
    Centring keeps the rounding error relative to the covariance.
    """
    total = wx.sum(axis=1)
    mean = np.column_stack([wx @ xs, wy @ ys]) / total[:, None]
    dx = xs - mean[:, 0:1]
    dy = ys - mean[:, 1:2]
    cov = np.empty((total.size, 2, 2))
    cov[:, 0, 0] = np.einsum("kp,kp,kp->k", wx, dx, dx)
    cov[:, 1, 1] = np.einsum("kq,kq,kq->k", wy, dy, dy)
    cov[:, 0, 1] = cov[:, 1, 0] = cross(dx, dy)
    cov /= total[:, None, None]
    return mean, cov, total


def entropic_map(plan, x):
    """Barycentric projection E[Y | x] of the plan's conditional, for points (..., 2)."""
    return _moments(plan, x)[0]


def entropic_jacobian(plan, x):
    """The map's exact Jacobian Cov[Y | x] / eps, (..., 2, 2) for points (..., 2).

    Symmetric and positive semidefinite by construction.
    """
    return _moments(plan, x)[1] / plan.eps


def extrapolated(plan, x):
    """Richardson values at x of the map and its Jacobian, and the Jacobian's error bound.

    A value is X + t (X - X'), X at the plan's eps, X' at its ``coarse``
    eps' and t = eps / (eps' - eps): 2 X(eps) - X(2 eps) on the default
    ladder.  The extrapolated Jacobian need not be positive semidefinite;
    an eigenvalue at or below the bound is not resolved from rounding.
    Each covariance errs in the Frobenius norm by at most
    gamma (gamma R^2 + tr C) + 2**-89 R^2, gamma = N 2**-53 for N target
    nodes: centring on means off by gamma R_i (R_i the largest node
    coordinate in size), centred sums off by gamma sqrt(C_ii C_jj), and
    clamped weights, 2**-91 D_i D_j (module docstring) with the node
    offsets D_i from the mean at most 2 R_i.
    """
    coarse = plan.coarse
    if coarse is None:
        raise ValueError("the plan keeps no coarser stage to extrapolate from")
    t = plan.eps / (coarse.eps - plan.eps)
    (mean, cov), (mean_c, cov_c) = _moments(plan, x), _moments(coarse, x)
    jac, jac_c = cov / plan.eps, cov_c / coarse.eps
    nu = plan.target
    gamma = nu.weights.size * 2.0**-53
    floor = (gamma * gamma + 2.0**-89) * (np.max(nu.xs**2) + np.max(nu.ys**2))
    bound = (1.0 + t) * (floor / plan.eps + gamma * np.trace(jac, axis1=-2, axis2=-1))
    bound += t * (floor / coarse.eps + gamma * np.trace(jac_c, axis1=-2, axis2=-1))
    return mean + t * (mean - mean_c), jac + t * (jac - jac_c), bound
