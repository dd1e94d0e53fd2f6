"""Grid transport tests: discretization, Sinkhorn duals, the map and its
Jacobian against the analytic constructions they approximate."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from otspec import cli, entropic, rng
from otspec.brenier import brenier_1d, brenier_gaussian, brenier_product
from otspec.entropic import (
    EntropicPlan,
    GridMeasure,
    default_eps_schedule,
    discretize,
    entropic_jacobian,
    entropic_map,
    extrapolated,
    sinkhorn_solve,
)
from otspec.measures import (
    GaussianMeasure,
    ProductMeasure,
    make_catalog_measure,
    make_radial_measure,
    regularize,
)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _gauss_pair():
    q1, q2 = _rotation(0.5), _rotation(-0.7)
    cov1 = q1 @ np.diag([0.36, 0.3025]) @ q1.T
    cov2 = q2 @ np.diag([0.25, 0.2025]) @ q2.T
    return (
        GaussianMeasure([-0.3, 0.2], cov1),
        GaussianMeasure([0.5, -0.4], cov2),
    )


@pytest.fixture(scope="module")
def gauss_setup():
    g1, g2 = _gauss_pair()
    box = ((-3.3, 3.3), (-3.3, 3.3))
    mu = discretize(g1, box, 64, 64)
    nu = discretize(g2, box, 64, 64)
    plan = sinkhorn_solve(mu, nu, default_eps_schedule(mu, nu), max_iter=5000)
    return g1, g2, plan, brenier_gaussian(g1, g2)


@pytest.fixture(scope="module")
def product_setup():
    f1s = regularize(make_catalog_measure("uniform", (0.0, 1.0)), 8)
    f2s = make_catalog_measure("gaussian", (0.0, 0.45))
    f1t = make_catalog_measure("gaussian", (0.3, 0.5))
    f2t = make_catalog_measure("gaussian", (-0.2, 0.4))
    src = ProductMeasure([f1s, f2s])
    dst = ProductMeasure([f1t, f2t])
    mu = discretize(src, ((-0.8, 1.8), (-2.5, 2.5)), 64, 64)
    nu = discretize(dst, ((-2.5, 3.1), (-2.4, 2.0)), 64, 64)
    plan = sinkhorn_solve(mu, nu, default_eps_schedule(mu, nu), max_iter=5000)
    oracle = brenier_product([brenier_1d(f1s, f1t), brenier_1d(f2s, f2t)])
    region = []
    p_lo = 0.5 - math.sqrt(0.5) / 2.0
    p_hi = 1.0 - p_lo
    for f in (f1s, f2s):
        region.append((float(f.quantile(p_lo)), float(f.quantile(p_hi))))
    return plan, oracle, region


@pytest.fixture(scope="module")
def self_setup():
    g = GaussianMeasure([0.0, 0.0], np.diag([0.3025, 0.3025]))
    box = ((-3.0, 3.0), (-3.0, 3.0))
    mu = discretize(g, box, 48, 48)
    plan = sinkhorn_solve(mu, mu, default_eps_schedule(mu, mu), max_iter=5000)
    return g, plan


def _axis_kernels(mu, nu):
    # the negated squared half-distances of sinkhorn_solve's stage factors,
    # for the f-update (summing over nu) and the g-update (summing over mu)
    dx = -0.5 * (nu.xs[:, None] - mu.xs[None, :]) ** 2
    dy = -0.5 * (nu.ys[:, None] - mu.ys[None, :]) ** 2
    return (dx, dy), (dx.T.copy(), dy.T.copy())


def _outer(lead, tail):
    return entropic._logsumexp_outer(entropic._Factor(lead), entropic._Factor(tail))


def _stage_half_update(dx, dy, pot_plus_logw, eps):
    # the stage factors built, then one half update
    kx, ky = entropic._Factor(dx, eps), entropic._Factor(dy, eps)
    return entropic._half_update(kx, ky, pot_plus_logw, eps)


def _half_update_reference(dx, dy, pot_plus_logw, eps):
    # the unblocked two-stage kernel: n^3 temporaries, scipy's logsumexp
    inner = pot_plus_logw / eps
    a = logsumexp(dx[:, :, None] / eps + inner[:, None, :], axis=0)
    return logsumexp(dy[None, :, :] / eps + a[:, :, None], axis=1)


def _softmax_weights(plan, pts):
    # dense softmax over the whole (points, nx_t, ny_t) block
    nu = plan.target
    with np.errstate(divide="ignore"):
        base = plan.g / plan.eps + np.log(nu.weights)
    ax = -0.5 * (pts[:, 0:1] - nu.xs[None, :]) ** 2 / plan.eps
    ay = -0.5 * (pts[:, 1:2] - nu.ys[None, :]) ** 2 / plan.eps
    lw = base[None, :, :] + ax[:, :, None] + ay[:, None, :]
    lw -= lw.max(axis=(1, 2), keepdims=True)
    w = np.exp(lw)
    return w / w.sum(axis=(1, 2), keepdims=True)


def _entropic_map_reference(plan, pts):
    w = _softmax_weights(plan, pts)
    nu = plan.target
    return np.column_stack(
        [np.einsum("mpq,p->m", w, nu.xs), np.einsum("mpq,q->m", w, nu.ys)]
    )


def _entropic_jacobian_reference(plan, pts):
    # the conditional covariance over eps, from the dense softmax and
    # the full (points, nx_t, ny_t, 2) node offsets
    w = _softmax_weights(plan, pts)
    nu = plan.target
    nodes = np.stack(np.meshgrid(nu.xs, nu.ys, indexing="ij"), axis=-1)
    d = nodes[None] - _entropic_map_reference(plan, pts)[:, None, None, :]
    return np.einsum("mpq,mpqi,mpqj->mij", w, d, d) / plan.eps


def _difference_quotient(plan, pts, h):
    # the symmetrized central-difference Jacobian of entropic_map, four
    # map evaluations per point: the oracle for the exact Jacobian
    cols = [
        (entropic_map(plan, pts + h * e) - entropic_map(plan, pts - h * e)) / (2.0 * h)
        for e in np.eye(2)
    ]
    j = np.stack(cols, axis=-1)
    return 0.5 * (j + np.swapaxes(j, -2, -1))


def _assert_logs_agree(got, ref):
    assert got.shape == ref.shape
    live = ~np.isneginf(ref)
    assert np.array_equal(~np.isneginf(got), live)
    assert np.all(np.isfinite(ref[live]))
    assert np.max(np.abs(got[live] - ref[live])) <= 1e-12


def _holey_grid(nx, ny, lo, hi, zero_rows, zero_cols):
    # a gaussian bump on a rectangular lattice with whole rows and columns
    # of zero weight, so the first log-sum-exp stage has all -inf slices
    xs = np.linspace(lo, hi, nx)
    ys = np.linspace(lo, hi, ny)
    w = np.exp(-(xs[:, None] ** 2 + 0.7 * ys[None, :] ** 2))
    w[list(zero_rows), :] = 0.0
    w[:, list(zero_cols)] = 0.0
    w[nx // 2, ny // 3] = 0.0
    return GridMeasure(xs, ys, w / w.sum(), ((lo, hi), (lo, hi)))


@pytest.fixture(scope="module")
def holey_pair():
    mu = _holey_grid(20, 24, -2.0, 2.0, zero_rows=(0, 7), zero_cols=(3, 23))
    nu = _holey_grid(18, 22, -1.8, 2.2, zero_rows=(17,), zero_cols=(0, 10))
    return mu, nu


@pytest.fixture(scope="module")
def holey_plan(holey_pair):
    mu, nu = holey_pair
    return sinkhorn_solve(mu, nu, default_eps_schedule(mu, nu), max_iter=5000)


@pytest.fixture
def exact_calls(monkeypatch):
    """Sinkhorn stage calls and output rows that reach the exact kernel,
    and ``entropic_map`` points that reach its log-domain path."""
    seen = {"calls": 0, "rows": 0, "points": 0}
    kernel, map_kernel = entropic._logsumexp_outer_exact, entropic._map_exact

    def counted(lead, tail):
        seen["calls"] += 1
        seen["rows"] += lead.shape[1]
        return kernel(lead, tail)

    def counted_map(ax, ay, *args):
        seen["points"] += ax.shape[0]
        return map_kernel(ax, ay, *args)

    monkeypatch.setattr(entropic, "_logsumexp_outer_exact", counted)
    monkeypatch.setattr(entropic, "_map_exact", counted_map)
    return seen


class _CountingNumpy:
    """``numpy`` for one module, counting the elements it exponentiates."""

    def __init__(self):
        self.exps = 0

    def exp(self, x, *args, **kwargs):
        self.exps += np.size(x)
        return np.exp(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def _per_call_sinkhorn(mu, nu, eps_schedule, max_iter=2000, tol=1e-8, relax=True):
    """``sinkhorn_solve`` with no stage factors, the bit-for-bit reference:
    every log-sum-exp stage shifts and exponentiates both of its factors.
    ``relax=False`` keeps every update plain (omega = 1).
    Returns (f, g, history, (f, g) of the second-to-last stage)."""

    def outer(lead, tail):
        top_l, dead_l = entropic._top(lead, 0)
        top_t, dead_t = entropic._top(tail, 0)
        s = entropic._lifted_exp(lead, top_l).T @ entropic._lifted_exp(tail, top_t)
        s *= entropic._UNLIFT
        low = s < entropic._FLOOR
        with np.errstate(divide="ignore"):
            out = np.log(s, out=s)
        out += top_l.T
        out += top_t
        dead_l, dead_t = dead_l[0], dead_t[0]
        out[dead_l] = -np.inf
        out[:, dead_t] = -np.inf
        low[dead_l] = False
        low[:, dead_t] = False
        rows = np.flatnonzero(low.any(axis=1))
        if rows.size:
            out[rows] = entropic._logsumexp_outer_exact(lead[:, rows], tail)
        return out

    def half_update(dx, dy, pot_plus_logw, eps):
        a = outer(dx / eps, pot_plus_logw / eps)
        return outer(a.T, dy / eps)

    def step(old, new, omega):
        # the relaxed update, written out: new itself at omega 1
        return new if omega == 1.0 else old + omega * (new - old)

    with np.errstate(divide="ignore"):
        log_mu, log_nu = np.log(mu.weights), np.log(nu.weights)
    (dx_for_f, dy_for_f), (dx_for_g, dy_for_g) = _axis_kernels(mu, nu)
    f, g = np.zeros(mu.shape), np.zeros(nu.shape)
    history = []
    coarse = None
    for stage, eps in enumerate(eps_schedule):
        # the last two stages run to tol and end on a plain update
        last = stage >= len(eps_schedule) - 2
        stage_tol = tol if last else max(tol, 1e-4)
        omega = 1.0
        for it in range(max_iter):
            f = step(f, -eps * half_update(dx_for_f, dy_for_f, g + eps * log_nu, eps), omega)
            b = half_update(dx_for_g, dy_for_g, f + eps * log_mu, eps)
            col = np.exp(np.clip((g + eps * b) / eps, -745.0, 50.0)) * nu.weights
            err = float(np.max(np.abs(col - nu.weights)))
            objective = (
                float(np.sum(f * mu.weights))
                + float(np.sum(g * nu.weights))
                - eps * (float(col.sum()) - 1.0)
            )
            history.append((eps, it, err, objective))
            if err <= stage_tol:
                if omega == 1.0 or not last:
                    break
                omega = 1.0
            g = step(g, -eps * b, omega)
            if relax and it == 1:
                # two plain iterations measure the contraction rate
                rho = err / history[-2][2] if history[-2][2] > 0.0 else 1.0
                omega = 2.0 / (1.0 + math.sqrt(1.0 - rho)) if rho < 1.0 else 1.0
        if stage == len(eps_schedule) - 2:
            coarse = (f, g)
    return f, g, history, coarse


def _far_apart_pair():
    # two narrow bumps on side-by-side boxes, 2 apart: at the small epsilons
    # some stage rows fall more than 900 e-folds below their column peaks
    def bump(shift):
        xs = np.linspace(shift - 1.0, shift + 1.0, 32)
        w = np.exp(-20.0 * ((xs[:, None] - shift) ** 2 + (xs[None, :] - shift) ** 2))
        box = (shift - 1.0, shift + 1.0)
        return GridMeasure(xs, xs, w / w.sum(), (box, box))

    return bump(0.0), bump(2.0)


def _central_points(g1, count=200):
    # uniform sample of the central 50% mass disk of a 2D Gaussian
    s = rng.stream(71, 0)
    r50 = math.sqrt(2.0 * math.log(2.0))
    z = s.standard_normal((count, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= np.sqrt(s.uniform(0.0, 1.0, size=(count, 1))) * r50
    return g1.mean + z @ np.linalg.cholesky(g1.covariance).T


def _plan_of(setup):
    # the plan of a gauss_setup, product_setup or holey_plan fixture value
    if isinstance(setup, EntropicPlan):
        return setup
    return next(v for v in setup if isinstance(v, EntropicPlan))


class TestGridMeasure:
    def test_uniform_square_equal_weights(self):
        m = ProductMeasure(
            [
                make_catalog_measure("uniform", (0.0, 1.0)),
                make_catalog_measure("uniform", (0.0, 1.0)),
            ]
        )
        g = discretize(m, ((0.0, 1.0), (0.0, 1.0)), 16, 16)
        # the catalog uniform density vanishes at its support endpoints, so
        # the boundary ring carries no weight and the interior is flat
        inner = g.weights[1:-1, 1:-1]
        assert np.max(np.abs(inner - 1.0 / 196.0)) < 1e-15
        assert np.all(g.weights[0] == 0.0) and np.all(g.weights[-1] == 0.0)
        assert abs(float(g.weights.sum()) - 1.0) <= 1e-12

    def test_weights_normalized_and_nonnegative(self, gauss_setup):
        g1, _, plan, _ = gauss_setup
        w = plan.source.weights
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.all(w >= 0.0)

    def test_gaussian_coverage_accepted_on_wide_box(self):
        g = GaussianMeasure([0.0, 0.0], np.eye(2))
        discretize(g, ((-6.0, 6.0), (-6.0, 6.0)), 16, 16)

    def test_gaussian_coverage_refused_on_marginal_box(self):
        # a standard Gaussian leaves 1.15e-6 of its mass outside this box,
        # just over the 1e-6 budget
        g = GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="covers only"):
            discretize(g, ((-5.0, 5.0), (-5.0, 5.0)), 16, 16)

    def test_radial_coverage_uses_inscribed_disk(self):
        ball = make_radial_measure("uniform-ball", 2)
        discretize(ball, ((-1.0, 1.0), (-1.0, 1.0)), 16, 16)
        with pytest.raises(ValueError, match="covers only"):
            discretize(ball, ((-0.9, 0.9), (-0.9, 0.9)), 16, 16)

    def test_invariants_enforced_on_construction(self):
        xs = np.linspace(0.0, 1.0, 4)
        good = np.full((4, 4), 1.0 / 16.0)
        box = ((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            GridMeasure(xs, xs, good - np.eye(4) * 0.2, box)
        with pytest.raises(ValueError, match="sum"):
            GridMeasure(xs, xs, good * 1.5, box)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            discretize(
                make_catalog_measure("gaussian", (0.0, 1.0)),
                ((-5.0, 5.0), (-5.0, 5.0)),
                8,
                8,
            )

    def test_nodes_layout(self):
        m = GaussianMeasure([0.0, 0.0], np.eye(2) * 0.25)
        g = discretize(m, ((-4.0, 4.0), (-4.0, 4.0)), 3, 5)
        pts = g.nodes()
        assert pts.shape == (15, 2)
        assert pts[0] == pytest.approx([-4.0, -4.0])
        assert pts[4] == pytest.approx([-4.0, 4.0])
        assert pts[-1] == pytest.approx([4.0, 4.0])


class TestSinkhorn:
    def test_schedule_validation(self, gauss_setup):
        _, _, plan, _ = gauss_setup
        mu, nu = plan.source, plan.target
        with pytest.raises(ValueError, match="decreasing"):
            sinkhorn_solve(mu, nu, [0.1, 0.2])
        with pytest.raises(ValueError, match="positive"):
            sinkhorn_solve(mu, nu, [0.1, 0.0])
        with pytest.raises(ValueError, match="empty"):
            sinkhorn_solve(mu, nu, [])

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"tol": math.nan}, "tol must be positive"),
            ({"tol": 0.0}, "tol must be positive"),
            ({"tol": -1.0}, "tol must be positive"),
            ({"max_iter": 0}, "max_iter must be at least 1"),
            ({"max_iter": -1}, "max_iter must be at least 1"),
        ],
        ids=["tol-nan", "tol-zero", "tol-negative", "max_iter-zero", "max_iter-negative"],
    )
    def test_refuses_tolerances_it_can_never_meet(self, bad, match, monkeypatch):
        # refused on entry: not a single half update runs
        g1, g2 = _gauss_pair()
        box = ((-3.3, 3.3), (-3.3, 3.3))
        mu = discretize(g1, box, 12, 12)
        nu = discretize(g2, box, 12, 12)

        def never(*args):
            raise AssertionError("a half update ran")

        monkeypatch.setattr(entropic, "_half_update", never)
        with pytest.raises(ValueError, match=match):
            sinkhorn_solve(mu, nu, [0.5, 0.1], **bad)

    def test_marginal_error_below_tolerance(self, gauss_setup):
        _, _, plan, _ = gauss_setup
        assert plan.marginal_error <= 1e-8

    def test_marginals_against_dense_plan(self):
        # small grids, so the full coupling matrix fits in memory and the
        # factorized updates can be checked against the textbook object
        g1, g2 = _gauss_pair()
        box = ((-3.3, 3.3), (-3.3, 3.3))
        mu = discretize(g1, box, 12, 12)
        nu = discretize(g2, box, 12, 12)
        plan = sinkhorn_solve(mu, nu, [0.5, 0.2, 0.1], max_iter=3000, tol=1e-10)
        xs = mu.nodes()
        ys = nu.nodes()
        cost = 0.5 * np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=2)
        pi = (
            mu.weights.ravel()[:, None]
            * nu.weights.ravel()[None, :]
            * np.exp((plan.f.ravel()[:, None] + plan.g.ravel()[None, :] - cost) / plan.eps)
        )
        assert np.max(np.abs(pi.sum(axis=1) - mu.weights.ravel())) <= 1e-10
        assert np.max(np.abs(pi.sum(axis=0) - nu.weights.ravel())) <= 1e-10

    @pytest.mark.parametrize("setup", ["gauss_setup", "product_setup", "holey_plan"])
    def test_dual_objective_monotone_within_stage(self, setup, request):
        plan = _plan_of(request.getfixturevalue(setup))
        stages = {row[0] for row in plan.history}
        assert len(stages) > 1
        for eps in stages:
            vals = [row[3] for row in plan.history if row[0] == eps]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9 * (1.0 + abs(a))

    @pytest.mark.parametrize("setup", ["gauss_setup", "product_setup"])
    def test_returned_plan_fits_both_marginals(self, setup, request):
        # against the dense scipy kernel: the f of each of the last two
        # stages is a plain update, so the source marginal is exact to
        # rounding, and the target's error is the one the stage stopped on
        fine = _plan_of(request.getfixturevalue(setup))
        assert fine.coarse.eps == 2.0 * fine.eps
        for plan in (fine, fine.coarse):
            self._check_marginals(plan)

    @staticmethod
    def _check_marginals(plan):
        mu, nu, eps = plan.source, plan.target, plan.eps
        (dxf, dyf), (dxg, dyg) = _axis_kernels(mu, nu)
        row = mu.weights * np.exp(
            plan.f / eps + _half_update_reference(dxf, dyf, plan.g + eps * np.log(nu.weights), eps)
        )
        col = nu.weights * np.exp(
            plan.g / eps + _half_update_reference(dxg, dyg, plan.f + eps * np.log(mu.weights), eps)
        )
        assert np.max(np.abs(row - mu.weights)) <= 1e-15
        assert np.max(np.abs(col - nu.weights)) <= 1e-8
        # bit for bit the plain f-update against the returned g
        kf = _stage_half_update(dxf, dyf, plan.g + eps * np.log(nu.weights), eps)
        assert np.array_equal(plan.f, -eps * kf)

    @pytest.mark.parametrize("grid, final, coarse", [(64, 30, 25), (96, 70, 32)])
    def test_default_parts_converge_in_few_iterations(self, grid, final, coarse):
        # per-stage iterations: the final eps stage took 26 / 27 (grid 64)
        # and 35 / 65 (grid 96) on the ladder that passed 4 eps, 26 / 26 and
        # 35 / 41 after 2 eps; the 2 eps stage takes 20 / 22 and 26 / 28;
        # every 1e-4 stage takes at most 11.  The plain alternating updates
        # took 151 / 129 and 275 / 233 iterations in all, on a ladder that
        # halved eps
        for part in ("gaussian", "product"):
            src, dst, src_box, dst_box = cli._SINKHORN_CASES[part](2024)[:4]
            mu = discretize(src, src_box, grid, grid)
            nu = discretize(dst, dst_box, grid, grid)
            sched = default_eps_schedule(mu, nu)
            plan = sinkhorn_solve(mu, nu, sched, max_iter=5000)
            per_stage = [sum(row[0] == eps for row in plan.history) for eps in sched]
            assert per_stage[-1] <= final, (part, per_stage)
            assert per_stage[-2] <= coarse, (part, per_stage)
            assert max(per_stage[:-2]) <= 11, (part, per_stage)

    @pytest.mark.parametrize("grid", [32, 64])
    def test_relaxed_map_matches_the_plain_one(self, grid):
        # the same ladder solved with omega forced to 1: both plans meet
        # tol, and their maps at the part's map points differ by at most
        # 2e-6 (measured: 1.4e-7 at grid 32, 8.3e-7 at grid 64)
        for part in ("gaussian", "product"):
            src, dst, src_box, dst_box, _, map_pts, _ = cli._SINKHORN_CASES[part](2024)
            mu = discretize(src, src_box, grid, grid)
            nu = discretize(dst, dst_box, grid, grid)
            sched = default_eps_schedule(mu, nu)
            plan = sinkhorn_solve(mu, nu, sched, max_iter=5000)
            f, g, history, _ = _per_call_sinkhorn(mu, nu, sched, max_iter=5000, relax=False)
            assert len(plan.history) < len(history)
            plain = EntropicPlan(
                source=mu, target=nu, f=f, g=g, eps=sched[-1], marginal_error=history[-1][2]
            )
            gap = np.max(np.abs(entropic_map(plan, map_pts) - entropic_map(plain, map_pts)))
            assert gap <= 2e-6, part

    def test_overrelaxation_factor(self):
        over = entropic._overrelaxation
        assert over(0.0, 0.0) == 1.0
        assert over(1e-3, 1e-3) == 1.0
        assert over(1e-3, 2e-3) == 1.0
        assert over(1e-3, 0.0) == 1.0
        assert over(1e-3, math.nan) == 1.0
        assert over(1.0, 0.75) == pytest.approx(4.0 / 3.0, rel=1e-15)
        # below 2 even where the rate rounds next to 1
        assert 1.99 < over(1.0, math.nextafter(1.0, 0.0)) < 2.0

    def test_nonconvergence_reports_marginal_error(self):
        g1, g2 = _gauss_pair()
        box = ((-3.3, 3.3), (-3.3, 3.3))
        mu = discretize(g1, box, 12, 12)
        nu = discretize(g2, box, 12, 12)
        with pytest.raises(ArithmeticError, match="marginal error"):
            sinkhorn_solve(mu, nu, [0.05], max_iter=2, tol=1e-12)

    def test_self_transport_near_identity(self, self_setup):
        g, plan = self_setup
        s = rng.stream(71, 1)
        pts = g.sample(s, size=150)
        keep = np.max(np.abs(pts), axis=1) < 1.5
        pts = pts[keep]
        moved = entropic_map(plan, pts)
        drift = np.max(np.linalg.norm(moved - pts, axis=1))
        assert drift <= 3.0 * math.sqrt(plan.eps)


class TestStageFactors:
    """The axis factors are built once per epsilon stage, and the solve is
    bit for bit the one that built them in every log-sum-exp stage."""

    @staticmethod
    def _pair(name, request):
        if name == "gaussian":
            plan = request.getfixturevalue("gauss_setup")[2]
            return plan.source, plan.target
        if name == "zero-weight":
            return request.getfixturevalue("holey_pair")
        return _far_apart_pair()

    @pytest.mark.parametrize("name", ["gaussian", "zero-weight", "fallback"])
    def test_solve_matches_the_per_call_loop(self, name, request, exact_calls):
        mu, nu = self._pair(name, request)
        sched = default_eps_schedule(mu, nu)
        plan = sinkhorn_solve(mu, nu, sched, max_iter=5000)
        rows = exact_calls["rows"]
        assert (rows > 0) == (name == "fallback")
        f, g, history, (f2, g2) = _per_call_sinkhorn(mu, nu, sched, max_iter=5000)
        assert exact_calls["rows"] == 2 * rows
        assert np.array_equal(plan.f, f)
        assert np.array_equal(plan.g, g)
        assert plan.history == history
        assert plan.coarse.eps == sched[-2]
        assert np.array_equal(plan.coarse.f, f2)
        assert np.array_equal(plan.coarse.g, g2)

    def test_four_exponentials_per_iteration_and_per_stage(self, holey_pair, monkeypatch):
        # the potential's factor in each of the 4 log-sum-exp stages of an
        # iteration, and the 4 axis factors once per epsilon stage
        mu, nu = holey_pair
        calls = []
        lifted_exp = entropic._lifted_exp

        def counted(x, top):
            calls.append(x.shape)
            return lifted_exp(x, top)

        monkeypatch.setattr(entropic, "_lifted_exp", counted)
        sched = default_eps_schedule(mu, nu)
        plan = sinkhorn_solve(mu, nu, sched)
        assert len(calls) == 4 * len(plan.history) + 4 * len(sched)


class TestEntropicMap:
    def test_gaussian_pair_matches_linear_oracle(self, gauss_setup):
        g1, _, plan, oracle = gauss_setup
        pts = _central_points(g1)
        got = entropic_map(plan, pts)
        ref = oracle.map_points(pts)
        err = np.linalg.norm(got - ref, axis=1)
        scale = np.maximum(
            np.linalg.norm(ref, axis=1),
            math.sqrt(float(np.mean(np.sum(ref**2, axis=1)))),
        )
        assert float(np.max(err / scale)) <= 0.05

    def test_product_pair_matches_product_oracle(self, product_setup):
        plan, oracle, region = product_setup
        (x0, x1), (y0, y1) = region
        gx = np.linspace(x0, x1, 12)
        gy = np.linspace(y0, y1, 12)
        pts = np.column_stack(
            [a.ravel() for a in np.meshgrid(gx, gy, indexing="ij")]
        )
        got = entropic_map(plan, pts)
        ref = oracle.map_points(pts)
        err = np.linalg.norm(got - ref, axis=1)
        scale = np.maximum(
            np.linalg.norm(ref, axis=1),
            math.sqrt(float(np.mean(np.sum(ref**2, axis=1)))),
        )
        assert float(np.max(err / scale)) <= 0.05

    def test_monotone_on_sampled_pairs(self, gauss_setup):
        g1, _, plan, _ = gauss_setup
        pts = _central_points(g1, count=120)
        vals = entropic_map(plan, pts)
        a, b = pts[:60], pts[60:]
        ta, tb = vals[:60], vals[60:]
        lhs = np.sum((ta - tb) * (a - b), axis=1)
        assert np.all(lhs >= -0.01 * np.sum((a - b) ** 2, axis=1))

    def test_batch_matches_single_point(self, gauss_setup):
        _, _, plan, _ = gauss_setup
        pts = np.array([[0.2, -0.4], [1.0, 0.8]])
        batch = entropic_map(plan, pts)
        for k in range(2):
            np.testing.assert_allclose(entropic_map(plan, pts[k]), batch[k], rtol=1e-12)

    def test_refuses_points_outside_box(self, gauss_setup):
        _, _, plan, _ = gauss_setup
        with pytest.raises(ValueError, match="outside the source box"):
            entropic_map(plan, np.array([4.0, 0.0]))


class TestHessianEstimate:
    def test_self_transport_near_identity_hessian(self, self_setup):
        _, plan = self_setup
        _, h, _ = extrapolated(plan, np.array([[0.0, 0.0], [0.6, -0.4], [-0.8, 0.7]]))
        assert h.shape == (3, 2, 2)
        assert np.all(np.linalg.norm(h - np.eye(2), 2, axis=(1, 2)) <= 0.1)

    def test_gaussian_pair_matches_oracle_hessian(self, gauss_setup):
        g1, _, plan, oracle = gauss_setup
        a = oracle.matrix
        _, h, _ = extrapolated(plan, _central_points(g1, count=60)[::5])
        assert np.all(np.linalg.norm(h - a, 2, axis=(1, 2)) / np.linalg.norm(a, 2) <= 0.05)

    def test_product_pair_matches_oracle_hessian(self, product_setup):
        plan, oracle, region = product_setup
        (x0, x1), (y0, y1) = region
        gx, gy = np.meshgrid(np.linspace(x0, x1, 5), np.linspace(y0, y1, 5), indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        _, h, bound = extrapolated(plan, pts)
        ref = oracle.hessian(pts)
        assert h.shape == ref.shape == (5, 5, 2, 2)
        assert bound.shape == (5, 5)
        gap = np.linalg.norm(h - ref, 2, axis=(-2, -1))
        assert np.all(gap / np.linalg.norm(ref, 2, axis=(-2, -1)) <= 0.05)

    def test_extrapolation_is_richardson_over_the_last_two_stages(self, product_setup):
        # 2 X(eps) - X(2 eps) for the map and the Jacobian alike
        plan, _, region = product_setup
        pts = np.array([[r[0] for r in region], [r[1] for r in region]])
        t, h, _ = extrapolated(plan, pts)
        coarse = plan.coarse
        np.testing.assert_allclose(
            t, 2.0 * entropic_map(plan, pts) - entropic_map(coarse, pts), rtol=1e-13
        )
        np.testing.assert_allclose(
            h, 2.0 * entropic_jacobian(plan, pts) - entropic_jacobian(coarse, pts), rtol=1e-13
        )

    def test_stack_matches_single_points(self, gauss_setup):
        g1, _, plan, _ = gauss_setup
        pts = _central_points(g1, count=12)
        h = entropic_jacobian(plan, pts)
        for k, p in enumerate(pts):
            np.testing.assert_allclose(h[k], entropic_jacobian(plan, p), rtol=1e-12, atol=0.0)

    def test_symmetric_and_positive_definite(self, gauss_setup):
        g1, _, plan, _ = gauss_setup
        h = entropic_jacobian(plan, _central_points(g1, count=100))
        assert np.array_equal(h, np.swapaxes(h, 1, 2))
        assert np.all(np.linalg.eigvalsh(h)[:, 0] > 0.0)

    def test_matches_difference_quotient_to_second_order(self):
        # the central difference of entropic_map at steps h and h / 2 on a
        # grid-32 plan: its error against the exact Jacobian falls by 4,
        # as O(h^2) predicts (measured 4.00 at the product part's points)
        src, dst, src_box, dst_box, _, _, pts = cli._SINKHORN_CASES["product"](2024)
        mu = discretize(src, src_box, 32, 32)
        nu = discretize(dst, dst_box, 32, 32)
        plan = sinkhorn_solve(mu, nu, default_eps_schedule(mu, nu), max_iter=5000)
        jac = entropic_jacobian(plan, pts)
        step = 0.5 * max(plan.source.spacing)
        errs = [
            np.max(np.linalg.norm(_difference_quotient(plan, pts, h) - jac, 2, axis=(1, 2)))
            for h in (step, 0.5 * step)
        ]
        assert errs[1] <= 0.01 * np.max(np.linalg.norm(jac, 2, axis=(1, 2)))
        assert 3.8 <= errs[0] / errs[1] <= 4.2

    def test_refuses_points_outside_box(self, gauss_setup):
        # the box itself is closed: its corners are accepted
        _, _, plan, _ = gauss_setup
        (x0, x1), (y0, y1) = plan.source.box
        corners = np.array([[x0, y0], [x1, y1]])
        assert np.all(np.isfinite(entropic_jacobian(plan, corners)))
        outside = np.array([[0.0, 0.0], [math.nextafter(x1, np.inf), 0.0]])
        with pytest.raises(ValueError, match="outside the source box"):
            entropic_jacobian(plan, outside)
        with pytest.raises(ValueError, match="outside the source box"):
            extrapolated(plan, outside)

    def test_extrapolation_needs_a_coarse_stage(self, gauss_setup):
        _, _, plan, _ = gauss_setup
        lone = EntropicPlan(
            source=plan.source, target=plan.target, f=plan.f, g=plan.g,
            eps=plan.eps, marginal_error=plan.marginal_error,
        )
        with pytest.raises(ValueError, match="no coarser stage"):
            extrapolated(lone, np.zeros(2))

    @staticmethod
    def _frozen_plan():
        # a frozen two-node-per-axis plan with a tiny epsilon, and its twin
        # at 2 eps: away from the axes the nearest corner dominates, so the
        # conditional is a point mass up to weights clamped at e^-700
        xs = np.linspace(-1.0, 1.0, 8)
        src = GridMeasure(xs, xs, np.full((8, 8), 1.0 / 64.0), ((-1.0, 1.0), (-1.0, 1.0)))
        ts = np.array([-1.0, 1.0])
        tgt = GridMeasure(ts, ts, np.full((2, 2), 0.25), ((-1.0, 1.0), (-1.0, 1.0)))

        def plan(eps, coarse=None):
            return EntropicPlan(
                source=src, target=tgt, f=np.zeros((8, 8)), g=np.zeros((2, 2)),
                eps=eps, marginal_error=0.0, coarse=coarse,
            )

        return plan(1e-4, plan(2e-4))

    def test_degenerate_estimate_is_not_resolved(self):
        # where the conditional is a point mass the covariance is clamp and
        # rounding noise: positive here, with log-eigenvalues near -690, but
        # not above the estimate's rounding bound, so it is not resolved
        plan = self._frozen_plan()
        _, h, bound = extrapolated(plan, np.array([[0.3, 0.3], [-0.3, 0.3], [0.0, 0.4]]))
        eigs = np.linalg.eigvalsh(h)
        assert np.all(eigs[:2] > 0.0)
        assert np.all(np.log(eigs[:2]) < -600.0)
        assert np.all(eigs[:, 0] <= bound)

    def test_resolved_and_degenerate_estimates_in_one_stack(self):
        # at the origin the conditional is uniform on the four corners, so
        # the covariance is I and the estimate 2 I / eps - I / (2 eps)
        plan = self._frozen_plan()
        _, h, bound = extrapolated(plan, np.array([[0.0, 0.0], [0.3, 0.3]]))
        np.testing.assert_allclose(h[0], 1.5e4 * np.eye(2), rtol=1e-12)
        eigs = np.linalg.eigvalsh(h)[:, 0]
        assert eigs[0] > bound[0] and eigs[1] <= bound[1]


class TestKernelOracle:
    """The fast and the blocked exact kernels against the dense scipy
    computations."""

    @staticmethod
    def _check_half_updates(mu, nu, f, g):
        (dxf, dyf), (dxg, dyg) = _axis_kernels(mu, nu)
        sched = default_eps_schedule(mu, nu)
        with np.errstate(divide="ignore"):
            log_mu, log_nu = np.log(mu.weights), np.log(nu.weights)
        for eps in (sched[0], sched[-1]):
            for dx, dy, pot in (
                (dxf, dyf, g + eps * log_nu),
                (dxg, dyg, f + eps * log_mu),
            ):
                _assert_logs_agree(
                    _stage_half_update(dx, dy, pot, eps),
                    _half_update_reference(dx, dy, pot, eps),
                )

    def test_half_update_matches_scipy_on_gaussian_grid(self, gauss_setup):
        _, _, plan, _ = gauss_setup
        self._check_half_updates(plan.source, plan.target, plan.f, plan.g)

    def test_half_update_matches_scipy_with_zero_weight_nodes(self, holey_pair, exact_calls):
        # all -inf rows and columns are set directly: none falls back
        mu, nu = holey_pair
        s = rng.stream(71, 2)
        f = s.standard_normal(mu.shape)
        g = s.standard_normal(nu.shape)
        self._check_half_updates(mu, nu, f, g)
        assert exact_calls["calls"] == 0

    def test_blocked_stage_matches_scipy_across_blocks(self, holey_pair, monkeypatch):
        # a block budget that splits the p axis unevenly, with -inf slices
        mu, _ = holey_pair
        with np.errstate(divide="ignore"):
            tail = np.log(mu.weights) / 0.01
        lead = -0.5 * (mu.xs[:, None] - np.linspace(-2.5, 2.5, 13)[None, :]) ** 2 / 0.01
        ref = logsumexp(lead[:, :, None] + tail[:, None, :], axis=0)
        assert np.any(np.isneginf(ref))
        monkeypatch.setattr(entropic, "_BLOCK", 5 * mu.weights.size)
        _assert_logs_agree(_outer(lead, tail), ref)
        _assert_logs_agree(entropic._logsumexp_outer_exact(lead, tail), ref)

    def test_far_apart_peaks_fall_back_by_rows(self, exact_calls):
        # at eps 1e-3 an entry sits about (y_p - z_q)^2 / (4 eps) below the
        # sum of its column maxima: past 2**-900 for the rows near the ends,
        # within it for the rows near the middle
        nodes = np.linspace(-1.0, 1.0, 41)
        ys, zs = np.linspace(-1.0, 1.0, 30), np.linspace(-1.0, 1.0, 20)
        lead = -0.5 * (nodes[:, None] - ys[None, :]) ** 2 / 1e-3
        tail = -0.5 * (nodes[:, None] - zs[None, :]) ** 2 / 1e-3
        ref = logsumexp(lead[:, :, None] + tail[:, None, :], axis=0)
        _assert_logs_agree(_outer(lead, tail), ref)
        assert exact_calls["calls"] == 1
        assert 0 < exact_calls["rows"] < ys.size

    def test_default_cases_take_the_fast_path(self, exact_calls, monkeypatch):
        # sinkhorn2d at its defaults (grid 64, seed 2024): no stage row and
        # no map point reaches an exact kernel, and the fast results agree
        # with the dense references at the converged plans
        plans = []
        solve = entropic.sinkhorn_solve

        def kept(*args, **kwargs):
            plans.append(solve(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(entropic, "sinkhorn_solve", kept)
        report = cli.run_experiment(cli.config_from_dict({"kind": "sinkhorn2d"}))
        assert all(r.passed for r in report.records)
        assert exact_calls == {"calls": 0, "rows": 0, "points": 0}
        for part, plan in zip(("gaussian", "product"), plans):
            map_pts = cli._SINKHORN_CASES[part](2024)[5]
            got = entropic_map(plan, map_pts)
            assert np.max(np.abs(got - _entropic_map_reference(plan, map_pts))) <= 1e-12
            self._check_half_updates(plan.source, plan.target, plan.f, plan.g)
        assert exact_calls == {"calls": 0, "rows": 0, "points": 0}

    def test_entropic_jacobian_matches_dense_covariance(self, gauss_setup, product_setup):
        for plan in (gauss_setup[2], product_setup[0]):
            (x0, x1), (y0, y1) = plan.source.box
            pts = rng.stream(71, 7).uniform((x0, y0), (x1, y1), size=(60, 2))
            ref = _entropic_jacobian_reference(plan, pts)
            gap = np.linalg.norm(entropic_jacobian(plan, pts) - ref, 2, axis=(1, 2))
            assert np.all(gap <= 1e-12 * np.linalg.norm(ref, 2, axis=(1, 2)))

    @pytest.mark.parametrize("setup", ["gauss_setup", "product_setup", "far"])
    def test_fast_and_exact_kernels_agree(self, setup, request, exact_calls, monkeypatch):
        # the moments of the same points from the fast kernel, where its
        # totals are above the floor (the far-apart pair's points straddle
        # it), and from the exact kernel: means and covariances agree to
        # 1e-12 relative
        if setup == "far":
            mu, nu = _far_apart_pair()
            plan = sinkhorn_solve(mu, nu, default_eps_schedule(mu, nu), max_iter=5000)
        else:
            plan = _plan_of(request.getfixturevalue(setup))
        (x0, x1), (y0, y1) = plan.source.box
        pts = rng.stream(71, 8).uniform((x0, y0), (x1, y1), size=(80, 2))
        mean, cov = entropic._moments(plan, pts)
        slow = exact_calls["points"]
        assert (slow > 0) == (setup == "far") and pts.shape[0] - slow >= 20
        monkeypatch.setattr(entropic, "_FLOOR", np.inf)
        mean_x, cov_x = entropic._moments(plan, pts)
        assert exact_calls["points"] == slow + pts.shape[0]
        scale = np.linalg.norm(mean_x, axis=1)
        assert np.all(np.linalg.norm(mean - mean_x, axis=1) <= 1e-12 * scale)
        scale = np.linalg.norm(cov_x, 2, axis=(1, 2))
        assert np.all(np.linalg.norm(cov - cov_x, 2, axis=(1, 2)) <= 1e-12 * scale)

    def test_default_parts_complete_at_grid_128(self, exact_calls):
        # at grid 128 some Jacobian points reach the exact kernel: their
        # fast totals underflow
        report = cli.run_experiment(cli.config_from_dict({"kind": "sinkhorn2d", "grid": 128}))
        assert [r.name for r in report.records if not r.passed] == []
        assert len(report.records) == 14
        assert exact_calls["points"] > 0

    def test_entropic_map_matches_dense_softmax(self, gauss_setup):
        g1, _, plan, _ = gauss_setup
        (x0, x1), (y0, y1) = plan.source.box
        corners = np.array([[x0, y0], [x1, y1], [x0, y1], [x1, y0]])
        pts = np.vstack([_central_points(g1, count=300), corners])
        got = entropic_map(plan, pts)
        ref = _entropic_map_reference(plan, pts)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_entropic_map_matches_dense_softmax_across_blocks(
        self, holey_pair, monkeypatch
    ):
        # zero-weight target nodes, and a budget of 7 points per block
        mu, nu = holey_pair
        plan = EntropicPlan(
            source=mu, target=nu, f=np.zeros(mu.shape),
            g=rng.stream(71, 3).standard_normal(nu.shape) * 0.01,
            eps=0.02, marginal_error=0.0,
        )
        pts = rng.stream(71, 4).uniform(-2.0, 2.0, size=(40, 2))
        monkeypatch.setattr(entropic, "_BLOCK", 7 * nu.weights.size)
        ref = _entropic_map_reference(plan, pts)
        assert np.max(np.abs(entropic_map(plan, pts) - ref)) <= 1e-12
        # every point through the log-domain fallback
        monkeypatch.setattr(entropic, "_FLOOR", np.inf)
        assert np.max(np.abs(entropic_map(plan, pts) - ref)) <= 1e-12

    def test_map_fallback_exponentiates_each_weight_once(self, holey_pair, monkeypatch):
        # one exp per target node and fallback point: k nx ny more than the
        # fast path alone, where a pass per weight marginal made 2 k nx ny
        mu, nu = holey_pair
        plan = EntropicPlan(
            source=mu, target=nu, f=np.zeros(mu.shape),
            g=rng.stream(71, 3).standard_normal(nu.shape) * 0.01,
            eps=0.02, marginal_error=0.0,
        )
        pts = rng.stream(71, 4).uniform(-2.0, 2.0, size=(40, 2))
        monkeypatch.setattr(entropic, "_BLOCK", 7 * nu.weights.size)
        counted = _CountingNumpy()
        monkeypatch.setattr(entropic, "np", counted)
        entropic_map(plan, pts)
        fast = counted.exps
        monkeypatch.setattr(entropic, "_FLOOR", np.inf)
        entropic_map(plan, pts)
        assert counted.exps - 2 * fast == pts.shape[0] * nu.weights.size

    def test_entropic_map_falls_back_where_totals_underflow(self, exact_calls):
        # the plan weights of every target row peak at y = -1 and fall by
        # 500 per unit of y; a point near y = 1 sees its best node some 900
        # below the two factor maxima, so its fast total is below 2**-900
        xs = np.linspace(-1.0, 1.0, 9)
        grid = GridMeasure(xs, xs, np.full((9, 9), 1.0 / 81.0), ((-1.0, 1.0), (-1.0, 1.0)))
        eps = 1e-3
        g = eps * (-500.0 * (xs[None, :] + 1.0) + 3.0 * xs[:, None])
        plan = EntropicPlan(
            source=grid, target=grid, f=np.zeros((9, 9)), g=g, eps=eps, marginal_error=0.0
        )
        pts = rng.stream(71, 6).uniform(-1.0, 1.0, size=(60, 2))
        got = entropic_map(plan, pts)
        assert 0 < exact_calls["points"] < pts.shape[0]
        assert np.max(np.abs(got - _entropic_map_reference(plan, pts))) <= 1e-12


def _uniform_grid(n):
    xs = np.linspace(-1.0, 1.0, n)
    return GridMeasure(xs, xs, np.full((n, n), 1.0 / (n * n)), ((-1.0, 1.0), (-1.0, 1.0)))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """Working memory of the kernels is bounded by their block budgets."""

    def test_half_update_peak_is_bounded_on_grid_256(self):
        grid = _uniform_grid(256)
        (dx, dy), _ = _axis_kernels(grid, grid)
        eps = 1.2 * grid.spacing[0] ** 2
        pot = eps * np.log(grid.weights)
        peak = _traced_peak(_stage_half_update, dx, dy, pot, eps)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_entropic_map_peak_is_bounded_on_grid_256(self):
        grid = _uniform_grid(256)
        plan = EntropicPlan(
            source=grid, target=grid, f=np.zeros(grid.shape), g=np.zeros(grid.shape),
            eps=1.2 * grid.spacing[0] ** 2, marginal_error=0.0,
        )
        pts = rng.stream(71, 5).uniform(-1.0, 1.0, size=(512, 2))
        peak = _traced_peak(entropic_map, plan, pts)
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_exact_kernels_peak_is_bounded_on_grid_256(self, exact_calls, monkeypatch):
        grid = _uniform_grid(256)
        (dx, _), _ = _axis_kernels(grid, grid)
        eps = 1.2 * grid.spacing[0] ** 2
        base = np.log(grid.weights)
        peak = _traced_peak(entropic._logsumexp_outer_exact, dx / eps, base)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        plan = EntropicPlan(
            source=grid, target=grid, f=np.zeros(grid.shape), g=np.zeros(grid.shape),
            eps=eps, marginal_error=0.0,
        )
        pts = rng.stream(71, 5).uniform(-1.0, 1.0, size=(512, 2))
        # every point through the log-domain fallback
        monkeypatch.setattr(entropic, "_FLOOR", np.inf)
        peak = _traced_peak(entropic_map, plan, pts)
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert exact_calls["points"] == pts.shape[0]

    def test_fast_kernels_peak_is_bounded_on_grid_512(self, exact_calls):
        # the largest grid the config accepts, all on the fast path
        grid = _uniform_grid(512)
        (dx, dy), _ = _axis_kernels(grid, grid)
        eps = 1.2 * grid.spacing[0] ** 2
        pot = eps * np.log(grid.weights)
        peak = _traced_peak(_stage_half_update, dx, dy, pot, eps)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        plan = EntropicPlan(
            source=grid, target=grid, f=np.zeros(grid.shape), g=np.zeros(grid.shape),
            eps=eps, marginal_error=0.0,
        )
        pts = rng.stream(71, 5).uniform(-1.0, 1.0, size=(512, 2))
        peak = _traced_peak(entropic_map, plan, pts)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert exact_calls == {"calls": 0, "rows": 0, "points": 0}
