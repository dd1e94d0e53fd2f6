"""Concentration-lab tests.

Oracles: closed-form variances (constant-Hessian pairs, the exponential
rearrangement), a tensor-product quadrature for the sorted spectrum of a
product map, finite differences for bank gradients, and cross-checks
between estimators that must agree on shared data.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from otspec import concentration, rng, spd
from otspec.brenier import (
    brenier_1d,
    brenier_gaussian,
    brenier_product,
    brenier_radial,
)
from otspec.concentration import (
    EXPERIMENT_LABELS,
    BankFunction,
    RatioReport,
    SpectralSampleSet,
    VarianceReport,
    caffarelli_floor_check,
    default_experiments,
    eigen_log_variance_quadrature_1d,
    entropic_spectral_samples,
    exp_concentration,
    function_bank,
    matrix_function_bank,
    poincare_ratio,
    spectral_samples,
    matrix_poincare,
    variance_report,
)
from otspec.concentration import _BLOCKS, _hessian_view, _panel_nodes, _per_block
from otspec.entropic import (
    EntropicPlan,
    GridMeasure,
    default_eps_schedule,
    discretize,
    entropic_jacobian,
    sinkhorn_solve,
)
from otspec.measures import (
    GaussianMeasure,
    LogConcaveMeasure1D,
    make_catalog_measure,
    make_radial_measure,
    regularize,
)
from otspec.spd import log_eigen_map, log_quadratic_form, random_spd


def _pair(src, sp, dst, dp):
    return brenier_1d(make_catalog_measure(src, sp), make_catalog_measure(dst, dp))


def _product_factors():
    return [
        _pair("uniform", (0.0, 1.0), "exponential", (1.0,)),
        _pair("gaussian", (0.0, 1.0), "logistic", (0.0, 1.0)),
        _pair("beta", (2.0, 3.0), "gaussian", (0.0, 1.0)),
    ]


@pytest.fixture(scope="module")
def product_map():
    return brenier_product(_product_factors())


@pytest.fixture(scope="module")
def product_samples(product_map):
    return spectral_samples(product_map, 40_000, seed=17)


@pytest.fixture(scope="module")
def radial_map():
    return brenier_radial(make_radial_measure("uniform-ball", 3), make_radial_measure("gaussian", 3))


# the radial draws of both the spectra fixture and the matrix bank
_RADIAL_DRAWS = dict(n_samples=20_000, seed=23)


@pytest.fixture(scope="module")
def radial_samples(radial_map):
    return spectral_samples(radial_map, **_RADIAL_DRAWS)


def _moment(samples, f, c):
    # the exponential moments of one function, as a one-function bank
    (moments,) = exp_concentration(samples, [f], c)
    return moments


def _ratio(samples, f):
    # the Poincare ratio of one function, as a one-function bank
    (rep,) = poincare_ratio(samples, [f])
    return rep


@pytest.fixture(scope="module")
def self_plan():
    g = GaussianMeasure([0.0, 0.0], np.diag([0.5625, 0.5625]))
    mu = discretize(g, ((-4.0, 4.0), (-4.0, 4.0)), 32, 32)
    plan = sinkhorn_solve(mu, mu, default_eps_schedule(mu, mu), max_iter=5000)
    return g, plan


def _check_seeds(draw):
    """``draw(seed)`` refuses a non-integral or negative seed, and takes an
    integral float or a numpy integer as the int it equals."""
    for bad in (2.5, True, np.bool_(True), float("nan"), float("inf"), "7", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw(bad)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        draw(-1)
    want = draw(7)
    for good in (7.0, np.int64(7)):
        assert np.array_equal(draw(good), want)


def _draw_per_block(measure, n_samples, seed):
    # the draws as one ``sample`` call per block made them
    base, extra = divmod(n_samples, _BLOCKS)
    draws = [
        measure.sample(rng.stream(seed, b), size=base + (b < extra)) for b in range(_BLOCKS)
    ]
    return np.concatenate(draws).reshape(n_samples, -1)


_DRAW_LABELS = (
    "1d:uniform(0.0,1.0)->exponential(1.0)",
    "1d:gaussian(0.0,1.0)->logistic(0.0,1.0)",
    "1d:beta(2.0,3.0)->gaussian(0.0,1.0)",
    "1d:gamma(3.0,1.0)->gaussian(0.5,0.8)",
    "gaussian:n=3",
    "gaussian:n=5",
    "product:n=3",
    "radial:ball->gaussian n=2",
    "radial:ball->gaussian n=8",
)


@pytest.fixture(scope="module")
def draw_sources():
    """The source of each default experiment in ``_DRAW_LABELS``, and the
    regularized uniform the grid workload samples."""
    out = {label: tm.source for label, tm in default_experiments(_DRAW_LABELS)}
    out["regularized"] = regularize(make_catalog_measure("uniform", (0.0, 1.0)), 8)
    return out


class _MixedSource:
    """A stand-in measure that asks its generator for both kinds of draw."""

    def sample(self, gen, size=None):
        u = gen.uniform(size=size)
        z = gen.standard_normal((size, 3))
        return np.column_stack([u, z, gen.uniform(size=size)])


def _drawn(measure, n_samples, seed):
    # every run of ``_draw``, joined into the whole set
    return np.concatenate(list(concentration._draw(measure, n_samples, seed)))


class TestDraws:
    """One ``sample`` call per run of blocks draws what one call per block drew."""

    @pytest.mark.parametrize("n", [50, 51, 1007, 100_003])
    @pytest.mark.parametrize("label", _DRAW_LABELS + ("regularized",))
    def test_one_request_matches_the_per_block_draws(self, draw_sources, label, n):
        m = draw_sources[label]
        got, want = _drawn(m, n, 29), _draw_per_block(m, n, 29)
        if isinstance(m, GaussianMeasure) and n < 2 * _BLOCKS:
            # a block of one row took BLAS's vector-matrix product, which
            # may round differently from the matrix product of the whole
            # set; the standard normal draws themselves are the same
            base, extra = divmod(n, _BLOCKS)
            z = np.concatenate([
                rng.stream(29, b).standard_normal((base + (b < extra), m.dim))
                for b in range(_BLOCKS)
            ])
            assert np.array_equal(got, m.mean + z @ m._sqrt_cov)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [50, 51, 1007, 100_003])
    def test_block_streams_yield_their_values_in_order(self, n):
        got = _drawn(_MixedSource(), n, 31)
        assert np.array_equal(got, _draw_per_block(_MixedSource(), n, 31))

    @pytest.mark.parametrize(
        "n, blocks",
        [(50, [50]), (1007, [50]), (100_003, [10] * 5), (10**6, [1] * 50), (10**6 + 49, [1] * 50)],
    )
    def test_runs_are_whole_blocks_of_about_the_row_cap(self, n, blocks):
        firsts, sizes, rows = zip(*concentration._runs(n))
        assert [len(k) for k in sizes] == blocks
        assert list(firsts) == [sum(blocks[:i]) for i in range(len(blocks))]
        assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]]
        assert rows[-1].stop == n
        assert [sum(k) for k in sizes] == [r.stop - r.start for r in rows]
        assert max(r.stop - r.start for r in rows) <= 20_050

    @pytest.mark.parametrize("first", [0, 7])
    def test_block_streams_refuse_a_partial_request(self, first):
        streams = concentration._BlockStreams(31, first, [2] * 5)
        with pytest.raises(ValueError, match="runs of 10 rows"):
            streams.uniform(size=9)
        with pytest.raises(ValueError, match="runs of 10 rows"):
            streams.standard_normal((11, 2))
        # a full request draws block first + b from its own stream
        got = streams.uniform(size=10)
        want = np.concatenate([rng.stream(31, first + b).uniform(size=2) for b in range(5)])
        assert np.array_equal(got, want)

    def test_one_quantile_solve_per_factor(self, product_map, monkeypatch):
        # each of the 50 block streams is made once, in block order, and
        # each run makes one solve per source factor, not one per block
        sources = list(product_map.source.factors)
        solved, streams = [], []
        quantile, stream = LogConcaveMeasure1D.quantile, rng.stream

        def counted_quantile(self, p):
            solved.append((self, p.size))
            return quantile(self, p)

        def counted_stream(*key):
            streams.append(key)
            return stream(*key)

        monkeypatch.setattr(LogConcaveMeasure1D, "quantile", counted_quantile)
        monkeypatch.setattr(rng, "stream", counted_stream)
        spectral_samples(product_map, 100_000, seed=3)
        runs = [20_000] * 5
        assert [(m, k) for m, k in solved if any(m is s for s in sources)] == [
            (s, k) for k in runs for s in sources
        ]
        assert streams == [(3, b) for b in range(_BLOCKS)]

    def test_sample_count_must_be_an_integer(self):
        # a non-integral count is refused, not truncated
        tm = _pair("uniform", (0.0, 1.0), "exponential", (1.0,))
        for bad in (1000.9, True, float("nan"), float("inf"), "1000"):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                spectral_samples(tm, bad, 3)
        want = spectral_samples(tm, 1000, 3).spectra
        for good in (1000.0, np.int64(1000)):
            assert np.array_equal(spectral_samples(tm, good, 3).spectra, want)

    def test_seed_must_be_a_non_negative_integer(self):
        # a non-integral seed is refused, not truncated (2.5 would run
        # seed 2, and True seed 1)
        tm = _pair("uniform", (0.0, 1.0), "exponential", (1.0,))
        _check_seeds(lambda seed: spectral_samples(tm, 100, seed).spectra)


def _refuse(*args, **kwargs):
    raise AssertionError("unneeded draw")


class TestCoupledDraws:
    """A plain set draws only the uniforms its spectra depend on."""

    @pytest.mark.parametrize("label", ["gaussian:n=3", "gaussian:n=5"])
    def test_gaussian_linear_set_draws_nothing(self, monkeypatch, label):
        ((_, tm),) = default_experiments([label])
        for name in ("uniform", "standard_normal"):
            monkeypatch.setattr(concentration._BlockStreams, name, _refuse)
        monkeypatch.setattr(GaussianMeasure, "sample", _refuse)
        monkeypatch.setattr(rng, "stream", _refuse)
        samples = spectral_samples(tm, 100_003, seed=3)
        assert np.array_equal(samples.spectra, np.broadcast_to(tm._log_spec, (100_003, tm.dim)))

    @pytest.mark.parametrize("dim", [2, 8])
    def test_radial_set_draws_no_direction(self, monkeypatch, dim):
        tm = brenier_radial(
            make_radial_measure("uniform-ball", dim), make_radial_measure("gaussian", dim)
        )
        monkeypatch.setattr(concentration._BlockStreams, "standard_normal", _refuse)
        assert spectral_samples(tm, 100_003, seed=3).count == 100_003

    def test_product_set_makes_one_uniform_request_per_factor_per_run(
        self, product_map, monkeypatch
    ):
        requests = []
        uniform = concentration._BlockStreams.uniform

        def counted(self, size):
            requests.append(size)
            return uniform(self, size)

        monkeypatch.setattr(concentration._BlockStreams, "uniform", counted)
        monkeypatch.setattr(concentration._BlockStreams, "standard_normal", _refuse)
        spectral_samples(product_map, 100_003, seed=3)
        runs = [rows.stop - rows.start for *_, rows in concentration._runs(100_003)]
        assert requests == [k for k in runs for _ in range(product_map.dim)]

    @pytest.mark.parametrize("label", ["1d:beta(2.0,3.0)->gaussian(0.0,1.0)", "product:n=3"])
    def test_quantile_solves_settle_on_their_first_cdf_evaluation(self, monkeypatch, label):
        # every 1-D factor solves its source and its target from a start
        # that is the root but for rounding: a closed-form inverse, or the
        # quintic of the CDF table (beta), so each draw of each solve costs
        # one cdf element, not two
        ((_, tm),) = default_experiments([label])
        factors = tm.factors if tm.kind == "product" else [tm]
        sizes = []

        def counting(cdf):
            def counted(x):
                sizes.append(np.size(x))
                return cdf(x)

            return counted

        for f in factors:
            for m in (f.source, f.target):
                monkeypatch.setattr(m, "cdf", counting(m.cdf))
        spectral_samples(tm, 20_000, seed=3)
        assert sum(sizes) <= 1.05 * 20_000 * 2 * len(factors)


class TestSampleSets:
    def test_deterministic_given_seed(self, product_map):
        a = spectral_samples(product_map, 1000, seed=3)
        b = spectral_samples(product_map, 1000, seed=3)
        assert np.array_equal(a.spectra, b.spectra)
        c = spectral_samples(product_map, 1000, seed=4)
        assert not np.array_equal(a.spectra, c.spectra)

    def test_spectra_are_sorted_rows(self, product_samples):
        diffs = np.diff(product_samples.spectra, axis=1)
        assert np.all(diffs <= 1e-14)

    @pytest.mark.parametrize(
        "label",
        [
            "1d:uniform(0.0,1.0)->exponential(1.0)",
            "gaussian:n=3",
            "product:n=3",
            "radial:ball->gaussian n=5",
        ],
    )
    def test_spectra_are_column_major(self, label):
        ((_, tm),) = default_experiments([label])
        samples = spectral_samples(tm, 500, seed=3)
        assert samples.spectra.flags.f_contiguous
        assert samples.spectra.shape == (500, tm.dim)

    def test_column_major_spectra_are_kept_without_copy(self):
        rows = np.sort(np.arange(8.0).reshape(4, 2), axis=1)[:, ::-1]
        spectra = np.asfortranarray(rows)
        assert np.shares_memory(SpectralSampleSet(spectra).spectra, spectra)
        rows = np.ascontiguousarray(rows)
        kept = SpectralSampleSet(rows).spectra
        assert kept.flags.f_contiguous and np.array_equal(kept, rows)

    def test_minimum_sample_count(self, product_map):
        with pytest.raises(ValueError, match="at least 50"):
            spectral_samples(product_map, 10, seed=0)

    def test_container_validation(self, monkeypatch):
        good = np.zeros((4, 2))
        with pytest.raises(ValueError, match="finite"):
            SpectralSampleSet(good + np.inf)
        # one row per draw and one column per index: a flat or stacked
        # array is refused, with its shape named
        for bad in (np.arange(100.0), np.zeros((4, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match=rf"not shape {re.escape(str(bad.shape))}"):
                SpectralSampleSet(bad)
        # a row that is not descending is refused, whichever run of rows and
        # column pair holds it; ties are descending
        monkeypatch.setattr(concentration, "_RUN_ROWS", 2)
        assert len(list(concentration._runs(100))) == 50
        for row, col in ((0, 1), (57, 1), (99, 2)):
            bad = np.zeros((100, 3))
            bad[row, col] = 1.0
            with pytest.raises(ValueError, match="descending"):
                SpectralSampleSet(bad)
        assert SpectralSampleSet(np.array([[2.0, 1.0, 1.0], [0.0, 0.0, -3.0]])).count == 2
        # the fields after the spectra are keyword-only, so a positional
        # second argument is refused rather than taken for the flagged count
        with pytest.raises(TypeError):
            SpectralSampleSet(good, 4)

    def test_report_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            VarianceReport(np.array([-0.1]), np.zeros(1), 10, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            VarianceReport(np.array([0.1]), np.array([-1.0]), 10, 0)


class TestQuadratureVariance:
    def test_uniform_to_exponential_is_standard_exponential(self):
        # log Phi''(X) = -log(1 - X) with X uniform, so the variance is
        # exactly the Exp(1) variance
        rep = eigen_log_variance_quadrature_1d(_pair("uniform", (0.0, 1.0), "exponential", (1.0,)))
        assert abs(rep.variances[0] - 1.0) <= 1e-6
        assert rep.truncation < 1e-5
        assert rep.standard_errors[0] == 0.0
        assert rep.flagged == 0

    def test_gaussian_pairs_have_constant_log_slope(self):
        for sigma in (0.5, 1.0, 1.7):
            rep = eigen_log_variance_quadrature_1d(
                _pair("gaussian", (0.0, 1.0), "gaussian", (0.3, sigma))
            )
            assert rep.variances[0] <= 1e-12

    def test_node_count_must_be_an_integer(self):
        # a non-integral count is refused, not truncated
        for bad in (2048.9, True, float("nan"), "2048"):
            with pytest.raises(ValueError, match="nodes must be an integer"):
                _panel_nodes(bad)
        want = _panel_nodes(2048)
        for good in (2048.0, np.int32(2048)):
            assert all(np.array_equal(a, b) for a, b in zip(_panel_nodes(good), want))

    def test_bound_margin_and_budget(self):
        rep = eigen_log_variance_quadrature_1d(
            _pair("beta", (2.0, 3.0), "logistic", (0.0, 1.0)), nodes=512
        )
        assert rep.variances[0] <= 4.0
        assert rep.bound_margin[0] == pytest.approx(4.0 - rep.variances[0])
        assert rep.sample_count <= 512
        assert rep.sample_count >= 200

    def test_node_budget_refinement(self):
        tm = _pair("uniform", (0.0, 1.0), "exponential", (1.0,))
        coarse = eigen_log_variance_quadrature_1d(tm, nodes=256)
        fine = eigen_log_variance_quadrature_1d(tm, nodes=2048)
        assert abs(coarse.variances[0] - 1.0) <= 1e-4
        assert abs(fine.variances[0] - 1.0) <= abs(coarse.variances[0] - 1.0) + 1e-9

    def test_rejects_bad_input(self, product_map):
        with pytest.raises(ValueError, match="one-dimensional"):
            eigen_log_variance_quadrature_1d(product_map)
        with pytest.raises(ValueError, match="at least 32"):
            eigen_log_variance_quadrature_1d(
                _pair("uniform", (0.0, 1.0), "exponential", (1.0,)), nodes=8
            )

    def test_panel_weights_cover_trusted_window(self):
        u, w, tail = _panel_nodes(2048)
        assert np.all((u > 0.0) & (u < 1.0))
        assert w.sum() == pytest.approx(1.0 - tail, abs=1e-12)
        assert np.all(np.diff(u) > 0.0)


class TestMonteCarloVariance:
    def test_gaussian_map_variance_vanishes(self):
        s = rng.stream(2024, 10, 4)
        mu = GaussianMeasure(np.zeros(4), random_spd(s, 4, log_spread=1.5))
        nu = GaussianMeasure(np.ones(4), random_spd(s, 4, log_spread=1.5))
        rep = variance_report(spectral_samples(brenier_gaussian(mu, nu), 5000, seed=1))
        assert rep.max_variance <= 1e-12
        assert rep.sample_count == 5000
        assert not rep.approximate

    def test_product_matches_tensor_quadrature(self, product_samples):
        # deterministic oracle: per-factor quadrature nodes combined over
        # the 3-fold product, sorted within each cell (order statistics
        # of independent coordinates)
        maps = _product_factors()
        u, w, _ = _panel_nodes(256)
        hs = [tm.log_second_derivative(tm.source.quantile(u)) for tm in maps]
        w23 = np.outer(w, w)
        s1 = np.zeros(3)
        s2 = np.zeros(3)
        for i in range(u.size):
            trip = np.stack(
                np.broadcast_arrays(hs[0][i], hs[1][:, None], hs[2][None, :]),
                axis=-1,
            )
            srt = -np.sort(-trip, axis=-1)
            wi = w[i] * w23
            s1 += np.einsum("ab,abk->k", wi, srt)
            s2 += np.einsum("ab,abk->k", wi, srt * srt)
        wtot = w.sum() ** 3
        oracle = s2 / wtot - (s1 / wtot) ** 2
        rep = variance_report(product_samples)
        gap = np.abs(rep.variances - oracle)
        assert np.all(gap <= 3.0 * rep.standard_errors)

    def test_radial_bound_with_slack(self):
        for d in (2, 5):
            tm = brenier_radial(
                make_radial_measure("uniform-ball", d),
                make_radial_measure("gaussian", d),
            )
            rep = variance_report(spectral_samples(tm, 20_000, seed=11 + d))
            assert rep.max_variance <= 4.0 + 3.0 * float(np.max(rep.standard_errors))
            assert np.all(rep.standard_errors > 0.0)

    def test_empty_set_is_refused(self):
        empty = SpectralSampleSet(np.zeros((0, 2)), flagged=5)
        with pytest.raises(ValueError, match="empty"):
            variance_report(empty)
        with pytest.raises(ValueError, match="empty"):
            poincare_ratio(empty, function_bank(2)[:1])
        with pytest.raises(ValueError, match="empty"):
            exp_concentration(empty, function_bank(2), 0.1)


class TestFunctionBank:
    def test_bank_composition(self):
        bank = function_bank(3)
        names = [f.name for f in bank]
        assert len(names) == len(set(names))
        assert "mean" in names and "max" in names and "log-sum-exp" in names
        assert sum(n.startswith("coordinate") for n in names) == 3

    def test_dimension_must_be_an_integer(self):
        # a non-integral dimension is refused, not truncated
        for bad in (2.9, True, float("nan"), "3"):
            with pytest.raises(ValueError, match="bank dimension must be an integer"):
                function_bank(bad)
        for good in (3.0, np.int64(3)):
            assert [f.name for f in function_bank(good)] == [f.name for f in function_bank(3)]

    def test_matrix_bank_dimension_must_be_an_integer(self):
        for bad in (2.9, True, float("nan"), "3"):
            with pytest.raises(ValueError, match="bank dimension must be an integer"):
                matrix_function_bank(bad)
        for good in (3.0, np.int64(3)):
            got = [f.name for f in matrix_function_bank(good)]
            assert got == [f.name for f in matrix_function_bank(3)]

    def test_gradients_match_finite_differences(self):
        s = rng.stream(41, 0)
        x = s.standard_normal((30, 4))
        step = 1e-6
        for f in function_bank(4, anchor=np.array([0.5, -0.5, 0.0, 1.0])):
            base_grad_sq = f.evaluate(x)[1]
            fd = np.zeros_like(x)
            for j in range(4):
                e = np.zeros(4)
                e[j] = step
                fd[:, j] = (f.evaluate(x + e)[0] - f.evaluate(x - e)[0]) / (2 * step)
            # skip points within a kink's reach of nondifferentiability
            sorted_x = np.sort(x, axis=1)
            smooth = sorted_x[:, -1] - sorted_x[:, -2] > 1e-3
            np.testing.assert_allclose(
                np.sum(fd * fd, axis=1)[smooth], base_grad_sq[smooth], atol=1e-8
            )

    def test_bank_is_one_lipschitz(self):
        s = rng.stream(41, 1)
        x = s.standard_normal((200, 5))
        y = s.standard_normal((200, 5))
        gap = np.linalg.norm(x - y, axis=1)
        for f in function_bank(5):
            assert np.all(np.abs(f.evaluate(x)[0] - f.evaluate(y)[0]) <= gap * (1 + 1e-12))

    def test_bank_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            function_bank(0)
        with pytest.raises(ValueError, match="anchor"):
            function_bank(3, anchor=[1.0, 2.0])

    def test_1d_bank_slopes(self):
        # along t -> e^t A every log quadratic form moves at unit rate, so a
        # composite's derivative there is its outer function's slope
        a = random_spd(rng.stream(41, 2), 3, log_spread=1.0)
        h = np.exp(np.linspace(-2.0, 2.0, 41))[:, None, None] * a
        step = 1e-6
        bank = {
            f.name: f
            for f in matrix_function_bank(3, directions=np.vstack([np.eye(3), [1.0, 2.0, -1.0]]))
            if f.name.startswith("log-quadform")
        }
        assert len(bank) == 12
        view, up, down = (_hessian_view(s * h) for s in (1.0, math.exp(step), math.exp(-step)))
        for name, f in bank.items():
            y = bank[name.split(":")[0]].evaluate(view)[0]
            fd = (f.evaluate(up)[0] - f.evaluate(down)[0]) / (2 * step)
            smooth = np.abs(np.abs(y) - 1.0) > 1e-3
            np.testing.assert_allclose(
                (fd * fd)[smooth], f.evaluate(view)[1][smooth], atol=1e-8
            )

    def test_matrix_bank_values(self):
        bank = {f.name: f for f in matrix_function_bank(2)}
        assert list(bank) == [
            f"log-quadform[{k}]{suffix}" for k in range(2) for suffix in _OUTER_1D
        ] + ["distance-to-identity"]
        view = _hessian_view(np.array([[[math.e**2, 0.0], [0.0, 1.0]]]))
        got = bank["log-quadform[0]"].evaluate(view)[0]
        assert got[0] == pytest.approx(2.0, abs=1e-12)
        d, _ = bank["distance-to-identity"].evaluate(
            _hessian_view(np.array([[[math.e, 0.0], [0.0, 1.0 / math.e]]]))
        )
        assert d[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        for f in bank.values():
            assert np.all(f.evaluate(view)[1] <= 1.0 + 1e-12)

    def test_matrix_bank_rejects_indefinite(self, radial_map):
        # the one validation of a run's Hessians refuses the negated one and
        # names it, whichever entry the bank holds
        class NegatedRow:
            source, dim = radial_map.source, radial_map.dim

            def hessian(self, x):
                h = radial_map.hessian(x)
                h[5] *= -1.0
                return h

        for f in matrix_function_bank(3):
            with pytest.raises(ValueError, match=r"^hessian\[5\] is not positive definite"):
                matrix_poincare(NegatedRow(), [f], 500, seed=3)

    @pytest.mark.parametrize(
        "directions, message",
        [
            ([[0.0, 0.0, 0.0]], "direction vector must be nonzero"),
            ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "direction vector must be nonzero"),
            ([[1.0, 0.0]], r"directions have shape \(1, 2\), expected \(k, 3\)"),
        ],
    )
    def test_matrix_bank_refuses_a_bad_direction_when_built(self, directions, message):
        with pytest.raises(ValueError, match=message):
            matrix_function_bank(3, directions=directions)


class TestPoincareRatio:
    def test_constant_function_ratio_is_zero(self, product_samples):
        const = BankFunction(
            "const", lambda x: (np.full(x.shape[0], 2.5), np.zeros(x.shape[0]))
        )
        rep = _ratio(product_samples, const)
        assert rep.value == 0.0
        assert not rep.violation_candidate

    def test_zero_denominator_flags_candidate(self, product_samples):
        bad = BankFunction("nongradient", lambda x: (x[:, 0], np.zeros(x.shape[0])))
        rep = _ratio(product_samples, bad)
        assert rep.violation_candidate
        assert math.isinf(rep.value)
        assert not rep.within(1.0)

    def test_coordinate_reproduces_variance(self, product_samples):
        var = variance_report(product_samples)
        bank = function_bank(3)
        for i in range(3):
            rep = _ratio(product_samples, bank[i])
            assert rep.numerator == pytest.approx(var.variances[i], rel=1e-12)
            assert rep.denominator == pytest.approx(4.0, rel=1e-12)

    def test_bank_satisfies_bound_on_experiments(self, product_samples, radial_samples):
        for samples in (product_samples, radial_samples):
            for f in function_bank(samples.dim):
                rep = _ratio(samples, f)
                assert rep.within(1.0), (samples.label, f.name, rep)

    def test_within_accounts_for_noise(self):
        rep = RatioReport(1.05, 0.02, 1.0, 0.95, 100)
        assert rep.within(1.0, sigmas=3.0)
        assert not rep.within(1.0, sigmas=1.0)


# log(H u.u) with u = v / |v| through an outer function with its exact
# squared slope, as a one-dimensional ratio: the reference that the
# composed log-quadform entries of the matrix bank must reproduce
_OUTER_1D = {
    "": (lambda y: y, lambda y: np.ones_like(y)),
    ":clamp[-1,1]": (
        lambda y: np.clip(y, -1.0, 1.0),
        lambda y: (np.abs(y) < 1.0).astype(float),
    ),
    ":tanh": (np.tanh, lambda y: (1.0 - np.tanh(y) ** 2) ** 2),
}


def quadform_ratio_oracle(v, value, slope_sq):
    v = np.asarray(v, float).ravel()
    v = v / np.linalg.norm(v)

    def evaluate(view):
        h = view[0]
        y = log_quadratic_form(h, np.broadcast_to(v, h.shape[:-2] + v.shape))
        return value(y), slope_sq(y)

    return BankFunction("oracle", evaluate)


@pytest.fixture(scope="module")
def radial_ratios(radial_map):
    # every default matrix-bank ratio on the radial draws, by name
    bank = matrix_function_bank(3)
    reps = matrix_poincare(radial_map, bank, **_RADIAL_DRAWS)
    return {f.name: rep for f, rep in zip(bank, reps)}


class TestQuadformPoincare:
    def test_gaussian_pair_variance_zero(self):
        s = rng.stream(2024, 10, 3)
        mu = GaussianMeasure(np.zeros(3), random_spd(s, 3, log_spread=1.0))
        nu = GaussianMeasure(np.zeros(3), random_spd(s, 3, log_spread=1.0))
        bank = {f.name: f for f in matrix_function_bank(3)}
        (rep,) = matrix_poincare(brenier_gaussian(mu, nu), [bank["log-quadform[0]"]], 2000, seed=9)
        assert rep.numerator <= 1e-14
        assert rep.value <= 1e-14

    def test_identity_variance_below_four(self, radial_ratios):
        rep = radial_ratios["log-quadform[0]"]
        assert rep.numerator <= 4.0 + 3.0 * rep.standard_error


class TestMatrixPoincare:
    def test_quadform_functional_matches_1d_specialization(self, radial_map):
        # the composed matrix functional g(log(Hv.v)) and the one-dimensional
        # ratio of g along v read the same observable from the same
        # Hessians, so the reports agree exactly, for every outer function
        # and along any direction
        default = np.stack([[1.0, 0.0, 0.0], np.full(3, 1.0 / math.sqrt(3.0))])
        for directions in (None, [[1.0, 2.0, -1.0]]):
            vs = default if directions is None else directions
            bank = [
                f for f in matrix_function_bank(3, directions=directions)
                if f.name.startswith("log-quadform")
            ]
            assert [f.name for f in bank] == [
                f"log-quadform[{k}]{suffix}" for k in range(len(vs)) for suffix in _OUTER_1D
            ]
            oracles = [quadform_ratio_oracle(v, *outer) for v in vs for outer in _OUTER_1D.values()]
            assert matrix_poincare(radial_map, bank, **_RADIAL_DRAWS) == matrix_poincare(
                radial_map, oracles, **_RADIAL_DRAWS
            )

    def test_bank_bound_on_radial(self, radial_ratios):
        for name, rep in radial_ratios.items():
            assert rep.within(1.0), (name, rep)

    def test_each_run_is_validated_and_eigensolved_once(self, radial_map, monkeypatch):
        # every entry of the default bank reads one view per run of blocks:
        # one validation and one eigensolve of the run's Hessians, and no
        # public SPD observable; the runs cover every Hessian once, in order
        monkeypatch.setattr(concentration, "_RUN_ROWS", 4000)
        hessians = _whole_set_oracle(radial_map, **_RADIAL_DRAWS)[1]
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda h, *a, **k: calls.append((name, h)) or fn(h, *a, **k)
            )

        counted(concentration, "_validated")
        counted(np.linalg, "eigvalsh")
        for name in ("_validated", "log_eigen_map", "log_quadratic_form"):
            counted(spd, name)
        bank = matrix_function_bank(3)
        assert len(matrix_poincare(radial_map, bank, **_RADIAL_DRAWS)) == len(bank) == 7
        assert [name for name, _ in calls] == ["_validated", "eigvalsh"] * 5
        for k in range(2):
            assert np.array_equal(np.concatenate([h for _, h in calls[k::2]]), hessians)

    def test_sample_count_must_be_an_integer(self, radial_map):
        bank = matrix_function_bank(3)
        for bad in (1000.9, True, float("nan")):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                matrix_poincare(radial_map, bank, bad, 5)
        want = [r.value for r in matrix_poincare(radial_map, bank, 1000, 5)]
        assert [r.value for r in matrix_poincare(radial_map, bank, 1000.0, 5)] == want

    def test_seed_must_be_a_non_negative_integer(self, radial_map):
        bank = matrix_function_bank(3)
        _check_seeds(lambda seed: [r.value for r in matrix_poincare(radial_map, bank, 100, seed)])


@pytest.fixture(scope="module")
def default_maps():
    return dict(default_experiments())


class TestHessianSpectra:
    """The coupled fast path's spectra are the spectra of the Hessians that
    the matrix bank reads: on each run of the same draws, the sorted log
    eigenvalues of the run's validated Hessians match the set's rows to
    the coupling's roundoff (radial maps read the profile from the target
    law's table start, the Hessians from the exact inverse CDF)."""

    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("label", EXPERIMENT_LABELS)
    def test_hessian_spectra_match_the_coupled_spectra(self, default_maps, label, seed):
        tm, n = default_maps[label], 40_000
        spectra = spectral_samples(tm, n, seed).spectra
        runs = list(concentration._runs(n))
        assert len(runs) == 2
        bound = 1e-9 if label.startswith("radial") else 1e-13
        for pts, (_, _, rows) in zip(concentration._draw(tm.source, n, seed), runs, strict=True):
            _, log_eigs = _hessian_view(tm.hessian(pts))
            assert np.max(np.abs(log_eigs[:, ::-1] - spectra[rows])) <= bound


class TestExpConcentration:
    def test_constant_function_is_one(self, product_samples):
        const = BankFunction("const", lambda x: (np.ones(x.shape[0]), np.zeros(x.shape[0])))
        assert _moment(product_samples, const, 0.1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_requires_positive_constant(self, product_samples):
        with pytest.raises(ValueError, match="c > 0"):
            _moment(product_samples, function_bank(3)[0], 0.0)

    def test_bound_at_default_constant(self, product_samples, radial_samples):
        for samples in (product_samples, radial_samples):
            for f in function_bank(samples.dim):
                assert _moment(samples, f, 0.1) <= 2.0

    def test_sweep_is_monotone(self, radial_samples):
        f = function_bank(3)[0]
        vals = [_moment(radial_samples, f, c) for c in np.arange(0.05, 0.55, 0.05)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert len(vals) == 10

    def test_overflow_reports_infinity(self):
        spectra = np.zeros((100, 1))
        spectra[0, 0] = 2e4
        samples = SpectralSampleSet(spectra)
        f = function_bank(1)[0]
        assert math.isinf(_moment(samples, f, 0.5))

    def test_terms_are_scaled_before_they_are_summed(self):
        # every term is e^699 / count, so the moment is e^699, though the
        # count of terms times e^699 overflows
        spectra = np.full((1_000_000, 1), 699.0)
        spectra[1::2] = -699.0
        got = _moment(SpectralSampleSet(spectra), function_bank(1)[0], 1.0)
        assert math.isfinite(got)
        assert abs(got - math.exp(699.0)) <= 1e-15 * math.exp(699.0)

    def test_sequence_equals_scalar_calls(self, radial_samples):
        cs = (0.1, 0.02, 0.04, 0.5)
        for f in function_bank(3):
            got = _moment(radial_samples, f, cs)
            assert got == [_moment(radial_samples, f, c) for c in cs]
        spectra = np.zeros((100, 1))
        spectra[0, 0] = 2e4
        samples = SpectralSampleSet(spectra)
        f = function_bank(1)[0]
        got = _moment(samples, f, np.array([0.01, 0.5]))
        assert got == [_moment(samples, f, 0.01), math.inf]
        assert math.isfinite(got[0])

    @staticmethod
    def _direct(samples, f, cs):
        # a loop over the jackknife blocks, for each c: the mean is the sum
        # of f over each block, added in block order, over the count n, and
        # the moment the sum of exp(c |f - mean|) * (1 / n) over each block,
        # added in block order; inf once max(c |f - mean|) exceeds 700
        n = samples.count
        values = f.evaluate(samples.spectra)[0]
        blocks = np.array_split(np.arange(n), _BLOCKS)
        a = np.abs(values - sum(np.sum(values[b]) for b in blocks) / n)
        return [
            math.inf
            if float(np.max(c * a)) > 700.0
            else float(sum(np.sum(np.exp(c * a[b]) * (1.0 / n)) for b in blocks))
            for c in cs
        ]

    @staticmethod
    def _exp_use(monkeypatch, samples, f, cs):
        # np.exp calls and elements of one moment set beyond the bank
        # function's own (its evaluation on the same runs of rows)
        exp, sizes = np.exp, []

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "exp", counted)
            list(concentration._evaluations(f, samples.spectra))
            own = len(sizes), sum(sizes)
            sizes.clear()
            _moment(samples, f, cs)
        return len(sizes) - own[0], sum(sizes) - own[1]

    def _check_moments(self, monkeypatch, samples, cs, runs):
        # the moments agree bit for bit with the per-block loop, and with
        # the scalar calls.  A moment set makes one exp call per run of
        # blocks for all its constants, over (distinct finite constants) x n
        # elements: a repeated constant (the gating 0.1 also sits in the
        # default c_grid) reuses its moment
        overflowed = 0
        for f in function_bank(samples.dim):
            want = self._direct(samples, f, cs)
            assert _moment(samples, f, cs) == want
            assert [_moment(samples, f, c) for c in cs] == want
            finite = len({c for c, m in zip(cs, want) if math.isfinite(m)})
            overflowed += finite < len(set(cs))
            assert self._exp_use(monkeypatch, samples, f, cs) == (
                runs if finite else 0,
                finite * samples.count,
            )
        assert overflowed > 0

    def test_moments_match_the_direct_formula(self, monkeypatch):
        r = rng.stream(2024, 70)
        spectra = np.asfortranarray(np.sort(r.standard_normal((1000, 3)), axis=1)[:, ::-1])
        spectra[7, 0] = 900.0
        samples = SpectralSampleSet(spectra)
        cs = (0.1, 0.02, 0.1, 0.5, 0.77, 0.78, 1.5, 0.5, 0.1)
        self._check_moments(monkeypatch, samples, cs, runs=1)

    @pytest.mark.parametrize("n, runs", [(20_001, 1), (100_003, 5)])
    def test_moments_match_the_direct_formula_across_runs(self, monkeypatch, n, runs):
        # the moment stack is summed run by run; the planted outlier sits
        # in a middle run
        assert len(list(concentration._runs(n))) == runs
        r = rng.stream(2024, 71)
        spectra = np.asfortranarray(np.sort(r.standard_normal((n, 3)), axis=1)[:, ::-1])
        spectra[n // 2 + 3, 0] = 900.0
        samples = SpectralSampleSet(spectra)
        self._check_moments(monkeypatch, samples, (0.1, 0.02, 0.77, 0.1, 0.78, 1.5), runs)

    @pytest.mark.parametrize("cs", [(0.1, 0.0), (-0.5, 0.1, 0.2), [0.1, 0.2, -1e-300]])
    def test_sequence_requires_every_constant_positive(self, product_samples, cs):
        with pytest.raises(ValueError, match="c > 0"):
            _moment(product_samples, function_bank(3)[0], cs)

    @pytest.mark.parametrize("c", [math.nan, [0.1, math.nan], np.array([math.nan, 0.2])])
    def test_nan_constant_is_refused(self, product_samples, c):
        # NaN fails every comparison, so it is refused as not > 0
        with pytest.raises(ValueError, match="c > 0"):
            exp_concentration(product_samples, function_bank(3), c)


def _passes(monkeypatch, name):
    """The names of the bank functions that ``concentration.<name>`` (one
    pass per function, ``f`` its second argument) is called on, in order;
    each read clears the list."""
    names, inner = [], getattr(concentration, name)

    def counted(samples, f, *args):
        names.append(f.name)
        return inner(samples, f, *args)

    monkeypatch.setattr(concentration, name, counted)

    def taken():
        out = names[:]
        names.clear()
        return out

    return taken


def _values(samples, f):
    # the function's values as the bank entry's runs evaluate them
    return np.concatenate([v for _, _, v, _ in concentration._evaluations(f, samples.spectra)])


def _grad_sq(samples, f):
    # the function's squared gradients as the bank entry's runs evaluate them
    return np.concatenate([g for _, _, _, g in concentration._evaluations(f, samples.spectra)])


def _bits(a):
    return np.asarray(a, float).view(np.int64)


# the concentration kind's gating constant and its default sweep
_CS = (0.1, *(round(0.02 * k, 2) for k in range(1, 11)))


class TestExpConcentrationBank:
    """A bank's moments equal those of one one-function bank per function,
    bit for bit, and a bank takes one moment pass per distinct observable."""

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_bank_matches_the_per_function_calls(self, monkeypatch, seed):
        passes = _passes(monkeypatch, "_moments")
        skipped = 0
        for label, tm in default_experiments():
            samples = spectral_samples(tm, 20_000, seed=seed)
            bank = function_bank(samples.dim)
            got = exp_concentration(samples, bank, _CS)
            taken = passes()
            assert got == [_moment(samples, f, _CS) for f in bank], label
            passes()
            # a declared cell whose values have the bits of an earlier
            # declared cell's takes no pass of its own; every other cell
            # takes one
            bits = [_bits(_values(samples, f)) for f in bank]
            want = [
                f.name
                for k, f in enumerate(bank)
                if f.column is None
                or not any(
                    g.column is not None and np.array_equal(bits[k], bits[j])
                    for j, g in enumerate(bank[:k])
                )
            ]
            assert taken == want, label
            skipped += len(bank) - len(want)
        # max on every set, at least
        assert skipped >= len(EXPERIMENT_LABELS)

    def test_scalar_constant_gives_one_moment_per_function(self, radial_samples):
        bank = function_bank(3)
        got = exp_concentration(radial_samples, bank, 0.1)
        assert got == [_moment(radial_samples, f, 0.1) for f in bank]
        assert all(isinstance(m, float) for m in got)


class TestDeclaredColumns:
    """Bank entries that declare a column are that column of every
    descending spectrum; the ratio and moment entries evaluate each
    distinct observable once and give every entry its observable's
    report."""

    @pytest.mark.parametrize("seed", [2024, 7, 0])
    def test_declared_entries_are_their_columns(self, seed):
        observables = cells = 0
        for label, tm in default_experiments():
            samples = spectral_samples(tm, 20_000, seed=seed)
            bank = function_bank(samples.dim)
            declared = {f.name: f.column for f in bank if f.column is not None}
            want = {f"coordinate[{i}]": i for i in range(samples.dim)} | {"max": 0}
            if samples.dim == 1:
                want |= {"mean": 0, "log-sum-exp": 0}
            assert declared == want, label
            for f in bank:
                if f.column is not None:
                    column = samples.spectra[:, f.column]
                    assert np.array_equal(_bits(_values(samples, f)), _bits(column)), f.name
                    assert np.array_equal(_bits(_grad_sq(samples, f)), _bits(np.ones(len(column))))
            # every entry reads its observable's values, bit for bit
            functions, at = concentration._distinct(samples, bank)
            assert sorted(set(at)) == list(range(len(functions)))
            for f, k in zip(bank, at):
                got = _bits(_values(samples, functions[k]))
                assert np.array_equal(got, _bits(_values(samples, f))), (label, f.name)
            observables += len(functions)
            cells += len(bank)
        # 29 cells repeat a column: max everywhere, mean and log-sum-exp in
        # one dimension, and radial coordinates past coordinate[1], which
        # hold its tangential value
        assert (observables, cells) == (48, 77)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_ratios_match_one_entry_banks(self, monkeypatch, seed):
        passes = _passes(monkeypatch, "_ratio")
        for label, tm in default_experiments():
            samples = spectral_samples(tm, 20_000, seed=seed)
            bank = function_bank(samples.dim)
            got = poincare_ratio(samples, bank)
            functions, _ = concentration._distinct(samples, bank)
            assert passes() == [f.name for f in functions], label
            assert got == [_ratio(samples, f) for f in bank], label
            passes()

    def test_an_undeclared_copy_of_a_column_takes_its_own_pass(self, monkeypatch, radial_samples):
        # a function with a column's values that does not declare it is an
        # observable of its own, for ratios and moments alike
        coordinate, max_ = function_bank(3)[0], function_bank(3)[4]
        copy = BankFunction("copy", lambda x: (x[:, 0].copy(), np.ones(len(x))))
        column = radial_samples.spectra[:, 0]
        assert np.array_equal(_bits(_values(radial_samples, copy)), _bits(column))
        bank = [coordinate, copy, max_]
        functions, at = concentration._distinct(radial_samples, bank)
        assert [f.name for f in functions] == ["coordinate[0]", "copy"] and at == [0, 1, 0]
        for name in ("_moments", "_ratio"):
            passes = _passes(monkeypatch, name)
            got = (
                exp_concentration(radial_samples, bank, _CS)
                if name == "_moments"
                else poincare_ratio(radial_samples, bank)
            )
            assert passes() == ["coordinate[0]", "copy"], name
            assert got[0] == got[1] == got[2], name


def _split_block_sums(a):
    # the jackknife blocks as np.array_split gives them, each summed on its own
    return np.stack([np.sum(block, axis=0) for block in np.array_split(a, _BLOCKS)])


class TestBlockPartials:
    @pytest.mark.parametrize("n", [7, 50, 51, 99, 1007])
    def test_slices_match_split_oracle(self, n):
        s = rng.stream(5, n)
        cases = [
            s.uniform(0.5, 2.0, size=n),
            np.asfortranarray(s.standard_normal((n, 3))),
            # a strided column, as a column of a row-major stack
            s.standard_normal((n, 4))[:, 2],
        ]
        for a in cases:
            got = _per_block(a)
            want = _split_block_sums(a)
            assert got.shape == want.shape == (_BLOCKS,) + a.shape[1:]
            assert np.array_equal(got, want)
            if n < _BLOCKS:
                assert np.all(got[n:] == 0.0)

    @pytest.mark.parametrize("n", [7, 51, 1007])
    def test_variance_report_matches_per_block_loop(self, n):
        # the statistics as a Python loop over the blocks computed them:
        # row counts and partial sums per block, totals added in block
        # order, and one leave-one-out variance per block; the reports agree
        # bit for bit
        s = rng.stream(6, n)
        spectra = np.asfortranarray(np.sort(s.standard_normal((n, 3)), axis=1)[:, ::-1])
        parts = [
            (float(len(v)), np.sum(v, axis=0), np.sum(v * v, axis=0))
            for v in np.array_split(spectra, _BLOCKS)
        ]
        t0, t1, t2 = (sum(p[i] for p in parts) for i in range(3))

        def var(s0, s1, s2):
            return np.maximum(s2 / s0 - (s1 / s0) ** 2, 0.0)

        thetas = np.asarray([var(t0 - p0, t1 - p1, t2 - p2) for p0, p1, p2 in parts])
        dev = thetas - np.mean(thetas, axis=0)
        rep = variance_report(SpectralSampleSet(spectra))
        assert np.array_equal(rep.variances, var(t0, t1, t2))
        assert np.array_equal(rep.standard_errors, np.sqrt(0.98 * np.sum(dev * dev, axis=0)))


_RUN_LABELS = (
    "1d:uniform(0.0,1.0)->exponential(1.0)",
    "1d:beta(2.0,3.0)->gaussian(0.0,1.0)",
    "gaussian:n=3",
    "gaussian:n=5",
    "product:n=3",
    "radial:ball->gaussian n=3",
    "radial:ball->gaussian n=8",
)


@pytest.fixture(scope="module")
def run_maps():
    return dict(default_experiments(_RUN_LABELS))


def _whole_set_oracle(tm, n_samples, seed):
    # the set as one request for all 50 blocks made it: the coupled path's
    # spectra, and one ``hessian`` call on all the draws' points
    n, sizes = n_samples, concentration._block_sizes(n_samples)
    spectra = tm._coupled_log_spectra(concentration._BlockStreams(seed, 0, sizes), n)
    pts = tm.source.sample(concentration._BlockStreams(seed, 0, sizes), size=n).reshape(n, -1)
    return spectra, tm.hessian(pts)


class TestRunsOfBlocks:
    """Runs of whole blocks give the whole-set results bit for bit: the
    sample sets' spectra and the matrix bank's Hessians."""

    @pytest.mark.parametrize("n", [50, 51, 1007, 100_003])
    @pytest.mark.parametrize("label", _RUN_LABELS)
    def test_spectral_samples_match_the_whole_set(self, run_maps, label, n):
        tm = run_maps[label]
        spectra, _ = _whole_set_oracle(tm, n, 41)
        plain = spectral_samples(tm, n, seed=41)
        assert plain.spectra.flags.f_contiguous
        assert np.array_equal(plain.spectra, spectra)

    @pytest.mark.parametrize("n", [50, 51, 1007, 100_003])
    @pytest.mark.parametrize("label", _RUN_LABELS)
    def test_matrix_bank_reads_the_whole_set_hessians(self, run_maps, monkeypatch, label, n):
        # each run makes one ``hessian`` call, whose Hessians are the run's
        # rows of the whole-set oracle bit for bit, and every bank function
        # evaluates exactly that call's stack
        tm = run_maps[label]
        _, hessians = _whole_set_oracle(tm, n, 41)
        runs, hessian, last, seen = iter(concentration._runs(n)), tm.hessian, [], []

        def counted(x):
            run = next(runs, None)
            assert run is not None, "more hessian calls than runs"
            last[:] = [hessian(x)]
            assert np.array_equal(last[0], hessians[run[2]])
            return last[0]

        def probe(view):
            h = view[0]
            seen.append(np.array_equal(h, last[0]))
            return h[:, 0, 0], np.ones(len(h))

        monkeypatch.setattr(tm, "hessian", counted)
        matrix_poincare(tm, [BankFunction("a", probe), BankFunction("b", probe)], n, seed=41)
        assert next(runs, None) is None
        assert seen == [True] * 2 * len(list(concentration._runs(n)))

    @pytest.mark.parametrize("label", ["product:n=3", "radial:ball->gaussian n=8"])
    def test_records_match_the_point_path(self, run_maps, label):
        # every bank ratio and exponential moment on a plain set agrees with
        # the same statistic on the eigensolved spectra of the Hessians at
        # the same draws' points; a ratio's jackknife error is a difference
        # of near sums, so it keeps fewer of the spectra's digits
        tm = run_maps[label]
        plain = spectral_samples(tm, 20_000, seed=2024)
        oracle = SpectralSampleSet(log_eigen_map(_whole_set_oracle(tm, 20_000, 2024)[1]))
        # the concentration kind's gating constant and its default sweep
        cs = (0.1, *(round(0.02 * k, 2) for k in range(1, 11)))
        bank = function_bank(tm.dim)
        for f in bank:
            got, want = _ratio(plain, f), _ratio(oracle, f)
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
            assert got.standard_error == pytest.approx(want.standard_error, rel=1e-10, abs=0.0)
        got, want = exp_concentration(plain, bank, cs), exp_concentration(oracle, bank, cs)
        for moments, expected in zip(got, want, strict=True):
            assert moments == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, cap", [(51, 3), (1007, 70), (100_003, 6000), (100_003, 1)])
    def test_block_sums_by_run_match_the_whole_set(self, monkeypatch, n, cap):
        # a block is summed alone whichever run holds it; a small row cap
        # makes runs of one to a few blocks, some of two block sizes
        monkeypatch.setattr(concentration, "_RUN_ROWS", cap)
        s = rng.stream(8, n)
        cases = [
            s.uniform(0.5, 2.0, size=n),
            np.asfortranarray(s.standard_normal((n, 3))),
            s.standard_normal((n, 4))[:, 2],
        ]
        runs = list(concentration._runs(n))
        assert len(runs) > 1
        for a in cases:
            got = concentration._stacked((_per_block(a[rows], sizes),) for _, sizes, rows in runs)
            assert np.array_equal(got[0], _per_block(a))

    def test_statistics_match_one_run(self, monkeypatch):
        # every report on 20_003 draws in runs of 5 blocks equals the
        # one-run report
        tm = brenier_radial(
            make_radial_measure("uniform-ball", 3), make_radial_measure("gaussian", 3)
        )
        samples = spectral_samples(tm, 20_003, seed=43)
        monkeypatch.setattr(concentration, "_RUN_ROWS", 2000)
        assert len(list(concentration._runs(samples.count))) == 10

        def reports():
            return (
                variance_report(samples),
                [_ratio(samples, f) for f in function_bank(3)],
                matrix_poincare(tm, matrix_function_bank(3), 20_003, seed=43),
                exp_concentration(samples, function_bank(3), (0.1, 0.5, 2.0)),
            )

        runs = reports()
        monkeypatch.setattr(concentration, "_RUN_ROWS", 10**9)
        whole = reports()
        assert np.array_equal(runs[0].variances, whole[0].variances)
        assert np.array_equal(runs[0].standard_errors, whole[0].standard_errors)
        assert runs[1:] == whole[1:]


class TestRunMemory:
    """The spectra stack is the set's one array that grows with the draws;
    the exponential moments add one value per draw for their centre, and
    the matrix bank holds one run's points and Hessians at a time."""

    @staticmethod
    def _traced_peak(tm, n, bank=False):
        # draw, then every bank ratio and every exponential moment, the
        # moments by one one-function bank per function or by one bank
        cs = (0.1, 0.02, 0.1, 0.2)
        tracemalloc.start()
        try:
            samples = spectral_samples(tm, n, seed=2024)
            fs = function_bank(samples.dim)
            for f in fs:
                _ratio(samples, f)
                if not bank:
                    _moment(samples, f, cs)
            if bank:
                exp_concentration(samples, fs, cs)
            return tracemalloc.get_traced_memory()[1], samples.spectra.nbytes
        finally:
            tracemalloc.stop()

    def _check_peak(self, label, bank=False):
        ((_, tm),) = default_experiments([label])
        mb = 1e6
        peak, spectra = self._traced_peak(tm, 100_000, bank)
        assert peak <= spectra + 8 * mb
        # from 1e5 to 1e6 draws, the peak grows by the spectra and by the
        # exponential moments' 8 bytes per draw, and by nothing else
        big_peak, big_spectra = self._traced_peak(tm, 1_000_000, bank)
        rest, big_rest = peak - spectra - 8 * 100_000, big_peak - big_spectra - 8 * 1_000_000
        assert abs(big_rest - rest) <= 2 * mb

    @pytest.mark.parametrize(
        "label", ["radial:ball->gaussian n=8", "1d:beta(2.0,3.0)->gaussian(0.0,1.0)"]
    )
    def test_peak_is_the_spectra_plus_run_temporaries(self, label):
        self._check_peak(label)

    def test_bank_call_keeps_one_value_per_draw(self):
        # the bank call holds one observable's values at a time, overwritten
        # in place; radial n = 8 has 5 distinct observables in 12 cells
        self._check_peak("radial:ball->gaussian n=8", bank=True)

    def test_matrix_bank_holds_one_run_of_hessians(self):
        # a log quadratic form and the distance to the identity, each read
        # from the run's one validated view, at 2e4 draws (one run) and at
        # 2e5 draws (ten runs of the same rows): beyond one run's points and
        # Hessians, the peak is the same, so nothing grows with the draws
        ((_, tm),) = default_experiments(["radial:ball->gaussian n=8"])
        names = ("log-quadform[0]", "distance-to-identity")
        bank = [f for f in matrix_function_bank(tm.dim) if f.name in names]
        assert len(bank) == len(names)

        def rest(n):
            rows = max(r.stop - r.start for *_, r in concentration._runs(n))
            tracemalloc.start()
            try:
                matrix_poincare(tm, bank, n, seed=2024)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 8 * rows * (tm.dim + tm.dim**2)

        small, big = rest(20_000), rest(200_000)
        assert abs(big - small) <= 0.5e6


class TestCaffarelliFloor:
    def test_uniform_exponential_margin(self):
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        nu = make_catalog_measure("exponential", (1.0,))
        assert caffarelli_floor_check(mu, nu, 10) > 0.0

    def test_gaussian_pair_margin(self):
        mu = make_catalog_measure("gaussian", (0.0, 1.0))
        nu = make_catalog_measure("gaussian", (0.0, 0.25))
        assert caffarelli_floor_check(mu, nu, 5) > 0.0

    def test_margin_stabilizes_under_grid_refinement(self):
        mu = make_catalog_measure("beta", (2.0, 3.0))
        nu = make_catalog_measure("gaussian", (0.0, 1.0))
        margins = [
            caffarelli_floor_check(mu, nu, 10, grid_points=g) for g in (64, 256, 1024)
        ]
        # finer grids can only lower the minimum, and it settles
        assert margins[1] <= margins[0] + 1e-12
        assert margins[2] <= margins[1] + 1e-12
        assert abs(margins[2] - margins[1]) <= 1e-2 * (1.0 + abs(margins[2]))
        assert margins[2] > 0.0

    @pytest.mark.parametrize(
        "source,target,n,truncation",
        [
            (("uniform", (0.0, 1.0)), ("exponential", (1.0,)), 10, True),
            (("gaussian", (0.0, 1.0)), ("gaussian", (0.0, 0.25)), 5, False),
            (("beta", (2.0, 3.0)), ("gaussian", (0.0, 1.0)), 10, True),
        ],
        ids=["uniform-exponential", "gaussian-gaussian", "beta-gaussian"],
    )
    def test_curvature_is_the_computed_maps_slope(self, source, target, n, truncation):
        # the density quotient the floor check reads is the derivative of
        # the map T = G^-1 o F built from the node-table CDFs: a central
        # difference of map_points converges to it at second order where
        # its truncation error dominates (the gaussian pair's map is nearly
        # linear, so there rounding does)
        tm = brenier_1d(
            regularize(make_catalog_measure(*source), n),
            regularize(make_catalog_measure(*target), n),
        )
        u = (np.arange(512) + 0.5) / 512
        x = tm.source.quantile(u)
        d2 = np.exp(tm._coupled_log_d2(u))

        def error(h):
            slope = (tm.map_points(x + h) - tm.map_points(x - h)) / (2.0 * h)
            return float(np.max(np.abs(slope / d2 - 1.0)))

        coarse, fine = error(1e-3), error(5e-4)
        if truncation:
            assert 3.8 <= coarse / fine <= 4.2
        assert error(1e-4) <= 1e-6

    def test_integer_arguments(self):
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        nu = make_catalog_measure("exponential", (1.0,))
        for bad in (10.9, True, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="n_reg must be an integer"):
                caffarelli_floor_check(mu, nu, bad, grid_points=64)
        for bad in (64.7, True, float("nan")):
            with pytest.raises(ValueError, match="grid_points must be an integer"):
                caffarelli_floor_check(mu, nu, 10, grid_points=bad)
        want = caffarelli_floor_check(mu, nu, 10, grid_points=64)
        assert caffarelli_floor_check(mu, nu, 10.0, grid_points=np.int64(64)) == want
        assert caffarelli_floor_check(mu, nu, np.int32(10), grid_points=64.0) == want

    @pytest.mark.parametrize(
        "source,target,n,margin",
        [
            (("uniform", (0.0, 1.0)), ("exponential", (1.0,)), 10, 0.9896066703033168),
            (("gaussian", (0.0, 1.0)), ("gaussian", (0.0, 0.25)), 5, 0.30156410601505923),
            (("beta", (2.0, 3.0)), ("gaussian", (0.0, 1.0)), 10, 3.824195240322927),
        ],
        ids=["uniform-exponential", "gaussian-gaussian", "beta-gaussian"],
    )
    def test_margin_matches_adaptive_path(self, source, target, n, margin):
        # the acceptance gate's three pairs, pinned to the margins of the
        # per-point adaptive quadrature that the fixed panel rule replaced
        mu = make_catalog_measure(*source)
        nu = make_catalog_measure(*target)
        assert caffarelli_floor_check(mu, nu, n) == pytest.approx(margin, abs=1e-10)

    def test_grid_validation(self):
        mu = make_catalog_measure("uniform", (0.0, 1.0))
        with pytest.raises(ValueError, match="at least 2"):
            caffarelli_floor_check(mu, mu, 5, grid_points=1)


class TestExperimentCatalog:
    def test_catalog_shape(self):
        exps = default_experiments()
        labels = [name for name, _ in exps]
        assert len(labels) == len(set(labels))
        kinds = [tm.kind for _, tm in exps]
        assert kinds.count("1d") == 4
        assert kinds.count("gaussian-linear") == 2
        assert kinds.count("product") == 1
        assert kinds.count("radial") == 4

    def test_labels_come_from_the_table(self):
        exps = default_experiments()
        assert EXPERIMENT_LABELS == tuple(label for label, _ in exps)
        # a 1d label names the measures its map was built from
        for label, tm in exps:
            if tm.kind == "1d":
                assert label == f"1d:{tm.source.name}->{tm.target.name}"

    def test_unknown_labels_are_refused(self):
        # a typo raises, naming every unknown label, instead of dropping rows
        bad = ["radial:ball->gaussian n=9", "gaussian:n=3", "1d:uniform->exponential"]
        unknown = "['radial:ball->gaussian n=9', '1d:uniform->exponential'];"
        with pytest.raises(ValueError, match=re.escape(f"unknown experiment labels {unknown}")):
            default_experiments(bad)
        assert [label for label, _ in default_experiments(["gaussian:n=3"])] == ["gaussian:n=3"]

    def test_catalog_is_deterministic(self):
        a = dict(default_experiments())
        b = dict(default_experiments())
        for label, tm in a.items():
            if tm.kind == "gaussian-linear":
                assert np.array_equal(tm.matrix, b[label].matrix)


class TestEntropicSamples:
    def test_self_transport_spectra_are_small(self, self_plan):
        g, plan = self_plan
        # sample from a wider gaussian than the plan's own marginal so a
        # few draws land outside the box and get skipped
        wide = GaussianMeasure([0.0, 0.0], np.diag([1.69, 1.69]))
        samples = entropic_spectral_samples(plan, wide, 2000, seed=31)
        assert samples.approximate
        assert samples.spectra.flags.f_contiguous
        assert samples.count > 1500
        assert samples.skipped > 0
        # a draw within about a grid spacing of the box sees a conditional
        # cut off by the box: 15 of the 1,994 kept here have a
        # log-eigenvalue beyond 0.01 in size, down to -0.33
        spread = np.max(np.abs(samples.spectra), axis=1)
        assert np.sum(spread >= 0.01) <= 30
        assert float(np.max(spread)) < 0.5
        rep = variance_report(samples)
        assert rep.approximate
        assert rep.max_variance < 0.01

    def test_deterministic_given_seed(self, self_plan):
        g, plan = self_plan
        a = entropic_spectral_samples(plan, g, 500, seed=5)
        b = entropic_spectral_samples(plan, g, 500, seed=5)
        assert np.array_equal(a.spectra, b.spectra)
        assert a.skipped == b.skipped

    def test_seed_must_be_a_non_negative_integer(self, self_plan):
        g, plan = self_plan
        _check_seeds(lambda seed: entropic_spectral_samples(plan, g, 100, seed).spectra)

    @pytest.mark.parametrize("axis, side", [(0, 0), (1, 1)])
    def test_box_verdict_matches_entropic_jacobian(self, self_plan, axis, side):
        # a draw on a box edge is estimated, and one a rounding step past
        # it is skipped by the sampler and refused by entropic_jacobian
        _, plan = self_plan
        edge = plan.source.box[axis][side]

        class Fixed:
            name = "fixed"

            def __init__(self, x):
                self.x = x

            def sample(self, gen, size):
                return np.tile(self.x, (size, 1))

        on, past = np.zeros(2), np.zeros(2)
        on[axis] = edge
        past[axis] = math.nextafter(edge, -np.inf if side == 0 else np.inf)
        samples = entropic_spectral_samples(plan, Fixed(on), 50, seed=0)
        assert np.all(np.isfinite(entropic_jacobian(plan, on)))
        assert samples.skipped == 0 and samples.count + samples.flagged == 50
        samples = entropic_spectral_samples(plan, Fixed(past), 50, seed=0)
        with pytest.raises(ValueError, match="outside the source box"):
            entropic_jacobian(plan, past)
        assert samples.skipped == 50 and samples.count == 0

    def test_degenerate_plan_flags_everything(self):
        xs = np.linspace(-1.0, 1.0, 8)
        src = GridMeasure(
            xs, xs, np.full((8, 8), 1.0 / 64.0), ((-1.0, 1.0), (-1.0, 1.0))
        )
        ts = np.array([-1.0, 1.0])
        tgt = GridMeasure(ts, ts, np.full((2, 2), 0.25), ((-1.0, 1.0), (-1.0, 1.0)))

        def frozen(eps, coarse=None):
            return EntropicPlan(
                source=src,
                target=tgt,
                f=np.zeros((8, 8)),
                g=np.zeros((2, 2)),
                eps=eps,
                marginal_error=0.0,
                coarse=coarse,
            )

        plan = frozen(1e-4, frozen(2e-4))
        # every draw sits where the (1, 1) corner strictly dominates, so the
        # conditional is a point mass up to clamped weights: its covariance
        # is positive but below its rounding bound, and every draw is flagged
        g = GaussianMeasure([0.4, 0.4], np.diag([0.0025, 0.0025]))
        samples = entropic_spectral_samples(plan, g, 200, seed=7)
        assert samples.count == 0
        assert samples.flagged > 0
        with pytest.raises(ValueError, match="empty"):
            variance_report(samples)
