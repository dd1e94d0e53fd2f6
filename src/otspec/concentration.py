"""Concentration experiments for the map-Hessian log-spectrum.

Quadrature and Monte Carlo estimators of Var[log lambda_i], Poincare
ratios for Lipschitz functions of the sorted log-spectrum and for
Lipschitz functionals of the Hessian itself (log quadratic forms and
their 1-D compositions among them), plus exponential-moment checks and
the curvature floor of regularized pairs.

Statistical conventions fixed across the module, so reports reproduce
bit for bit:

* Monte Carlo draws are generated in 50 index blocks with counter-derived
  RNG streams keyed (seed, block); generation could run per block in
  parallel without changing a single draw.  Draws, spectra and bank
  evaluations run over runs of consecutive whole blocks of about
  ``_RUN_ROWS`` rows.  A run's block streams go to the map, which draws
  only the uniforms its spectrum depends on (one inverse-CDF solve per
  1-D factor, the radius of a radial map, nothing for a Gaussian-linear
  map); points are drawn, by one ``sample`` call per run, only where they
  are read: for the matrix bank, which holds one run's Hessians at a
  time, and for entropic sets.  Only the spectra stack spans the whole
  set.
* Sample spectra are column-major, one contiguous column per
  log-eigenvalue index, so a block's sum down a column is numpy's
  pairwise sum of that block's rows alone.
* Every sampled statistic (variances, Poincare ratios, exponential
  moments) is a function of unweighted per-block sums over the same 50
  blocks; totals add the block sums in block order, and standard errors
  are delete-one-block jackknife over those blocks.  The quadrature
  estimator takes plain weighted sums over its nodes.
* Variance means the population variance of the sample; no Bessel
  correction, matching the quadrature estimators exactly.
"""

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from . import rng
from .brenier import (
    _EDGE as _MAP_EDGE,
    brenier_1d,
    brenier_gaussian,
    brenier_product,
    brenier_radial,
)
from .entropic import extrapolated
from .measures import (
    GaussianMeasure,
    _check_integer,
    make_catalog_measure,
    make_radial_measure,
    regularize,
)
from .spd import _log_quadform, _validated, random_spd

__all__ = [
    "SpectralSampleSet",
    "VarianceReport",
    "RatioReport",
    "BankFunction",
    "function_bank",
    "matrix_function_bank",
    "spectral_samples",
    "entropic_spectral_samples",
    "variance_report",
    "eigen_log_variance_quadrature_1d",
    "poincare_ratio",
    "matrix_poincare",
    "exp_concentration",
    "caffarelli_floor_check",
    "default_experiments",
    "EXPERIMENT_LABELS",
]

_BLOCKS = 50
# rows held at once on the Monte Carlo path: draws, spectra and bank
# evaluations run over about this many rows (whole blocks, at least one)
_RUN_ROWS = 20_000
_VARIANCE_BOUND = 4.0


# --------------------------------------------------------------- containers


@dataclass(frozen=True)
class SpectralSampleSet:
    """Batch of spectral observations of one transport map.

    ``spectra`` rows are descending log-eigenvalues of the map Hessian at
    the sampled points; the points themselves are not kept, since no
    statistic reads them.  A row that is not descending is refused: the
    bank reads ``max`` as column 0.  The array is column-major (each index's
    values contiguous), so reductions across the spectrum and moments down
    each column run on contiguous memory; a column-major input is kept as
    it is, any other is copied once, and any shape but (count, dim) is
    refused.  Every row counts once: statistics are unweighted.  The fields
    after ``spectra`` are keyword-only.
    ``flagged`` counts degenerate (not resolved positive definite)
    estimates that were excluded; ``skipped`` counts points discarded
    before estimation, for grid estimators whose draws leave the box.
    """

    spectra: np.ndarray
    _: KW_ONLY
    flagged: int = 0
    skipped: int = 0
    approximate: bool = False
    label: str = ""

    def __post_init__(self):
        if np.ndim(self.spectra) != 2:
            raise ValueError(f"spectra must be 2-D (count, dim), not shape {np.shape(self.spectra)}")
        object.__setattr__(self, "spectra", np.asfortranarray(self.spectra))
        # min and max carry any nan or infinity, so no whole-set mask is made
        ends = np.min(self.spectra, initial=0.0), np.max(self.spectra, initial=0.0)
        if not np.all(np.isfinite(ends)):
            raise ValueError("spectra must be finite")
        # one run's neighbouring column pair at a time: no temporary outgrows it
        if self.count:
            for *_, rows in _runs(self.count):
                for i in range(1, self.dim):
                    if np.any(self.spectra[rows, i - 1] < self.spectra[rows, i]):
                        raise ValueError("spectra rows must be descending")

    @property
    def count(self):
        return int(self.spectra.shape[0])

    @property
    def dim(self):
        return int(self.spectra.shape[1])

    def __repr__(self):
        tag = ", approximate" if self.approximate else ""
        return (
            f"SpectralSampleSet({self.label or 'unlabeled'}, n={self.count}, "
            f"dim={self.dim}, flagged={self.flagged}{tag})"
        )


@dataclass(frozen=True)
class VarianceReport:
    """Per-index variance of the log-spectrum with statistical context."""

    variances: np.ndarray
    standard_errors: np.ndarray
    sample_count: int
    flagged: int
    truncation: float = 0.0
    approximate: bool = False
    label: str = ""

    def __post_init__(self):
        if np.any(self.variances < 0.0):
            raise ValueError("variances must be nonnegative")
        if np.any(self.standard_errors < 0.0):
            raise ValueError("standard errors must be nonnegative")

    @property
    def bound_margin(self):
        return _VARIANCE_BOUND - self.variances

    @property
    def max_variance(self):
        return float(np.max(self.variances))

    def __repr__(self):
        tag = ", approximate" if self.approximate else ""
        return (
            f"VarianceReport({self.label or 'unlabeled'}, "
            f"max_var={self.max_variance:.6g}, n={self.sample_count}{tag})"
        )


@dataclass(frozen=True)
class RatioReport:
    """A variance-over-energy ratio with its jackknife standard error.

    ``violation_candidate`` marks the degenerate case of zero denominator
    with nonzero numerator; callers decide what to do with it.
    """

    value: float
    standard_error: float
    numerator: float
    denominator: float
    sample_count: int
    violation_candidate: bool = False

    def within(self, bound, sigmas=3.0):
        """bound check with the statistical tolerance folded in."""
        if self.violation_candidate:
            return False
        return self.value <= bound + sigmas * self.standard_error


# ------------------------------------------------------------ test functions


@dataclass(frozen=True)
class BankFunction:
    """Lipschitz function with a pointwise squared-gradient oracle.

    ``evaluate`` takes a stack and returns ``(value, grad_sq)`` from one
    evaluation of the function: rows of R^n for the spectrum bank, where
    ``grad_sq`` is the squared Euclidean gradient, exact almost everywhere
    (ties in max have measure zero), so Poincare denominators carry no
    differentiation bias; and for the matrix bank one run's
    ``_hessian_view``, the pair of its validated Hessian stack (rows, n, n)
    and their ascending log-eigenvalues (rows, n), where ``grad_sq`` bounds
    the squared metric slope pointwise.
    ``column`` declares a spectrum-bank function that equals that column
    of every (descending) spectrum, with a squared gradient of one; the
    ratio and moment entries read such functions as one observable.
    """

    name: str
    evaluate: object
    column: int | None = None


def function_bank(dim, anchor=None):
    """Fixed Lipschitz bank on R^dim: coordinates, mean, max, log-sum-exp
    at temperature one, and distance to an anchor point (default origin).
    ``max`` declares column 0 (rows are descending), and so do ``mean``
    and ``log-sum-exp`` in one dimension.
    """
    dim = _check_integer("bank dimension", dim)
    if dim < 1:
        raise ValueError("bank dimension must be at least 1")
    anchor = np.zeros(dim) if anchor is None else np.asarray(anchor, float).ravel()
    if anchor.size != dim:
        raise ValueError("anchor dimension disagrees with the bank")

    def _lse(x):
        m = np.max(x, axis=1, keepdims=True)
        p = np.exp(x - m)
        total = np.sum(p, axis=1, keepdims=True)
        value = (m + np.log(total))[:, 0]
        p /= total
        return value, np.sum(p * p, axis=1)

    single = 0 if dim == 1 else None
    return [
        *(
            BankFunction(f"coordinate[{i}]", lambda x, i=i: (x[:, i], _ones(x)), i)
            for i in range(dim)
        ),
        BankFunction("mean", lambda x: (np.mean(x, axis=1), _ones(x) / x.shape[1]), single),
        BankFunction("max", lambda x: (np.max(x, axis=1), _ones(x)), 0),
        BankFunction("log-sum-exp", _lse, single),
        BankFunction(
            "distance-to-anchor", lambda x: (np.linalg.norm(x - anchor, axis=1), _ones(x))
        ),
    ]


def _ones(x):
    return np.ones(x.shape[0])


def _tanh(y):
    t = np.tanh(y)
    return t, (1.0 - t**2) ** 2


# 1-Lipschitz outer functions on the real line, each returning its value and
# exact squared slope, keyed by the suffix they give a composite's name (the
# identity composite keeps the bare name)
_OUTER_FUNCTIONS = (
    ("", lambda y: (y, np.ones_like(y))),
    (":clamp[-1,1]", lambda y: (np.clip(y, -1.0, 1.0), (np.abs(y) < 1.0).astype(float))),
    (":tanh", _tanh),
)


def _quadform_directions(dim):
    """First basis vector and the normalized diagonal."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if dim == 1:
        return np.array([e1])
    return np.stack([e1, np.full(dim, 1.0 / math.sqrt(dim))])


def matrix_function_bank(dim, directions=None):
    """Lipschitz functionals of SPD matrices with upper gradients at most one.

    Contains each 1-D outer function (identity, clamp to [-1, 1], tanh)
    composed with the log quadratic form along each direction (default:
    the first basis vector and the normalized diagonal), and the metric
    distance to the identity.  A log quadratic form is 1-Lipschitz in the
    metric, so a composite's squared metric slope is bounded by the outer
    function's squared slope at its value; the identity composite keeps
    the bare name ``log-quadform[k]``.  Each direction is checked nonzero
    and normalized here, once; each entry's ``evaluate`` reads a
    ``_hessian_view`` and computes its log quadratic form once.
    """
    dim = _check_integer("bank dimension", dim)
    directions = _quadform_directions(dim) if directions is None else directions
    rows = np.atleast_2d(np.asarray(directions, float))
    if rows.shape[1:] != (dim,):
        raise ValueError(f"directions have shape {rows.shape}, expected (k, {dim})")
    if not rows.any(axis=1).all():
        raise ValueError("direction vector must be nonzero")
    units = [v / np.linalg.norm(v) for v in rows]
    return [
        *(
            BankFunction(f"log-quadform[{k}]{suffix}", lambda hv, v=v, g=g: g(_log_quadform(hv[0], v)))
            for k, v in enumerate(units)
            for suffix, g in _OUTER_FUNCTIONS
        ),
        BankFunction("distance-to-identity", lambda hv: (np.linalg.norm(hv[1], axis=1), _ones(hv[1]))),
    ]


def _hessian_view(h):
    """One run's Hessian stack as every matrix-bank entry reads it: the
    stack validated once (``hessian[k]`` names the first that fails) and
    its ascending log-eigenvalues, ``(a, log_eigs)``."""
    a, _ = _validated(h, "hessian", stack=True, cholesky=True)
    return a, np.log(np.linalg.eigvalsh(a))


# ----------------------------------------------------------------- sampling


class _BlockStreams:
    """The generator for one run of blocks, handed to ``measure.sample`` or
    to a map's ``_coupled_log_spectra``.

    It has only ``uniform`` and ``standard_normal``, and takes only
    requests whose leading size is the whole run.  Each request is cut
    into the blocks' sizes and the rows of block ``first + b`` are drawn
    from ``rng.stream(seed, first + b)``, in block order, so every block
    stream yields the values it would yield to a per-block ``sample``
    call, and the caller sees the whole run at once.  The block streams
    are made at the first request, so a run that draws nothing makes none.
    """

    def __init__(self, seed, first, sizes):
        self._key = seed, first
        self._streams = None
        self._sizes = sizes
        self._rows = sum(sizes)

    def _fill(self, kind, size):
        shape = tuple(np.atleast_1d(size))
        if shape[0] != self._rows:
            raise ValueError(f"draws come in runs of {self._rows} rows, not {size}")
        if self._streams is None:
            seed, first = self._key
            self._streams = [rng.stream(seed, first + b) for b in range(len(self._sizes))]
        out = np.empty(shape)
        lo = 0
        for stream, k in zip(self._streams, self._sizes):
            out[lo : lo + k] = getattr(stream, kind)(size=(k,) + shape[1:])
            lo += k
        return out

    def uniform(self, size):
        return self._fill("uniform", size)

    def standard_normal(self, size):
        return self._fill("standard_normal", size)


def _block_sizes(count):
    """Row counts of the 50 jackknife blocks of ``count`` rows.

    With ``base, extra = divmod(count, 50)``, each of the first ``extra``
    blocks holds ``base + 1`` rows and every other block ``base``.
    """
    base, extra = divmod(int(count), _BLOCKS)
    return [base + (b < extra) for b in range(_BLOCKS)]


def _runs(count):
    """The jackknife blocks of ``count`` rows, in runs of consecutive whole blocks.

    A run holds ``max(1, _RUN_ROWS // base)`` blocks, ``base`` being the
    shorter block size.  Yields each run's first block, its block sizes
    and its slice of rows, in block order.  An empty set has no runs: no
    statistic is defined on it, so it is refused.
    """
    if count == 0:
        raise ValueError("sample set is empty (all draws flagged or skipped)")
    sizes = _block_sizes(count)
    step = max(1, _RUN_ROWS // max(sizes[-1], 1))
    lo = 0
    for first in range(0, _BLOCKS, step):
        run = sizes[first : first + step]
        yield first, run, slice(lo, lo + sum(run))
        lo += sum(run)


def _run_streams(n_samples, seed):
    """``(_BlockStreams, rows)`` for each run of ``_runs(n_samples)``.

    Block b draws from ``rng.stream(seed, b)``.  Runs are whole blocks
    because a sampler may make several requests per call (radii, then
    normals): a block split across runs would interleave them.  The seed
    is a non-negative integer, checked here, so that no draw is made from
    a truncated one.
    """
    n_samples = _check_integer("n_samples", n_samples)
    if n_samples < _BLOCKS:
        raise ValueError(f"need at least {_BLOCKS} samples, got {n_samples}")
    seed = _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return [(_BlockStreams(seed, first, sizes), rows) for first, sizes, rows in _runs(n_samples)]


def _draw(measure, n_samples, seed):
    """Draws from ``measure``, one (rows, n) array per run of ``_runs(n_samples)``.

    A run is one ``measure.sample`` call on its ``_BlockStreams``, so each
    1-D factor runs one inverse-CDF solve per run.
    """
    return (
        measure.sample(gen, size=rows.stop - rows.start).reshape(rows.stop - rows.start, -1)
        for gen, rows in _run_streams(n_samples, seed)
    )


def spectral_samples(tm, n_samples, seed, label=None):
    """Monte Carlo spectral observations of an analytic transport map.

    Each run's spectra come from ``tm._coupled_log_spectra`` on the run's
    block streams: it reads only the uniforms the spectrum depends on (one
    per draw and factor of a 1-D or product map, the radius of a radial
    map's draw, none for a Gaussian-linear map), so no source point is
    drawn.
    """
    runs = _run_streams(n_samples, seed)
    spectra = np.empty((int(n_samples), tm.dim), order="F")
    for gen, rows in runs:
        spectra[rows] = tm._coupled_log_spectra(gen, rows.stop - rows.start)
    return SpectralSampleSet(
        spectra=spectra,
        label=label or f"{tm.kind}:{tm.source.name}->{tm.target.name}",
    )


def entropic_spectral_samples(plan, measure, n_samples, seed, label=None):
    """Spectral observations from a grid plan's barycentric map.

    Draws from ``measure``, drops points outside the source box
    (``skipped``), takes the extrapolated Jacobians in one batched
    evaluation, and excludes estimates whose smallest eigenvalue is not
    above their rounding bound (``flagged``), as where the conditional is
    nearly a point mass.  The resulting set is marked approximate.
    """
    pts = np.concatenate(list(_draw(measure, n_samples, seed)))
    inside = plan.source.contains(pts)
    _, jac, bound = extrapolated(plan, pts[inside])
    eigs = np.linalg.eigvalsh(jac)
    keep = eigs[:, 0] > bound
    eigs = eigs[keep]
    spectra = np.log(eigs[:, ::-1], out=np.empty(eigs.shape, order="F"))
    return SpectralSampleSet(
        spectra=spectra,
        flagged=int(np.sum(~keep)),
        skipped=int(np.sum(~inside)),
        approximate=True,
        label=label or "entropic-grid",
    )


# ---------------------------------------------------------------- jackknife


def _per_block(a, sizes=None):
    """Sums of the rows of ``a`` over each jackknife block, shape (blocks, ...).

    ``sizes`` are the blocks' row counts, longer blocks first, at most two
    distinct counts: one run of ``_runs``, by default all 50 blocks of
    ``len(a)`` rows.  Each group of equal-sized blocks is one reduction of
    a column-major reshape, so every block is summed as a contiguous run of
    rows, as numpy would sum that block alone, and a block's sum is the
    same whichever run holds it.  The result is row-major whatever the
    layout of ``a``, so a reduction over the blocks adds them in one order.
    """
    sizes = _block_sizes(a.shape[0]) if sizes is None else sizes
    k, tail = sizes[0], a.shape[1:]
    m = sizes.count(k)
    out = np.empty((len(sizes),) + tail)
    out[:m] = np.sum(a[: k * m].reshape((k, m) + tail, order="F"), axis=0)
    out[m:] = np.sum(a[k * m :].reshape((k - 1, len(sizes) - m) + tail, order="F"), axis=0)
    return out


def _moment_blocks(values, sizes):
    """Per-block row counts and sums of v and v^2, for the blocks of ``sizes``.

    The counts are shaped to broadcast against the sums.
    """
    counts = np.reshape(np.array(sizes, float), (-1,) + (1,) * (values.ndim - 1))
    return counts, _per_block(values, sizes), _per_block(values * values, sizes)


def _stacked(runs):
    """The per-block sums of each run, joined into (50, ...) stacks in block order."""
    return [np.concatenate(sums) for sums in zip(*runs)]


def _totals(blocks):
    """Each per-block sum added over the blocks in block order."""
    return [np.cumsum(sums, axis=0)[-1] for sums in blocks]


def _jackknife(stat, blocks, valid):
    """``stat`` of the totals of ``blocks``, with its delete-one-block error.

    ``stat`` takes one sum per entry of ``blocks``: the totals, or the 50
    leave-one-out sums stacked on axis 0, which it sees only if ``valid``
    holds on every one of them; otherwise the error is zero.
    """
    totals = _totals(blocks)
    value = stat(*totals)
    rest = [t - b for t, b in zip(totals, blocks)]
    if not np.all(valid(*rest)):
        return value, np.zeros_like(value)
    thetas = stat(*rest)
    dev = thetas - np.mean(thetas, axis=0)
    return value, np.sqrt((_BLOCKS - 1.0) / _BLOCKS * np.sum(dev * dev, axis=0))


def _variance_from_sums(s0, s1, s2):
    mean = s1 / s0
    return np.maximum(s2 / s0 - mean * mean, 0.0)


# ---------------------------------------------------------------- variances


def variance_report(samples):
    """Per-index variance of the log-spectrum with jackknife errors."""
    var, se = _jackknife(
        _variance_from_sums,
        _stacked(
            _moment_blocks(samples.spectra[rows], sizes)
            for _, sizes, rows in _runs(samples.count)
        ),
        lambda s0, s1, s2: s0 > 0.0,
    )
    return VarianceReport(
        variances=var,
        standard_errors=se,
        sample_count=samples.count,
        flagged=samples.flagged,
        approximate=samples.approximate,
        label=samples.label,
    )


def _panel_nodes(nodes):
    """Dyadic panels of the trusted quantile window, with GL nodes on each.

    Panels shrink geometrically into both endpoints down to the map
    evaluation clip, so integrable log blowups of the integrand are
    graded away; beyond the clip the maps saturate and report no
    information, so that tail mass is what the truncation budget
    charges for.
    """
    nodes = _check_integer("nodes", nodes)
    if nodes < 32:
        raise ValueError("quadrature needs at least 32 nodes")
    edges = [_MAP_EDGE] + [2.0**-j for j in range(29, 0, -1)]
    degree = max(4, nodes // (2 * (len(edges) - 1)))
    z, w = np.polynomial.legendre.leggauss(degree)
    us, ws = [], []
    for a, b in zip(edges, edges[1:]):
        for lo, hi in ((a, b), (1.0 - b, 1.0 - a)):
            us.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * z)
            ws.append(0.5 * (hi - lo) * w)
    u = np.concatenate(us)
    order = np.argsort(u)
    return u[order], np.concatenate(ws)[order], 2.0 * _MAP_EDGE


def eigen_log_variance_quadrature_1d(tm, nodes=2048, label=None):
    """Deterministic Var[log Phi''(X)] in the quantile variable.

    Writes X = F^{-1}(U) with U uniform, so the variance is an integral
    over (0,1) of log Phi'' at the coupling of each node u, which evaluates
    no CDF; composite Gauss-Legendre on dyadic panels handles the
    catalog's integrable endpoint blowups.  The report's truncation
    field bounds the ignored tail contribution by tail mass times the
    squared observed log-range, and any non-finite node is dropped into
    the same budget.  The moments are plain weighted sums over the nodes.
    """
    if tm.dim != 1:
        raise ValueError("quadrature variance is for one-dimensional maps")
    u, w, tail = _panel_nodes(nodes)
    vals = tm._coupled_log_d2(u)
    good = np.isfinite(vals)
    dropped = float(np.sum(w[~good]))
    if not np.any(good):
        raise ValueError("sample set is empty (every quadrature node is non-finite)")
    vals, w = vals[good], w[good]
    wv = w * vals
    var = _variance_from_sums(np.sum(w), np.sum(wv), np.sum(wv * vals))
    return VarianceReport(
        variances=np.atleast_1d(var),
        standard_errors=np.zeros(1),
        sample_count=vals.size,
        flagged=int(np.sum(~good)),
        truncation=(tail + dropped) * float(np.max(vals) - np.min(vals)) ** 2,
        label=label or f"quadrature:{tm.source.name}->{tm.target.name}",
    )


# ------------------------------------------------------------- ratio checks


def _evaluations(f, stack):
    """``f.evaluate`` on each run of whole blocks of ``stack``'s rows, in order.

    Yields the run's rows, its block sizes, and the values and squared
    gradients on those rows, so no whole-set value array is needed.
    """
    for _, sizes, rows in _runs(stack.shape[0]):
        yield rows, sizes, *f.evaluate(stack[rows])


def _ratio_blocks(value, grad_sq, sizes):
    """Per-block counts and sums of f, f^2 and |grad f|^2 on one run of blocks."""
    value, grad_sq = np.asarray(value, float), np.asarray(grad_sq, float)
    return (*_moment_blocks(value, sizes), _per_block(grad_sq, sizes))


def _ratio_report(blocks, count):
    """Var[f] over 4 E|grad f|^2, with its error, from the ``_ratio_blocks``
    of every run stacked in block order, for a set of ``count`` rows."""
    t0, t1, t2, tg = _totals(blocks)
    num = float(_variance_from_sums(t0, t1, t2))
    den = float(4.0 * tg / t0)
    if den <= 0.0:
        # no energy: a constant function's ratio is 0, any other's a candidate
        candidate = not num <= 1e-14 * max(num, float(t2 / t0), 1e-300)
        return RatioReport(math.inf if candidate else 0.0, 0.0, num, den, count, candidate)
    _, se = _jackknife(
        lambda s0, s1, s2, sg: _variance_from_sums(s0, s1, s2) / (4.0 * sg / s0),
        blocks,
        lambda s0, s1, s2, sg: (s0 > 0.0) & (sg > 0.0),
    )
    return RatioReport(num / den, float(se), num, den, count)


def _distinct(samples, bank):
    """The distinct observables of a spectrum ``bank`` on ``samples``: one
    function per observable (the first entry that reads it), and each
    entry's position in that list.

    Neighbouring columns with the same bits, compared run by run, are one
    observable (rows are descending, so equal columns are neighbours).  An
    entry that declares a ``column`` reads the first column of its run of
    equal columns; every other entry is its own observable.
    """
    bits, first = samples.spectra.view(np.int64), [0]
    for i in range(1, samples.dim):
        runs = _runs(samples.count)
        same = all(np.array_equal(bits[rows, i], bits[rows, i - 1]) for *_, rows in runs)
        first.append(first[-1] if same else i)
    # an undeclared entry's key lies past every column's
    keys = [samples.dim + k if f.column is None else first[f.column] for k, f in enumerate(bank)]
    distinct = list(dict.fromkeys(keys))
    return [bank[keys.index(key)] for key in distinct], [distinct.index(key) for key in keys]


def _ratio(samples, f):
    """Var[f(Lambda(X))] over 4 E|grad f|^2(Lambda(X)) with jackknife error."""
    return _ratio_report(
        _stacked(
            _ratio_blocks(value, grad_sq, sizes)
            for _, sizes, value, grad_sq in _evaluations(f, samples.spectra)
        ),
        samples.count,
    )


def poincare_ratio(samples, bank):
    """The ``_ratio`` of each function of ``bank``, in order, one
    ``RatioReport`` per distinct observable (``_distinct``)."""
    functions, at = _distinct(samples, bank)
    reports = [_ratio(samples, f) for f in functions]
    return [reports[k] for k in at]


def matrix_poincare(tm, bank, n_samples, seed):
    """The ratio of each matrix functional of ``bank`` on the Hessian-valued
    pushforward, one ``RatioReport`` per function, in order.

    The draws are those ``spectral_samples(tm, n_samples, seed)`` reads.
    Each run of ``_draw`` takes one ``tm.hessian`` call and one
    ``_hessian_view``, evaluates every function once on that view and
    keeps only their per-block sums, so no Hessian stack spans the whole set.
    """
    n_samples = _check_integer("n_samples", n_samples)
    sums = [[] for _ in bank]
    for pts, (_, sizes, _) in zip(_draw(tm.source, n_samples, seed), _runs(n_samples)):
        view = _hessian_view(tm.hessian(pts))
        for f, runs in zip(bank, sums):
            runs.append(_ratio_blocks(*f.evaluate(view), sizes))
        del view
    return [_ratio_report(_stacked(runs), n_samples) for runs in sums]


# --------------------------------------------------- exponential concentration


def _constants(c):
    """``(scalar, constants)`` of one constant or a sequence, all checked > 0.

    The test is ``not x > 0``, so a NaN constant is refused with the rest.
    """
    scalar = np.ndim(c) == 0
    cs = [float(c)] if scalar else [float(x) for x in c]
    if not all(x > 0.0 for x in cs):
        raise ValueError("exponential concentration needs c > 0")
    return scalar, cs


def _moments(samples, f, cs):
    """E exp(c |f - mean|) for each of ``cs``, from one evaluation of ``f``.

    ``f`` is evaluated in runs of whole blocks into one whole-set array,
    which then holds |f - mean|.  The distinct finite constants take one
    ``exp`` pass per run of blocks, over a (constants, run rows) buffer.
    """
    n = samples.count
    a = np.empty(n)
    sums = []
    for rows, sizes, value, _ in _evaluations(f, samples.spectra):
        a[rows] = value
        sums.append((_per_block(np.asarray(value, float), sizes),))
    (total,) = _totals(_stacked(sums))
    np.abs(np.subtract(a, total / n, out=a), out=a)
    # c * max|f - mean| equals max(c |f - mean|) bit for bit, since rounding
    # is monotone, so the overflow test needs no product array
    top = float(np.max(a, initial=0.0))
    moments = dict.fromkeys(cs, math.inf)
    live = [x for x in moments if not x * top > 700.0]
    if live:
        k, col = len(live), np.array(live)[:, None]
        runs = list(_runs(n))
        buf = np.empty(k * max(rows.stop - rows.start for *_, rows in runs))
        sums = []
        for _, sizes, rows in runs:
            b = buf[: k * (rows.stop - rows.start)].reshape(k, -1)
            np.multiply(col, a[rows], out=b)
            np.exp(b, out=b)
            b *= 1.0 / n
            sums.append((_per_block(b.T, sizes),))
        (totals,) = _totals(_stacked(sums))
        moments.update(zip(live, totals.tolist()))
    return [moments[x] for x in cs]


def exp_concentration(samples, bank, c):
    """Empirical E exp(c |f(Lambda(X)) - mean|) for each ``f`` of ``bank``,
    in order; inf signals overflow.

    ``c`` is one constant, which gives each function a float, or a sequence
    of them, which gives each a list with one moment per constant, from
    one evaluation of ``f`` and its mean.  The mean is the block-order
    total of the per-block sums of f over the count, and each moment the
    block-order total of the per-block sums of exp(c |f - mean|) / count.
    Each term is scaled by 1 / count before it is summed, so a moment
    overflows only when a term does.  Each run of blocks takes one ``exp``
    pass for all the distinct finite constants at once, over a (constants,
    run rows) stack whose rows are summed block by block.  Every constant
    must be > 0; NaN is refused.  Each distinct observable (``_distinct``)
    is evaluated once and takes one moment pass.
    """
    scalar, cs = _constants(c)
    functions, at = _distinct(samples, bank)
    moments = [_moments(samples, f, cs) for f in functions]
    return [moments[k][0] if scalar else list(moments[k]) for k in at]


# ------------------------------------------------------------ curvature floor


def caffarelli_floor_check(mu, nu, n_reg, grid_points=512):
    """Margin of the regularized pair's map curvature over 1/n_reg^2.

    Builds the monotone map between regularize(mu, n_reg) and
    regularize(nu, n_reg) and minimizes Phi'' over a uniform quantile
    grid; a positive return certifies the floor on that grid.  Each grid
    level u pairs F^{-1}(u) with G^{-1}(u), as the sampled path does, and
    Phi'' is the quotient of the two node-table densities there
    (``Map1D._coupled_log_d2``).  ``n_reg`` and ``grid_points`` must be
    integers; a bool or a non-integral value raises ``ValueError``.
    """
    n_reg = _check_integer("n_reg", n_reg)
    grid_points = _check_integer("grid_points", grid_points)
    if grid_points < 2:
        raise ValueError("quantile grid needs at least 2 points")
    tm = brenier_1d(regularize(mu, n_reg), regularize(nu, n_reg))
    u = (np.arange(grid_points) + 0.5) / grid_points
    d2 = np.exp(tm._coupled_log_d2(u))
    return float(np.min(d2)) - 1.0 / n_reg**2


# ------------------------------------------------------------ experiment list


# the fixed catalog, one (label, kind, spec) row per map in report order: a
# 1d row names its source and target catalog measures, a gaussian or radial
# row its dimension, and the product row how many of the 1d maps it
# multiplies; config validation reads the labels without building a map
_EXPERIMENT_SPECS = (
    ("1d:uniform(0.0,1.0)->exponential(1.0)", "1d",
     (("uniform", (0.0, 1.0)), ("exponential", (1.0,)))),
    ("1d:gaussian(0.0,1.0)->logistic(0.0,1.0)", "1d",
     (("gaussian", (0.0, 1.0)), ("logistic", (0.0, 1.0)))),
    ("1d:beta(2.0,3.0)->gaussian(0.0,1.0)", "1d",
     (("beta", (2.0, 3.0)), ("gaussian", (0.0, 1.0)))),
    ("1d:gamma(3.0,1.0)->gaussian(0.5,0.8)", "1d",
     (("gamma", (3.0, 1.0)), ("gaussian", (0.5, 0.8)))),
    ("gaussian:n=3", "gaussian", 3),
    ("gaussian:n=5", "gaussian", 5),
    ("product:n=3", "product", 3),
    ("radial:ball->gaussian n=2", "radial", 2),
    ("radial:ball->gaussian n=3", "radial", 3),
    ("radial:ball->gaussian n=5", "radial", 5),
    ("radial:ball->gaussian n=8", "radial", 8),
)

EXPERIMENT_LABELS = tuple(label for label, _, _ in _EXPERIMENT_SPECS)


def default_experiments(labels=None):
    """Fixed desk-scale catalog of analytic maps, in deterministic order.

    Four one-dimensional pairs, two Gaussian pairs with frozen random
    covariances, one three-factor product, and the ball-to-Gaussian
    radial family in dimensions 2, 3, 5, 8; the labels are
    ``EXPERIMENT_LABELS``.  Given ``labels``, only those rows are built,
    in the same order, and a product row builds the 1d maps it multiplies.
    A label not in ``EXPERIMENT_LABELS`` raises ``ValueError``.
    """
    wanted = dict.fromkeys(EXPERIMENT_LABELS if labels is None else labels)
    unknown = [label for label in wanted if label not in EXPERIMENT_LABELS]
    if unknown:
        raise ValueError(f"unknown experiment labels {unknown}; choose from {list(EXPERIMENT_LABELS)}")
    factors = max(
        (spec for label, kind, spec in _EXPERIMENT_SPECS
         if kind == "product" and label in wanted),
        default=0,
    )
    out = []
    maps_1d = []
    for label, kind, spec in _EXPERIMENT_SPECS:
        if kind == "1d" and (label in wanted or len(maps_1d) < factors):
            (na, pa), (nb, pb) = spec
            tm = brenier_1d(make_catalog_measure(na, pa), make_catalog_measure(nb, pb))
            maps_1d.append(tm)
        elif label not in wanted:
            continue
        elif kind == "gaussian":
            s = rng.stream(2024, 10, spec)
            mu = GaussianMeasure(np.zeros(spec), random_spd(s, spec, log_spread=1.5))
            nu = GaussianMeasure(0.3 * np.ones(spec), random_spd(s, spec, log_spread=1.5))
            tm = brenier_gaussian(mu, nu)
        elif kind == "product":
            tm = brenier_product(maps_1d[:spec])
        else:
            tm = brenier_radial(
                make_radial_measure("uniform-ball", spec),
                make_radial_measure("gaussian", spec),
            )
        if label in wanted:
            out.append((label, tm))
    return out
