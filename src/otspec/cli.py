"""Config-driven experiment runner and report emitter.

One invocation = one experiment kind = one report.  The subcommands mirror
the library's suites: ``geometry-selftest``, ``variance``, ``poincare``,
``gamma2-check``, ``sinkhorn2d``, ``concentration``.

Conventions fixed here and relied on by the tests:

* Configs are JSON objects validated against a single flat schema.
  Unknown keys are rejected, every violation is reported with its field
  path, and absent keys get the documented defaults (100000 Monte Carlo
  samples, 2048 quadrature nodes, seed 2024).  Fields a kind does not
  use are accepted and ignored.
* Reports serialize deterministically: records in computation order,
  keys sorted, floats verbatim.  The wall clock lives only on the
  in-memory report, so identical configs and seeds give byte-identical
  files.
* Every record carries the machine tag of the inequality it checks (the
  ``claim`` column), a value, a tolerance and a pass flag.  A record
  whose evaluation raised keeps value ``inf``, pass ``False`` and the
  error text in ``note``; the run continues.
* Exit codes: 0 all checks passed, 1 at least one failed, 2 invalid
  config, 3 unexpected runtime failure.
* ``OTSPEC_OUT`` names the default output directory; ``--out`` wins.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

# the other layers are imported where a kind or a config field needs them,
# so a process pays only for what its run uses: geometry-selftest loads
# spd and numpy, and no kind loads scipy.integrate or scipy.interpolate
from . import rng
from . import __version__
from .spd import (
    _LOG_SPREAD,
    _geodesic_lengths,
    _spd_from_draws,
    log_eigen_map,
    log_quadratic_form,
    spd_distance,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckRecord",
    "ExperimentReport",
    "KINDS",
    "default_config",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
    "run_experiment",
    "emit_report",
    "render_report",
    "report_to_dict",
    "report_from_dict",
    "main",
]

KINDS = (
    "geometry-selftest",
    "variance",
    "poincare",
    "gamma2-check",
    "sinkhorn2d",
    "concentration",
)

_MAP_KINDS = ("1d", "gaussian-linear", "product", "radial")
_RADIAL_FAMILIES = ("uniform-ball", "gaussian")
_BANK_SELECTORS = ("coordinates", "mean", "max", "log-sum-exp", "distance-to-anchor")
_OUT_ENV = "OTSPEC_OUT"

_DEFAULT_MAP = {
    "kind": "1d",
    "source": {"name": "uniform", "params": [0.0, 1.0]},
    "target": {"name": "exponential", "params": [1.0]},
}
_DEFAULT_C_GRID = tuple(round(0.02 * k, 2) for k in range(1, 11))
# the gating constant for the exponential-moment bound; the sweep explores
# the grid around it
_GATING_C = 0.1


class ConfigError(Exception):
    """Invalid configuration; ``messages`` lists every violation found."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 2024
    samples: int = 100_000
    quadrature_nodes: int = 2048
    map: dict | None = None
    experiments: object = "default"
    bank: object = "all"
    c_grid: tuple = _DEFAULT_C_GRID
    dims: tuple = (1, 2, 3)
    pairs: int = 1000
    triples: int = 20
    points: int = 100
    grid: int = 64
    out: str | None = None
    format: str = "json"
    dump_samples: bool = False


@dataclass(frozen=True)
class CheckRecord:
    name: str
    claim: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class ExperimentReport:
    """Serializable run outcome; the wall clock never enters the files."""

    config: dict
    config_hash: str
    seed: int
    version: str
    records: tuple
    wall_clock_seconds: float = 0.0
    samples_dump: tuple = field(default=(), repr=False)


# ------------------------------------------------------------- configuration


def default_config(kind):
    """The documented defaults for one experiment kind."""
    if kind not in KINDS:
        raise ConfigError([f"kind: unknown experiment kind {kind!r}"])
    cfg = ExperimentConfig(kind=kind)
    if kind == "geometry-selftest":
        cfg = replace(cfg, dims=(2, 3, 4, 5, 6, 7, 8))
    if kind == "variance":
        cfg = replace(cfg, map=dict(_DEFAULT_MAP))
    return cfg


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x):
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _check_catalog_spec(spec, path, errors):
    from .measures import CATALOG_NAMES, check_catalog_params

    if not isinstance(spec, dict):
        errors.append(f"{path}: expected an object with name and params")
        return
    extra = set(spec) - {"name", "params"}
    for key in sorted(extra):
        errors.append(f"{path}.{key}: unknown key")
    name = spec.get("name")
    params = spec.get("params", [])
    if not isinstance(name, str) or name not in CATALOG_NAMES:
        errors.append(f"{path}.name: expected one of {', '.join(CATALOG_NAMES)}")
        return
    if not isinstance(params, list) or not all(_is_num(p) for p in params):
        errors.append(f"{path}.params: expected a list of numbers")
        return
    # the parameters only: the run builds the measure, once
    try:
        check_catalog_params(name, params)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")


def _check_gaussian_spec(spec, path, errors):
    """Check one gaussian side; return its dimension, or None if it is invalid."""
    from .measures import GaussianMeasure

    if not isinstance(spec, dict):
        errors.append(f"{path}: expected an object with mean and cov")
        return None
    extra = set(spec) - {"mean", "cov"}
    for key in sorted(extra):
        errors.append(f"{path}.{key}: unknown key")
    mean = spec.get("mean")
    if not isinstance(mean, list) or not mean or not all(_is_num(m) for m in mean):
        errors.append(f"{path}.mean: expected a non-empty list of numbers")
        return None
    try:
        cov = np.asarray(spec.get("cov"), float)
        if not np.all(np.isfinite(cov)):
            raise ValueError("cov entries must be finite")
        GaussianMeasure(mean, cov)
    except (ValueError, TypeError) as exc:
        errors.append(f"{path}: {exc}")
        return None
    return len(mean)


def _check_radial_spec(spec, path, errors):
    """Check one radial side; return its dimension, or None if it is invalid."""
    from .measures import make_radial_measure

    if not isinstance(spec, dict):
        errors.append(f"{path}: expected an object with family, dim and params")
        return None
    extra = set(spec) - {"family", "dim", "params"}
    for key in sorted(extra):
        errors.append(f"{path}.{key}: unknown key")
    family = spec.get("family")
    dim = spec.get("dim")
    params = spec.get("params", [])
    if family not in _RADIAL_FAMILIES:
        errors.append(f"{path}.family: expected one of {', '.join(_RADIAL_FAMILIES)}")
        return None
    if not _is_int(dim) or not 2 <= dim <= 16:
        errors.append(f"{path}.dim: expected an integer in [2, 16]")
        return None
    if not isinstance(params, list) or not all(_is_num(p) for p in params):
        errors.append(f"{path}.params: expected a list of numbers")
        return None
    try:
        make_radial_measure(family, dim, *(float(p) for p in params))
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None
    return dim


def _check_map_spec(spec, errors):
    if not isinstance(spec, dict):
        errors.append("map: expected an object")
        return
    kind = spec.get("kind")
    if kind not in _MAP_KINDS:
        errors.append(f"map.kind: expected one of {', '.join(_MAP_KINDS)}")
        return
    if kind == "product":
        allowed = {"kind", "factors"}
    else:
        allowed = {"kind", "source", "target"}
    for key in sorted(set(spec) - allowed):
        errors.append(f"map.{key}: unknown key")
    if kind == "1d":
        _check_catalog_spec(spec.get("source"), "map.source", errors)
        _check_catalog_spec(spec.get("target"), "map.target", errors)
    elif kind in ("gaussian-linear", "radial"):
        check = _check_gaussian_spec if kind == "gaussian-linear" else _check_radial_spec
        dims = [check(spec.get(side), f"map.{side}", errors) for side in ("source", "target")]
        if None not in dims and dims[0] != dims[1]:
            errors.append("map: source and target dimensions disagree")
    elif kind == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            errors.append("map.factors: expected a non-empty list of 1d pairs")
            return
        for i, f in enumerate(factors):
            if not isinstance(f, dict) or set(f) - {"source", "target"}:
                errors.append(f"map.factors[{i}]: expected an object with source and target")
                continue
            _check_catalog_spec(f.get("source"), f"map.factors[{i}].source", errors)
            _check_catalog_spec(f.get("target"), f"map.factors[{i}].target", errors)


def config_from_dict(data):
    """Validate a raw mapping and return the filled-in config.

    Collects every violation before raising so one round trip through the
    error output fixes the whole file.
    """
    errors = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError([f"kind: expected one of {', '.join(KINDS)}"])
    base = default_config(kind)
    names = {f.name for f in fields(ExperimentConfig)}
    for key in sorted(set(data) - names):
        errors.append(f"{key}: unknown key")

    out = {}

    def take_int(key, lo, hi):
        if key not in data:
            return
        v = data[key]
        if not _is_int(v) or not lo <= v <= hi:
            errors.append(f"{key}: expected an integer in [{lo}, {hi}]")
        else:
            out[key] = v

    take_int("seed", 0, 2**63 - 1)
    take_int("samples", 50, 10**8)
    take_int("quadrature_nodes", 32, 10**6)
    take_int("pairs", 1, 10**6)
    take_int("triples", 1, 10**4)
    take_int("points", 1, 10**5)
    take_int("grid", 8, 512)

    if "format" in data:
        if data["format"] not in ("json", "csv"):
            errors.append("format: expected json or csv")
        else:
            out["format"] = data["format"]
    if "dump_samples" in data:
        if not isinstance(data["dump_samples"], bool):
            errors.append("dump_samples: expected a boolean")
        else:
            out["dump_samples"] = data["dump_samples"]
    if "out" in data:
        if data["out"] is not None and not isinstance(data["out"], str):
            errors.append("out: expected a directory path or null")
        else:
            out["out"] = data["out"]

    if "dims" in data:
        v = data["dims"]
        lo, hi = (2, 8) if kind == "geometry-selftest" else (1, 4)
        if (
            not isinstance(v, list)
            or not v
            or not all(_is_int(d) and lo <= d <= hi for d in v)
        ):
            errors.append(f"dims: expected a non-empty list of integers in [{lo}, {hi}]")
        else:
            out["dims"] = tuple(v)

    if "c_grid" in data:
        v = data["c_grid"]
        if (
            not isinstance(v, list)
            or not v
            or not all(_is_num(c) and 0.0 < float(c) <= 5.0 for c in v)
        ):
            errors.append("c_grid: expected a non-empty list of constants in (0, 5]")
        else:
            out["c_grid"] = tuple(float(c) for c in v)

    if "bank" in data:
        v = data["bank"]
        if v == "all":
            out["bank"] = "all"
        elif (
            isinstance(v, list)
            and v
            and all(isinstance(b, str) and b in _BANK_SELECTORS for b in v)
        ):
            out["bank"] = tuple(v)
        else:
            errors.append(
                f"bank: expected \"all\" or a non-empty list from {', '.join(_BANK_SELECTORS)}"
            )

    if "experiments" in data:
        v = data["experiments"]
        if v == "default":
            out["experiments"] = "default"
        elif isinstance(v, list) and v and all(isinstance(e, str) for e in v):
            if kind == "sinkhorn2d":
                known = _SINKHORN_CASES
            else:
                from .concentration import EXPERIMENT_LABELS as known
            unknown = [e for e in v if e not in known]
            for e in unknown:
                errors.append(f"experiments: unknown label {e!r}")
            if not unknown:
                out["experiments"] = tuple(v)
        else:
            errors.append('experiments: expected "default" or a non-empty list of labels')

    if "map" in data and data["map"] is not None:
        _check_map_spec(data["map"], errors)
        if not errors:
            out["map"] = data["map"]
    if kind == "variance" and data.get("map") is None and "map" in data:
        errors.append("map: variance experiments need a map spec")

    if errors:
        raise ConfigError(errors)
    return replace(base, **out)


def _read_config(path):
    """The raw mapping of a JSON config file, not yet validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None


def parse_config(path):
    """Read and validate a JSON config file."""
    return config_from_dict(_read_config(path))


def config_to_dict(cfg):
    """Plain-JSON form of a config; inverse of ``config_from_dict``."""
    d = {}
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = list(v)
        d[f.name] = v
    return d


def config_hash(cfg):
    """Content hash of the canonical JSON form."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- reports


def _to_json_float(v):
    return float(v) if math.isfinite(v) else repr(float(v))


def _from_json_float(v):
    return float(v)


def report_to_dict(r):
    return {
        "config": r.config,
        "config_hash": r.config_hash,
        "seed": r.seed,
        "version": r.version,
        "records": [
            {
                "name": rec.name,
                "claim": rec.claim,
                "value": _to_json_float(rec.value),
                "tolerance": _to_json_float(rec.tolerance),
                "passed": rec.passed,
                "note": rec.note,
            }
            for rec in r.records
        ],
    }


def report_from_dict(d):
    records = tuple(
        CheckRecord(
            name=rec["name"],
            claim=rec["claim"],
            value=_from_json_float(rec["value"]),
            tolerance=_from_json_float(rec["tolerance"]),
            passed=bool(rec["passed"]),
            note=rec.get("note", ""),
        )
        for rec in d["records"]
    )
    return ExperimentReport(
        config=d["config"],
        config_hash=d["config_hash"],
        seed=d["seed"],
        version=d["version"],
        records=records,
    )


def render_report(r, fmt):
    """Report file bytes; deterministic for a fixed report."""
    if fmt == "json":
        return (json.dumps(report_to_dict(r), indent=2, sort_keys=True) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "claim", "value", "tolerance", "pass"])
        for rec in r.records:
            writer.writerow(
                [rec.name, rec.claim, repr(rec.value), repr(rec.tolerance),
                 "true" if rec.passed else "false"]
            )
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(r, fmt, path):
    """Write the rendered report, wrapping I/O failures with the path."""
    data = render_report(r, fmt)
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from None


def _dump_csv(dumps):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "row", "index", "value"])
    for label, arr in dumps:
        arr = np.atleast_2d(np.asarray(arr, float))
        for i in range(arr.shape[0]):
            for j in range(arr.shape[1]):
                writer.writerow([label, i, j, repr(float(arr[i, j]))])
    return buf.getvalue().encode()


# ------------------------------------------------------------------- runners


def _rec(records, name, claim, value, tolerance, passed, note=""):
    records.append(
        CheckRecord(name, claim, float(value), float(tolerance), bool(passed), note)
    )


def _guard(records, name, claim, tolerance, body):
    """Run one check body; a raising body becomes a failed record."""
    try:
        body()
    except Exception as exc:  # noqa: BLE001 - the contract is record-and-continue
        _rec(records, name, claim, math.inf, tolerance, False, f"{type(exc).__name__}: {exc}")


def _build_map(spec):
    """Construct (label, transport map) from a validated map spec."""
    from .brenier import brenier_1d, brenier_gaussian, brenier_product, brenier_radial
    from .measures import GaussianMeasure, make_catalog_measure, make_radial_measure

    kind = spec["kind"]
    if kind == "1d":
        src = make_catalog_measure(spec["source"]["name"], tuple(spec["source"]["params"]))
        dst = make_catalog_measure(spec["target"]["name"], tuple(spec["target"]["params"]))
        label = f"1d:{spec['source']['name']}->{spec['target']['name']}"
        return label, brenier_1d(src, dst)
    if kind == "gaussian-linear":
        src = GaussianMeasure(np.asarray(spec["source"]["mean"], float),
                              np.asarray(spec["source"]["cov"], float))
        dst = GaussianMeasure(np.asarray(spec["target"]["mean"], float),
                              np.asarray(spec["target"]["cov"], float))
        return f"gaussian:n={len(src.mean)}", brenier_gaussian(src, dst)
    if kind == "product":
        factors = []
        for f in spec["factors"]:
            src = make_catalog_measure(f["source"]["name"], tuple(f["source"]["params"]))
            dst = make_catalog_measure(f["target"]["name"], tuple(f["target"]["params"]))
            factors.append(brenier_1d(src, dst))
        return f"product:n={len(factors)}", brenier_product(factors)
    src = make_radial_measure(spec["source"]["family"], spec["source"]["dim"],
                              *spec["source"].get("params", []))
    dst = make_radial_measure(spec["target"]["family"], spec["target"]["dim"],
                              *spec["target"].get("params", []))
    label = f"radial:{spec['source']['family']}->{spec['target']['family']} n={spec['source']['dim']}"
    return label, brenier_radial(src, dst)


def _select_experiments(cfg):
    from .concentration import default_experiments

    return default_experiments(None if cfg.experiments == "default" else cfg.experiments)


def _select_bank(cfg, dim):
    from .concentration import function_bank

    bank = function_bank(dim)
    if cfg.bank == "all":
        return bank
    picked = []
    for f in bank:
        sel = "coordinates" if f.name.startswith("coordinate[") else f.name
        if sel in cfg.bank:
            picked.append(f)
    return picked


# pairs (geometry-selftest) or points (gamma2-check) evaluated per stacked
# call: large configs run block by block in bounded memory
_BLOCK = 2048


def _update_worst(worst, key, values):
    # a NaN propagates into the record, which then fails
    worst[key] = float(np.max(values, initial=worst[key]))


def _geometry_block(worst, a, b, c, gu, gv, log_sv, v):
    """Fold one dimension's stacked pairs into the running worst values."""
    d = spd_distance(a, b)
    scale = 1.0 + d
    _update_worst(worst, "symmetry", np.abs(d - spd_distance(b, a)) / scale)
    _update_worst(worst, "identity", spd_distance(a, a))
    _update_worst(worst, "triangle", d - spd_distance(a, c) - spd_distance(c, b))
    # congruence with singular values in [e^-1.5, e^1.5]: an ill-conditioned
    # t contaminates t.T @ a @ t at the eps * cond(t)^2 level, which would
    # swamp the 1e-9 margin
    qu, _ = np.linalg.qr(gu)
    qv, _ = np.linalg.qr(gv)
    t = (qu * np.exp(log_sv)[:, None, :]) @ qv
    tt = np.swapaxes(t, -2, -1)
    conj = spd_distance(tt @ a @ t, tt @ b @ t)
    _update_worst(worst, "affine", np.abs(conj - d) / scale)
    inv = spd_distance(np.linalg.inv(a), np.linalg.inv(b))
    _update_worst(worst, "inversion", np.abs(inv - d) / scale)
    quad_gap = np.abs(log_quadratic_form(a, v) - log_quadratic_form(b, v))
    _update_worst(worst, "quadform", quad_gap - d)
    gap = log_eigen_map(a) - log_eigen_map(b)
    _update_worst(worst, "eigmap", np.linalg.norm(gap, axis=-1) - d)
    _update_worst(worst, "sorted", np.sum(gap**2, axis=-1) - d * d)


def _dim_counts(dims, start, stop):
    """Pairs of each dimension among pairs start to stop - 1, whose
    dimensions cycle through ``dims``."""
    return Counter(dims[i % len(dims)] for i in range(start, stop))


def _spd_tuples(normals, log_eigs, k, m, n):
    """k m-tuples of ``random_spd`` matrices of size n, as m stacks of k:
    the Gaussian matrices from ``normals`` and their log-eigenvalues from
    ``log_eigs``, each read as one (k, m, ...) stack in tuple order."""
    a = _spd_from_draws(
        normals.standard_normal((k, m, n, n)),
        log_eigs.uniform(-_LOG_SPREAD, _LOG_SPREAD, size=(k, m, n)),
    )
    return np.moveaxis(a, 1, 0)


def _run_geometry(cfg):
    """Metric axioms, invariances, geodesics, and the Lipschitz bounds.

    Pairs run in blocks of at most ``_BLOCK``, each checked with one
    stacked call per quantity and dimension.  Each dimension n reads each
    quantity q from its own stream, ``rng.stream(seed, 1, n, q)``, one
    (k, ...) stack of a block's k pairs at a time.  So a block's draws are
    the next rows of every stream: neither the block size nor the order of
    ``dims`` changes a record.
    """
    records = []
    # per dimension: the a, b and c gaussians, their log-eigenvalues, the
    # congruence's two gaussian factors, its log singular values, the
    # direction v, and the geodesic endpoints
    streams = {n: [rng.stream(cfg.seed, 1, n, q) for q in range(6)] for n in set(cfg.dims)}
    worst = dict.fromkeys(
        ("symmetry", "identity", "triangle", "affine", "inversion",
         "quadform", "eigmap", "sorted"),
        -math.inf,
    )
    for start in range(0, cfg.pairs, _BLOCK):
        for n, k in _dim_counts(cfg.dims, start, min(start + _BLOCK, cfg.pairs)).items():
            normals, log_eigs, factors, log_sv, v, _ = streams[n]
            _geometry_block(
                worst,
                *_spd_tuples(normals, log_eigs, k, 3, n),
                *np.moveaxis(factors.standard_normal((k, 2, n, n)), 1, 0),
                log_sv.uniform(-1.5, 1.5, size=(k, n)),
                v.standard_normal((k, n)),
            )

    # geodesic lengths over 1,000 samples and the endpoint distances, one
    # stack per dimension; np.max, unlike max(), carries a NaN into the
    # record, which then fails
    geo_worst = 0.0
    for n, k in _dim_counts(cfg.dims, 0, min(50, cfg.pairs)).items():
        a, b = _spd_tuples(streams[n][5], streams[n][5], k, 2, n)
        lengths = _geodesic_lengths(a, b, 1000)
        geo_worst = float(np.max(np.abs(lengths - spd_distance(a, b)), initial=geo_worst))

    tol = 1e-9
    _rec(records, "metric-symmetry", "metric-axioms", worst["symmetry"], tol, worst["symmetry"] <= tol)
    _rec(records, "metric-identity", "metric-axioms", worst["identity"], tol, worst["identity"] <= tol)
    _rec(records, "metric-triangle", "metric-axioms", worst["triangle"], tol, worst["triangle"] <= tol)
    _rec(records, "affine-invariance", "affine-invariance", worst["affine"], tol, worst["affine"] <= tol)
    _rec(records, "inversion-invariance", "inversion-invariance", worst["inversion"], tol, worst["inversion"] <= tol)
    _rec(records, "geodesic-length", "geodesic-length", geo_worst, 1e-4, geo_worst <= 1e-4)
    _rec(records, "quadform-lipschitz", "lipschitz-quadform", worst["quadform"], tol, worst["quadform"] <= tol)
    _rec(records, "eigmap-lipschitz", "lipschitz-spectral-map", worst["eigmap"], tol, worst["eigmap"] <= tol)
    _rec(records, "sorted-spectra", "sorted-spectra-bound", worst["sorted"], tol, worst["sorted"] <= tol)
    return records, []


def _variance_records(records, rep, prefix="", skipped=0):
    """Variance and margin records, noting the draws or nodes left out.

    ``skipped`` counts draws discarded before estimation; ``rep.flagged``
    counts the degenerate draws, or non-finite quadrature nodes, dropped.
    """
    claim = "variance-bound-approximate" if rep.approximate else "variance-bound"
    note = f"skipped={skipped} flagged={rep.flagged}"
    if rep.approximate:
        note = "approximate " + note
    for i in range(rep.variances.shape[0]):
        v = float(rep.variances[i])
        se = float(rep.standard_errors[i])
        _rec(records, f"var-log-eig{prefix}[{i}]", claim, v, 4.0, v <= 4.0 + 3.0 * se, note)
    for i in range(rep.variances.shape[0]):
        m = float(rep.bound_margin[i])
        se = float(rep.standard_errors[i])
        _rec(
            records,
            f"bound-margin{prefix}[{i}]",
            "variance-bound-margin",
            m,
            0.0,
            m >= -3.0 * se,
            note,
        )


def _run_variance(cfg):
    """Variance of the map-Hessian log-spectrum for one configured map."""
    from .concentration import (
        eigen_log_variance_quadrature_1d,
        spectral_samples,
        variance_report,
    )

    records = []
    dumps = []
    label, tm = _build_map(cfg.map)
    if tm.kind == "1d":
        rep = eigen_log_variance_quadrature_1d(tm, nodes=cfg.quadrature_nodes)
        _variance_records(records, rep)
        _rec(
            records,
            "quadrature-truncation",
            "variance-quadrature-truncation",
            rep.truncation,
            1e-4,
            rep.truncation <= 1e-4,
        )
    else:
        samples = spectral_samples(tm, cfg.samples, seed=cfg.seed, label=label)
        rep = variance_report(samples)
        _variance_records(records, rep, skipped=samples.skipped)
        if cfg.dump_samples:
            dumps.append((label, samples.spectra))
    if cfg.dump_samples and tm.kind == "1d":
        samples = spectral_samples(tm, min(cfg.samples, 100_000), seed=cfg.seed, label=label)
        dumps.append((label, samples.spectra))
    return records, dumps


def _run_poincare(cfg):
    """Variance-over-energy ratios for the function bank on the catalog."""
    from .concentration import poincare_ratio, spectral_samples

    records = []
    dumps = []
    for label, tm in _select_experiments(cfg):
        samples = spectral_samples(tm, cfg.samples, seed=cfg.seed, label=label)
        bank = _select_bank(cfg, samples.dim)
        for f, rep in zip(bank, poincare_ratio(samples, bank)):
            note = f"se={rep.standard_error:.3e}"
            if rep.violation_candidate:
                note += ";violation-candidate"
            _rec(
                records,
                f"poincare[{label}:{f.name}]",
                "poincare-bound",
                rep.value,
                1.0,
                rep.within(1.0),
                note,
            )
        if cfg.dump_samples:
            dumps.append((label, samples.spectra))
        del samples
    return records, dumps


def _run_gamma2(cfg):
    """Pointwise operator identities on synthetic smooth triples.

    Each triple's points are evaluated as stacks of at most ``_BLOCK``, with
    one ``contracted_tensors`` bundle and one evaluation of the test
    function's gradient and Hessian per stack.  The eigenrelation's test
    functions, the partials Phi_k, are slices of the bundle.
    """
    from .gamma2 import (
        bmatrix_certificate,
        bochner_residual,
        contracted_tensors,
        gamma2_expanded,
        gamma2_lower_bound,
        make_test_function,
        operator_L,
        synthetic_triple,
        triple_consistency_residual,
    )

    records = []
    worst = dict.fromkeys(("cons", "eig", "cert", "boch"), 0.0)
    worst_margin = math.inf
    for case in range(cfg.triples):
        dim = cfg.dims[case % len(cfg.dims)]
        s = rng.stream(cfg.seed, 2, case)
        t = synthetic_triple(s, dim, delta=0.3)
        u = make_test_function(s, dim)
        pts = s.uniform(-0.9, 0.9, size=(cfg.points, dim))
        for start in range(0, cfg.points, _BLOCK):
            x = pts[start : start + _BLOCK]
            ct = contracted_tensors(t, x)
            ug, uh = u.grad(x), u.hess(x)
            _update_worst(worst, "cons", np.abs(triple_consistency_residual(ct)))
            for k in range(dim):
                got = operator_L(ct, ct.hess[..., :, k], ct.third[..., :, :, k])
                _update_worst(worst, "eig", np.abs(got + ct.v_grad[:, k]))
            expanded = gamma2_expanded(ct, ug, uh)
            lower = gamma2_lower_bound(ct, ug)
            cert = bmatrix_certificate(ct, ug, uh)
            v_mid = ct.inv @ ct.v_hess @ ct.inv
            split = cert + lower + 0.5 * np.einsum("...i,...ij,...j->...", ug, v_mid + ct.w_hess, ug)
            _update_worst(worst, "cert", np.abs(expanded - split) / (1.0 + np.abs(expanded)))
            _update_worst(worst, "boch", np.abs(bochner_residual(ct, ug, uh)))
            worst_margin = float(np.min(expanded - lower, initial=worst_margin))

    _rec(records, "conservation-identity", "transport-consistency", worst["cons"], 1e-8, worst["cons"] <= 1e-8)
    _rec(records, "potential-eigenrelation", "operator-eigenrelation", worst["eig"], 1e-8, worst["eig"] <= 1e-8)
    _rec(records, "certificate-split", "carre-du-champ-decomposition", worst["cert"], 1e-9, worst["cert"] <= 1e-9)
    _rec(records, "bochner-residual", "bochner-identity", worst["boch"], 1e-6, worst["boch"] <= 1e-6)
    _rec(
        records,
        "lower-bound-margin",
        "curvature-lower-bound",
        worst_margin,
        1e-9,
        worst_margin >= -1e-9,
    )
    return records, []


def _central_disk_points(g, count, seed):
    # uniform draw over the central 50% mass ellipse of a 2D gaussian
    s = rng.stream(seed, 3)
    r50 = math.sqrt(2.0 * math.log(2.0))
    z = s.standard_normal((count, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= np.sqrt(s.uniform(0.0, 1.0, size=(count, 1))) * r50
    return g.mean + z @ np.linalg.cholesky(g.covariance).T


def _map_agreement(got, ref):
    err = np.linalg.norm(got - ref, axis=1)
    scale = np.maximum(
        np.linalg.norm(ref, axis=1),
        math.sqrt(float(np.mean(np.sum(ref**2, axis=1)))),
    )
    return float(np.max(err / scale))


def _gaussian_case(seed):
    from .brenier import brenier_gaussian
    from .measures import GaussianMeasure

    c1, s1 = math.cos(0.5), math.sin(0.5)
    c2, s2 = math.cos(-0.7), math.sin(-0.7)
    q1 = np.array([[c1, -s1], [s1, c1]])
    q2 = np.array([[c2, -s2], [s2, c2]])
    g1 = GaussianMeasure([-0.3, 0.2], q1 @ np.diag([0.36, 0.3025]) @ q1.T)
    g2 = GaussianMeasure([0.5, -0.4], q2 @ np.diag([0.25, 0.2025]) @ q2.T)
    box = ((-3.3, 3.3), (-3.3, 3.3))
    pts = _central_disk_points(g1, 200, seed)
    return g1, g2, box, box, brenier_gaussian(g1, g2), pts, pts[:60:5]


def _product_case(seed):
    from .brenier import brenier_1d, brenier_product
    from .measures import ProductMeasure, make_catalog_measure, regularize

    f1s = regularize(make_catalog_measure("uniform", (0.0, 1.0)), 8)
    f2s = make_catalog_measure("gaussian", (0.0, 0.45))
    f1t = make_catalog_measure("gaussian", (0.3, 0.5))
    f2t = make_catalog_measure("gaussian", (-0.2, 0.4))
    oracle = brenier_product([brenier_1d(f1s, f1t), brenier_1d(f2s, f2t)])
    # central 50% mass rectangle of the product source
    p_lo = 0.5 - math.sqrt(0.5) / 2.0
    p_hi = 1.0 - p_lo
    x0, x1 = float(f1s.quantile(p_lo)), float(f1s.quantile(p_hi))
    y0, y1 = float(f2s.quantile(p_lo)), float(f2s.quantile(p_hi))

    def rect(k):
        gx, gy = np.linspace(x0, x1, k), np.linspace(y0, y1, k)
        return np.column_stack([a.ravel() for a in np.meshgrid(gx, gy, indexing="ij")])

    return (
        ProductMeasure([f1s, f2s]),
        ProductMeasure([f1t, f2t]),
        ((-0.8, 1.8), (-2.5, 2.5)),
        ((-2.5, 3.1), (-2.4, 2.0)),
        oracle,
        rect(12),
        rect(5),
    )


# part -> (source, target, source box, target box, oracle, map-agreement
# points, Hessian points); the points depend on the seed
_SINKHORN_CASES = {"gaussian": _gaussian_case, "product": _product_case}


def _sinkhorn_part(cfg, part, records, dumps):
    from .concentration import entropic_spectral_samples, variance_report
    from .entropic import default_eps_schedule, discretize, extrapolated, sinkhorn_solve

    src, dst, src_box, dst_box, oracle, map_pts, hess_pts = _SINKHORN_CASES[part](cfg.seed)
    mu = discretize(src, src_box, cfg.grid, cfg.grid)
    nu = discretize(dst, dst_box, cfg.grid, cfg.grid)
    plan = sinkhorn_solve(mu, nu, default_eps_schedule(mu, nu), max_iter=5000)
    stages = len({row[0] for row in plan.history})
    _rec(
        records,
        f"marginal-error[{part}]",
        "sinkhorn-marginals",
        plan.marginal_error,
        1e-8,
        plan.marginal_error <= 1e-8,
        f"iterations={len(plan.history)} stages={stages}",
    )
    agree = _map_agreement(extrapolated(plan, map_pts)[0], oracle.map_points(map_pts))
    _rec(records, f"map-agreement[{part}]", "oracle-agreement", agree, 0.05, agree <= 0.05)
    ref = oracle.hessian(hess_pts)
    gap = np.linalg.norm(extrapolated(plan, hess_pts)[1] - ref, 2, axis=(-2, -1))
    herr = float(np.max(gap / np.linalg.norm(ref, 2, axis=(-2, -1))))
    _rec(records, f"hessian-agreement[{part}]", "oracle-agreement", herr, 0.05, herr <= 0.05)
    label = f"sinkhorn2d:{part}"
    samples = entropic_spectral_samples(
        plan, src, min(cfg.samples, 5000), seed=cfg.seed, label=label
    )
    _variance_records(
        records, variance_report(samples), prefix=f"[{part}]", skipped=samples.skipped
    )
    if cfg.dump_samples:
        dumps.append((label, samples.spectra))


def _run_sinkhorn(cfg):
    """Grid-transport cross-validation against the closed-form maps."""
    records = []
    dumps = []
    parts = _SINKHORN_CASES if cfg.experiments == "default" else cfg.experiments
    for part in parts:
        _guard(
            records,
            f"sinkhorn2d[{part}]",
            "oracle-agreement",
            0.05,
            lambda part=part: _sinkhorn_part(cfg, part, records, dumps),
        )
    return records, dumps


def _run_concentration(cfg):
    """Exponential moments of the bank at the gating constant plus a sweep.

    Each distinct bank observable is evaluated once per experiment for the
    gating constant and the whole grid, by one bank call per sample set;
    the sweep keeps only its running maxima, so each sample set is
    released before the next experiment is drawn.
    """
    from .concentration import exp_concentration, spectral_samples

    records = []
    dumps = []
    top = [-math.inf] * len(cfg.c_grid)
    who = [""] * len(cfg.c_grid)
    for label, tm in _select_experiments(cfg):
        samples = spectral_samples(tm, cfg.samples, seed=cfg.seed, label=label)
        bank = _select_bank(cfg, samples.dim)
        moments = exp_concentration(samples, bank, (_GATING_C, *cfg.c_grid))
        for f, (m, *sweep) in zip(bank, moments):
            _rec(
                records,
                f"exp-moment[{label}:{f.name}]",
                "exp-moment",
                m,
                2.0,
                m <= 2.0,
            )
            for k, mk in enumerate(sweep):
                if mk > top[k]:
                    top[k], who[k] = mk, f"{label}:{f.name}"
        if cfg.dump_samples:
            dumps.append((label, samples.spectra))
        del samples
    for c, m, at in zip(cfg.c_grid, top, who):
        _rec(
            records,
            f"exp-moment-sweep[c={c:g}]",
            "exp-moment-sweep",
            m,
            2.0,
            m <= 2.0,
            f"max at {at}",
        )
    return records, dumps


_RUNNERS = {
    "geometry-selftest": _run_geometry,
    "variance": _run_variance,
    "poincare": _run_poincare,
    "gamma2-check": _run_gamma2,
    "sinkhorn2d": _run_sinkhorn,
    "concentration": _run_concentration,
}


def run_experiment(cfg):
    """Dispatch one validated config and assemble its report."""
    t0 = time.perf_counter()
    records, dumps = _RUNNERS[cfg.kind](cfg)
    report = ExperimentReport(
        config=config_to_dict(cfg),
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        version=__version__,
        records=tuple(records),
        samples_dump=tuple(dumps),
    )
    report.wall_clock_seconds = time.perf_counter() - t0
    return report


# ----------------------------------------------------------------- interface


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="otspec",
        description="Experiment runner for transport-map spectral bounds.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
        p.add_argument("--out", default=None, help=f"output directory (default ${_OUT_ENV} or cwd)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--dump-samples", action="store_true", help="write raw log-spectrum samples")
    args = parser.parse_args(argv)

    try:
        data = _read_config(args.config) if args.config else {"kind": args.kind}
        # the flags join the raw mapping, so the config is validated once
        if isinstance(data, dict):
            for key in ("seed", "samples", "out", "format"):
                if getattr(args, key) is not None:
                    data[key] = getattr(args, key)
            if args.dump_samples:
                data["dump_samples"] = True
        cfg = config_from_dict(data)
        if cfg.kind != args.kind:
            raise ConfigError(
                [f"kind: config says {cfg.kind!r} but the subcommand is {args.kind!r}"]
            )
    except ConfigError as exc:
        for m in exc.messages:
            print(f"config error: {m}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
        out_dir = Path(cfg.out or os.environ.get(_OUT_ENV) or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{cfg.kind}-{report.config_hash[:12]}"
        path = out_dir / f"{stem}.{cfg.format}"
        emit_report(report, cfg.format, path)
        for rec in report.records:
            mark = "PASS" if rec.passed else "FAIL"
            line = f"{mark}  {rec.name}  value={rec.value:.6g}  tol={rec.tolerance:.6g}"
            if rec.note:
                line += f"  ({rec.note})"
            print(line)
        failed = sum(1 for rec in report.records if not rec.passed)
        print(f"{len(report.records)} checks, {failed} failed, "
              f"{report.wall_clock_seconds:.1f}s")
        print(f"report: {path}")
        if cfg.dump_samples:
            dump_path = out_dir / f"{stem}-samples.csv"
            dump_path.write_bytes(_dump_csv(report.samples_dump))
            print(f"samples: {dump_path}")
        return 0 if failed == 0 else 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
