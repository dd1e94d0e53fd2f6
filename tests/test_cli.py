"""Runner tests: config schema, report serialization, dispatch, exit codes."""

import csv
import io
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from otspec import brenier, cli, concentration, entropic, gamma2, spd
from otspec.concentration import EXPERIMENT_LABELS
from otspec.measures import LogConcaveMeasure1D
from otspec.cli import (
    KINDS,
    CheckRecord,
    ConfigError,
    ExperimentReport,
    _guard,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    emit_report,
    main,
    parse_config,
    render_report,
    report_from_dict,
    report_to_dict,
    run_experiment,
)


def _write(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


class TestConfigParsing:
    def test_minimal_variance_fills_defaults(self, tmp_path):
        cfg = parse_config(_write(tmp_path, {"kind": "variance"}))
        assert cfg.seed == 2024
        assert cfg.samples == 100_000
        assert cfg.quadrature_nodes == 2048
        assert cfg.map["kind"] == "1d"
        assert cfg.map["source"] == {"name": "uniform", "params": [0.0, 1.0]}
        assert cfg.format == "json"
        assert not cfg.dump_samples

    def test_defaults_round_trip_every_kind(self, tmp_path):
        for kind in KINDS:
            cfg = default_config(kind)
            path = _write(tmp_path, config_to_dict(cfg), f"{kind}.json")
            assert parse_config(path) == cfg
            assert config_hash(parse_config(path)) == config_hash(cfg)

    def test_gamma_shape_names_log_concavity(self, tmp_path):
        path = _write(
            tmp_path,
            {
                "kind": "variance",
                "map": {
                    "kind": "1d",
                    "source": {"name": "gamma", "params": [0.5, 1.0]},
                    "target": {"name": "gaussian", "params": [0.0, 1.0]},
                },
            },
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("log-concavity" in m for m in err.value.messages)
        assert any(m.startswith("map.source") for m in err.value.messages)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"kind": "poincare", "bogus": 1, "extra": 2})
        joined = " ".join(err.value.messages)
        assert "bogus: unknown key" in joined
        assert "extra: unknown key" in joined

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {"kind": "poincare", "seed": -1, "samples": 3, "format": "xml"}
            )
        assert len(err.value.messages) == 3

    def test_kind_is_required_and_checked(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict({})
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict({"kind": "frobnicate"})

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            config_from_dict([1, 2, 3])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/does/not/exist.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config(str(p))

    def test_numeric_ranges(self):
        for key, bad in [
            ("seed", -1),
            ("samples", 10),
            ("quadrature_nodes", 8),
            ("pairs", 0),
            ("triples", 0),
            ("points", 0),
            ("grid", 4),
        ]:
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"kind": "variance", key: bad})
        # booleans are not integers
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"kind": "variance", "seed": True})

    def test_dims_range_depends_on_kind(self):
        cfg = config_from_dict({"kind": "geometry-selftest", "dims": [2, 8]})
        assert cfg.dims == (2, 8)
        with pytest.raises(ConfigError, match="dims"):
            config_from_dict({"kind": "geometry-selftest", "dims": [1]})
        with pytest.raises(ConfigError, match="dims"):
            config_from_dict({"kind": "gamma2-check", "dims": [5]})

    def test_c_grid_validation(self):
        cfg = config_from_dict({"kind": "concentration", "c_grid": [0.05, 0.1]})
        assert cfg.c_grid == (0.05, 0.1)
        for bad in [[], [0.0], [-0.1], [6.0], ["x"]]:
            with pytest.raises(ConfigError, match="c_grid"):
                config_from_dict({"kind": "concentration", "c_grid": bad})

    def test_bank_selectors(self):
        cfg = config_from_dict({"kind": "poincare", "bank": ["mean", "max"]})
        assert cfg.bank == ("mean", "max")
        with pytest.raises(ConfigError, match="bank"):
            config_from_dict({"kind": "poincare", "bank": ["nonsense"]})

    def test_experiment_labels_checked(self):
        cfg = config_from_dict(
            {"kind": "poincare", "experiments": ["gaussian:n=3", "product:n=3"]}
        )
        assert cfg.experiments == ("gaussian:n=3", "product:n=3")
        with pytest.raises(ConfigError, match="unknown label"):
            config_from_dict({"kind": "poincare", "experiments": ["nope"]})
        # sinkhorn2d uses its own part names
        cfg = config_from_dict({"kind": "sinkhorn2d", "experiments": ["gaussian"]})
        assert cfg.experiments == ("gaussian",)
        with pytest.raises(ConfigError, match="unknown label"):
            config_from_dict({"kind": "sinkhorn2d", "experiments": ["gaussian:n=3"]})

    def test_label_check_builds_no_measure(self, monkeypatch):
        # labels are checked against the table, so validating a config builds
        # no map; an explicit map spec has its parameters checked, unbuilt
        def refuse(self):
            raise AssertionError(f"config validation built {self.name}")

        monkeypatch.setattr(LogConcaveMeasure1D, "_validate", refuse)
        for kind in KINDS:
            assert config_from_dict({"kind": kind}) == default_config(kind)
        for kind in ("poincare", "concentration"):
            cfg = config_from_dict({"kind": kind, "experiments": list(EXPERIMENT_LABELS)})
            assert cfg.experiments == EXPERIMENT_LABELS
        with pytest.raises(ConfigError, match="experiments: unknown label 'radial:n=4'"):
            config_from_dict({"kind": "poincare", "experiments": ["radial:n=4"]})

    def test_nonfinite_numbers_rejected(self, tmp_path):
        p = tmp_path / "inf.json"
        p.write_text(
            '{"kind": "variance", "map": {"kind": "1d",'
            ' "source": {"name": "gaussian", "params": [0.0, Infinity]},'
            ' "target": {"name": "gaussian", "params": [0.0, 1.0]}}}',
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="params"):
            parse_config(str(p))

    def test_map_spec_structures(self):
        good = {
            "kind": "variance",
            "map": {
                "kind": "gaussian-linear",
                "source": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                "target": {"mean": [1.0, 1.0], "cov": [[0.5, 0.0], [0.0, 0.5]]},
            },
        }
        assert config_from_dict(good).map["kind"] == "gaussian-linear"
        bad = json.loads(json.dumps(good))
        bad["map"]["target"]["mean"] = [1.0]
        with pytest.raises(ConfigError, match="dimensions disagree"):
            config_from_dict(bad)
        with pytest.raises(ConfigError, match="map.kind"):
            config_from_dict({"kind": "variance", "map": {"kind": "teleport"}})
        with pytest.raises(ConfigError, match="factors"):
            config_from_dict({"kind": "variance", "map": {"kind": "product", "factors": []}})
        with pytest.raises(ConfigError, match="family"):
            config_from_dict(
                {
                    "kind": "variance",
                    "map": {
                        "kind": "radial",
                        "source": {"family": "torus", "dim": 3, "params": []},
                        "target": {"family": "gaussian", "dim": 3, "params": []},
                    },
                }
            )

    def test_radial_dimension_mismatch_reported_with_other_errors(self):
        radial = {
            "kind": "radial",
            "source": {"family": "gaussian", "dim": 3, "params": []},
            "target": {"family": "gaussian", "dim": 4, "params": []},
        }
        with pytest.raises(ConfigError) as err:
            config_from_dict({"kind": "variance", "seed": -1, "map": radial})
        joined = " ".join(err.value.messages)
        assert "seed" in joined
        assert "map: source and target dimensions disagree" in joined
        assert len(err.value.messages) == 2

    def test_nested_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="map.wormhole"):
            config_from_dict(
                {
                    "kind": "variance",
                    "map": {
                        "kind": "1d",
                        "wormhole": 1,
                        "source": {"name": "uniform", "params": [0.0, 1.0]},
                        "target": {"name": "exponential", "params": [1.0]},
                    },
                }
            )


def _tiny_report():
    cfg = default_config("variance")
    return ExperimentReport(
        config=config_to_dict(cfg),
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        version="0.1.0",
        records=(
            CheckRecord("alpha", "variance-bound", 1.0, 4.0, True),
            CheckRecord("beta,with,commas", "poincare-bound", math.inf, 1.0, False, "err"),
        ),
    )


class TestReportSerialization:
    def test_empty_report_is_valid_json(self):
        r = replace(_tiny_report(), records=())
        parsed = json.loads(render_report(r, "json"))
        assert parsed["records"] == []
        assert parsed["config_hash"] == r.config_hash
        assert parsed["seed"] == r.seed

    def test_csv_row_count(self):
        r = _tiny_report()
        text = render_report(r, "csv").decode()
        rows = text.strip().split("\n")
        assert len(rows) == len(r.records) + 1
        assert rows[0] == "check,claim,value,tolerance,pass"

    def test_csv_survives_commas_in_names(self):
        r = _tiny_report()
        rows = list(csv.reader(io.StringIO(render_report(r, "csv").decode())))
        assert rows[2][0] == "beta,with,commas"
        assert rows[2][4] == "false"
        assert float(rows[1][2]) == 1.0

    def test_json_reparse_reproduces_report(self):
        r = _tiny_report()
        back = report_from_dict(json.loads(render_report(r, "json")))
        assert back == replace(r, wall_clock_seconds=0.0, samples_dump=())

    def test_wall_clock_not_serialized(self):
        r = replace(_tiny_report(), wall_clock_seconds=123.456)
        assert b"123.456" not in render_report(r, "json")
        assert "wall" not in json.dumps(report_to_dict(r))

    def test_nonfinite_values_round_trip(self):
        r = _tiny_report()
        d = report_to_dict(r)
        assert d["records"][1]["value"] == "inf"
        assert report_from_dict(d).records[1].value == math.inf

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(_tiny_report(), "xml")

    def test_emit_wraps_io_errors_with_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(_tiny_report(), "json", str(tmp_path))


class TestGuard:
    def test_error_becomes_failed_record(self):
        records = []

        def boom():
            raise ValueError("the grid is haunted")

        _guard(records, "spooky", "oracle-agreement", 0.05, boom)
        assert len(records) == 1
        rec = records[0]
        assert not rec.passed
        assert rec.value == math.inf
        assert "the grid is haunted" in rec.note

    def test_quiet_body_adds_nothing(self):
        records = []
        _guard(records, "calm", "oracle-agreement", 0.05, lambda: None)
        assert records == []


class TestRunExperiment:
    def test_variance_quadrature_oracle(self):
        report = run_experiment(default_config("variance"))
        by_name = {r.name: r for r in report.records}
        var = by_name["var-log-eig[0]"]
        assert var.passed
        assert var.value == pytest.approx(1.0, abs=1e-6)
        assert by_name["bound-margin[0]"].value == pytest.approx(3.0, abs=1e-6)
        assert by_name["quadrature-truncation"].passed
        # flagged counts the non-finite quadrature nodes dropped
        for name in ("var-log-eig[0]", "bound-margin[0]"):
            assert by_name[name].note == "skipped=0 flagged=0"
        assert report.config_hash == config_hash(default_config("variance"))
        assert report.seed == 2024
        assert report.wall_clock_seconds > 0.0

    def test_variance_monte_carlo_records(self):
        cfg = config_from_dict(
            {
                "kind": "variance",
                "samples": 5000,
                "map": {
                    "kind": "gaussian-linear",
                    "source": {"mean": [0.0, 0.0], "cov": [[1.0, 0.2], [0.2, 1.0]]},
                    "target": {"mean": [0.5, -0.5], "cov": [[0.5, 0.0], [0.0, 0.8]]},
                },
            }
        )
        report = run_experiment(cfg)
        names = [r.name for r in report.records]
        assert "var-log-eig[0]" in names and "var-log-eig[1]" in names
        assert all(r.passed for r in report.records)
        # a gaussian pair has a deterministic spectrum: variance zero
        by_name = {r.name: r for r in report.records}
        assert by_name["var-log-eig[0]"].value <= 1e-12
        assert all(r.note == "skipped=0 flagged=0" for r in report.records)

    def test_identical_seeds_byte_identical_reports(self):
        cfg = config_from_dict(
            {
                "kind": "variance",
                "samples": 2000,
                "seed": 5,
                "map": {
                    "kind": "radial",
                    "source": {"family": "uniform-ball", "dim": 3, "params": []},
                    "target": {"family": "gaussian", "dim": 3, "params": []},
                },
            }
        )
        a = render_report(run_experiment(cfg), "json")
        b = render_report(run_experiment(cfg), "json")
        assert a == b
        c = render_report(run_experiment(replace(cfg, seed=6)), "json")
        assert a != c

    def test_geometry_selftest_small(self):
        cfg = config_from_dict({"kind": "geometry-selftest", "pairs": 5})
        report = run_experiment(cfg)
        assert len(report.records) == 9
        assert all(r.passed for r in report.records)
        claims = {r.claim for r in report.records}
        assert "metric-axioms" in claims
        assert "geodesic-length" in claims
        assert "sorted-spectra-bound" in claims

    @pytest.mark.parametrize("seed", range(25))
    def test_geometry_selftest_passes_at_seed(self, seed):
        # the 1e-9 tolerances hold at every seed, not only the default: the
        # congruence's singular values lie in [e^-1.5, e^1.5], so its
        # condition number stays below e^3 whatever the draw
        cfg = config_from_dict({"kind": "geometry-selftest", "seed": seed})
        report = run_experiment(cfg)
        assert [r.name for r in report.records if not r.passed] == []

    @pytest.mark.parametrize("order", [[8, 7, 6, 5, 4, 3, 2], [5, 2, 8, 3, 7, 4, 6]])
    def test_dims_order_does_not_change_records(self, order):
        # each dimension reads its own streams, so only its pair count matters
        def records(dims):
            cfg = config_from_dict({"kind": "geometry-selftest", "pairs": 49, "dims": dims})
            return [(r.name, r.value, r.passed) for r in run_experiment(cfg).records]

        assert records(order) == records([2, 3, 4, 5, 6, 7, 8])

    @pytest.mark.parametrize("seed", range(12))
    def test_gamma2_check_passes_at_seed(self, seed):
        cfg = config_from_dict({"kind": "gamma2-check", "seed": seed})
        report = run_experiment(cfg)
        assert [r.name for r in report.records if not r.passed] == []

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["poincare", "concentration"])
    def test_sampled_kinds_pass_at_seed(self, kind, seed):
        cfg = config_from_dict({"kind": kind, "samples": 20_000, "seed": seed})
        report = run_experiment(cfg)
        assert [r.name for r in report.records if not r.passed] == []

    def test_nan_geodesic_length_fails_its_record(self, monkeypatch):
        monkeypatch.setattr(cli, "_geodesic_lengths", lambda a, b, m: np.full(len(a), math.nan))
        report = run_experiment(config_from_dict({"kind": "geometry-selftest", "pairs": 5}))
        assert [r.name for r in report.records if not r.passed] == ["geodesic-length"]

    def test_doubled_exponent_fails_the_geodesic_record(self, monkeypatch):
        # frames with w² in place of w sample γ(2s), a consistent curve twice
        # as long: every sample matches its factor, and the record fails
        frame = spd._geodesic_frame

        def doubled(*args, **kwargs):
            g, w = frame(*args, **kwargs)
            return g, w * w

        monkeypatch.setattr(spd, "_geodesic_frame", doubled)
        report = run_experiment(config_from_dict({"kind": "geometry-selftest", "pairs": 5}))
        assert [r.name for r in report.records if not r.passed] == ["geodesic-length"]

    @pytest.mark.parametrize("kind, limit", [("geometry-selftest", 161), ("gamma2-check", 20)])
    def test_validates_once_per_stack(self, monkeypatch, kind, limit):
        # geometry-selftest: random_spd leaves its output to the consumer's
        # stacked check.  The 1,000 pairs make 126 calls, and the 50
        # geodesics five per dimension: the Cholesky checks of the a and b
        # stacks and the eigen check of the C = L⁻¹ B L⁻ᵀ stack that validate
        # their frames, and the Cholesky checks of the a and b stacks of
        # their endpoint distances.  The 1,000 samples of a geodesic are held
        # to their frame's factors instead, once each
        validated, points, held = spd._validated, spd._geodesic_points, spd._check_samples
        seen, geodesics, checked = [], [], []

        def counted(a, *args, **kwargs):
            seen.append(a)
            return validated(a, *args, **kwargs)

        def recorded(*args):
            geodesics.append(points(*args))
            return geodesics[-1]

        def checking(p, *args):
            checked.append(p)
            return held(p, *args)

        monkeypatch.setattr(spd, "_validated", counted)
        monkeypatch.setattr(spd, "_geodesic_points", recorded)
        monkeypatch.setattr(spd, "_check_samples", checking)
        report = run_experiment(default_config(kind))
        assert all(r.passed for r in report.records)
        assert 0 < len(seen) <= limit
        assert len(geodesics) == len(checked) == (50 if kind == "geometry-selftest" else 0)
        for g in geodesics:
            assert g.shape[0] == 1000
            assert not any(a is g for a in seen)
            assert sum(p is g for p in checked) == 1

    @pytest.mark.parametrize(
        "overrides, stage, count",
        [
            ({"kind": "geometry-selftest", "pairs": 20}, "_geometry_block", 20),
            ({"kind": "gamma2-check", "triples": 4, "points": 30}, "contracted_tensors", 120),
        ],
    )
    def test_blocks_do_not_change_records(self, monkeypatch, overrides, stage, count):
        # the stage sees every pair or point once, whatever the block size
        cfg = config_from_dict(overrides)
        whole = render_report(run_experiment(cfg), "json")
        seen = []
        owner = cli if stage == "_geometry_block" else gamma2
        inner = getattr(owner, stage)

        def counted(first, second, *rest, **kwargs):
            seen.append(len(second))
            return inner(first, second, *rest, **kwargs)

        monkeypatch.setattr(owner, stage, counted)
        monkeypatch.setattr(cli, "_BLOCK", 7)
        assert render_report(run_experiment(cfg), "json") == whole
        assert sum(seen) == count and max(seen) <= 7

    def test_gamma2_check_evaluates_oracles_once_per_block(self, monkeypatch):
        # 20 triples of 100 points, one block each: the bundle makes the one
        # call to the triple, the eigenrelation's test functions are slices
        # of it, and the test function's derivatives are taken once per block
        owners = {
            "derivatives": gamma2._TripleSynthetic,
            "grad": gamma2.CubicTestFunction,
            "hess": gamma2.CubicTestFunction,
        }
        calls = dict.fromkeys(owners, 0)
        for name, owner in owners.items():
            method = getattr(owner, name)

            def counted(self, x, name=name, method=method):
                calls[name] += 1
                return method(self, x)

            monkeypatch.setattr(owner, name, counted)
        report = run_experiment(default_config("gamma2-check"))
        assert all(r.passed for r in report.records)
        assert calls == {"derivatives": 20, "grad": 20, "hess": 20}

    def test_gamma2_check_small(self):
        cfg = config_from_dict(
            {"kind": "gamma2-check", "triples": 3, "points": 10, "dims": [1, 2, 3]}
        )
        report = run_experiment(cfg)
        by_name = {r.name: r for r in report.records}
        assert set(by_name) == {
            "conservation-identity",
            "potential-eigenrelation",
            "certificate-split",
            "bochner-residual",
            "lower-bound-margin",
        }
        assert all(r.passed for r in report.records)
        assert by_name["lower-bound-margin"].value >= 0.0

    def test_poincare_selection(self):
        cfg = config_from_dict(
            {
                "kind": "poincare",
                "samples": 2000,
                "experiments": ["gaussian:n=3"],
                "bank": ["mean", "max"],
            }
        )
        report = run_experiment(cfg)
        assert len(report.records) == 2
        assert all(r.claim == "poincare-bound" for r in report.records)
        assert all(r.tolerance == 1.0 for r in report.records)
        assert all(r.passed for r in report.records)

    def test_concentration_sweep_records(self):
        cfg = config_from_dict(
            {
                "kind": "concentration",
                "samples": 2000,
                "experiments": ["product:n=3"],
                "bank": ["mean"],
                "c_grid": [0.05, 0.1],
            }
        )
        report = run_experiment(cfg)
        names = [r.name for r in report.records]
        assert names[0].startswith("exp-moment[product:n=3:mean]")
        assert "exp-moment-sweep[c=0.05]" in names
        assert "exp-moment-sweep[c=0.1]" in names
        assert all(r.tolerance == 2.0 for r in report.records)
        assert all(r.passed for r in report.records)

    def test_concentration_sweep_names_first_tied_cell(self, monkeypatch):
        # "max" ties across experiments and beats "mean" at every c, so each
        # sweep record must name the first "max" cell in experiment order
        def fake(samples, bank, cs):
            return [[1.5 if f.name == "max" else 1.25 for _ in cs] for f in bank]

        monkeypatch.setattr(concentration, "exp_concentration", fake)
        cfg = config_from_dict(
            {
                "kind": "concentration",
                "samples": 2000,
                "experiments": ["product:n=3", "gaussian:n=3"],
                "bank": ["mean", "max"],
                "c_grid": [0.05, 0.1, 0.2],
            }
        )
        records = run_experiment(cfg).records
        assert [r.name for r in records] == [
            "exp-moment[gaussian:n=3:mean]",
            "exp-moment[gaussian:n=3:max]",
            "exp-moment[product:n=3:mean]",
            "exp-moment[product:n=3:max]",
            "exp-moment-sweep[c=0.05]",
            "exp-moment-sweep[c=0.1]",
            "exp-moment-sweep[c=0.2]",
        ]
        assert [r.value for r in records[:4]] == [1.25, 1.5, 1.25, 1.5]
        for r in records[4:]:
            assert r.value == 1.5 and r.note == "max at gaussian:n=3:max"

    def test_concentration_evaluates_each_bank_function_once(self, monkeypatch):
        # every row of every distinct observable, 48 in the 77 (experiment,
        # function) cells at the default config of both sampled kinds, is
        # evaluated exactly once: cells that declare a column read that
        # column's observable, the gating constant and the whole sweep share
        # the evaluation, a ratio reads its values and squared gradients from
        # the same call, and the calls cover the set in runs of whole blocks
        select = cli._select_bank

        def counted(f, cell):
            def evaluate(x):
                # x is a run of rows of the column-major spectra, so its
                # first row is its byte offset in the stack over one element
                offset = x.__array_interface__["data"][0] - x.base.__array_interface__["data"][0]
                first = offset // x.itemsize
                rows.setdefault(cell, []).append(range(first, first + len(x)))
                return f.evaluate(x)

            return replace(f, evaluate=evaluate)

        def counted_bank(cfg, dim):
            banks.append(dim)
            return [counted(f, (len(banks), f.name)) for f in select(cfg, dim)]

        monkeypatch.setattr(cli, "_select_bank", counted_bank)
        for kind in ("concentration", "poincare"):
            rows, banks = {}, []
            report = run_experiment(default_config(kind))
            assert all(r.passed for r in report.records)
            assert len(rows) == 48, kind
            for cell, runs in rows.items():
                # five runs of 20,000 rows, each starting where the last ended
                assert [r.start for r in runs] == [0] + [r.stop for r in runs[:-1]], (kind, cell)
                assert runs[-1].stop == 100_000 and len(runs) == 5, (kind, cell)

    @pytest.mark.parametrize(
        "kind, dump",
        [
            pytest.param("concentration", False, id="False"),
            pytest.param("concentration", True, id="True"),
            pytest.param("poincare", False, id="poincare-False"),
            pytest.param("poincare", True, id="poincare-True"),
        ],
    )
    def test_concentration_releases_each_sample_set(self, monkeypatch, kind, dump):
        # both sampled kinds drop each experiment's set before drawing the next
        refs = []
        draw = concentration.spectral_samples

        def tracked(*args, **kwargs):
            assert all(r() is None for r in refs), "an earlier sample set is alive"
            samples = draw(*args, **kwargs)
            refs.append(weakref.ref(samples))
            return samples

        monkeypatch.setattr(concentration, "spectral_samples", tracked)
        cfg = config_from_dict({"kind": kind, "samples": 2000, "dump_samples": dump})
        records, dumps = cli._RUNNERS[kind](cfg)
        assert len(refs) == 11 and all(r() is None for r in refs)
        assert len(dumps) == (11 if dump else 0)

    @pytest.mark.parametrize(
        "label, kinds",
        [
            ("gaussian:n=3", ["gaussian-linear"]),
            ("1d:beta(2.0,3.0)->gaussian(0.0,1.0)", ["1d"]),
            ("radial:ball->gaussian n=5", ["radial"]),
            ("product:n=3", ["1d", "1d", "1d", "product"]),
        ],
    )
    def test_selection_builds_only_its_maps(self, monkeypatch, label, kinds):
        built = []
        init = brenier.TransportMap.__init__

        def counted(tm, *args):
            built.append(tm.kind)
            init(tm, *args)

        monkeypatch.setattr(brenier.TransportMap, "__init__", counted)
        cfg = config_from_dict({"kind": "poincare", "experiments": [label]})
        (got, tm), = cli._select_experiments(cfg)
        assert got == label and built == kinds
        if tm.kind == "product":
            # the factors are the table's first three 1d maps
            names = [f"1d:{f.source.name}->{f.target.name}" for f in tm.factors]
            assert names == list(EXPERIMENT_LABELS[:3])

    def test_sinkhorn_makes_one_jacobian_kernel_call_per_plan_and_point_set(self, monkeypatch):
        # each part reads its map points, its Hessian points and its draws
        # with one moments-kernel call per point set on each of the plan's
        # last two stages, and the oracle's Hessians with one stacked call
        calls = []
        moments = entropic._moments

        def counted_moments(plan, x):
            calls.append((plan.eps, np.shape(x)))
            return moments(plan, x)

        monkeypatch.setattr(entropic, "_moments", counted_moments)
        oracle_calls = []
        for cls in (brenier.LinearMap, brenier.ProductMap):
            oracle = cls.hessian

            def counted(tm, x, oracle=oracle):
                oracle_calls.append((tm.kind, np.shape(x)))
                return oracle(tm, x)

            monkeypatch.setattr(cls, "hessian", counted)
        report = run_experiment(config_from_dict({"kind": "sinkhorn2d", "grid": 32, "samples": 60}))
        names = [r.name for r in report.records]
        assert "hessian-agreement[gaussian]" in names and "hessian-agreement[product]" in names
        assert sorted(oracle_calls) == [("gaussian-linear", (12, 2)), ("product", (25, 2))]
        assert len(calls) == 12
        for part, at in zip(("gaussian", "product"), (calls[:6], calls[6:])):
            fine, coarse = at[0][0], at[1][0]
            assert coarse == 2.0 * fine
            assert [eps for eps, _ in at] == [fine, coarse] * 3
            map_pts, hess_pts = cli._SINKHORN_CASES[part](2024)[5:]
            assert [shape for _, shape in at[::2]] == [map_pts.shape, hess_pts.shape, (60, 2)]
            assert [shape for _, shape in at[1::2]] == [shape for _, shape in at[::2]]

    def test_sinkhorn_agreement_at_grid_64(self):
        # the Richardson values at seed 2024: well inside the 0.05 bound
        report = run_experiment(config_from_dict({"kind": "sinkhorn2d"}))
        values = {r.name: r.value for r in report.records}
        for part in ("gaussian", "product"):
            assert values[f"hessian-agreement[{part}]"] <= 0.006
            assert values[f"map-agreement[{part}]"] <= 0.002

    def test_sinkhorn_passes_at_every_seed(self):
        # the default config at seeds 0 to 24: every record passes
        for seed in range(25):
            report = run_experiment(config_from_dict({"kind": "sinkhorn2d", "seed": seed}))
            failed = [r.name for r in report.records if not r.passed]
            assert len(report.records) == 14 and not failed, (seed, failed)

    def test_sinkhorn_marginal_record_notes_iterations(self, monkeypatch):
        # the note counts the rows of the plan's history and its eps-stages
        plans = []
        solve = entropic.sinkhorn_solve

        def kept(mu, nu, eps_schedule, **kw):
            plans.append((solve(mu, nu, eps_schedule, **kw), len(eps_schedule)))
            return plans[-1][0]

        monkeypatch.setattr(entropic, "sinkhorn_solve", kept)
        report = run_experiment(config_from_dict({"kind": "sinkhorn2d", "grid": 32, "samples": 60}))
        notes = {r.name: r.note for r in report.records}
        assert len(plans) == 2
        for part, (plan, stages) in zip(("gaussian", "product"), plans):
            assert notes[f"marginal-error[{part}]"] == (
                f"iterations={len(plan.history)} stages={stages}"
            )

    def test_every_record_carries_tolerance_and_flag(self):
        cfg = config_from_dict({"kind": "poincare", "samples": 1000})
        report = run_experiment(cfg)
        for rec in report.records:
            assert isinstance(rec.passed, bool)
            assert math.isfinite(rec.tolerance)
            assert rec.claim


class TestMain:
    def test_exit_zero_and_report_file(self, tmp_path, capsys):
        code = main(["variance", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS  var-log-eig[0]" in out
        assert "0 failed" in out
        files = list(tmp_path.glob("variance-*.json"))
        assert len(files) == 1
        parsed = json.loads(files[0].read_text())
        assert parsed["seed"] == 2024

    def test_exit_one_on_failed_check(self, tmp_path):
        cfg = {"kind": "sinkhorn2d", "grid": 16, "samples": 60,
               "experiments": ["gaussian"]}
        path = _write(tmp_path, cfg)
        code = main(["sinkhorn2d", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        # the agreement records fail at grid 16; the variance records name
        # the draws the estimator dropped: none of the 60 leaves the box
        (report,) = tmp_path.glob("sinkhorn2d-*.json")
        notes = {
            r["name"]: r["note"] for r in json.loads(report.read_text())["records"]
        }
        for name in (
            "var-log-eig[gaussian][0]", "var-log-eig[gaussian][1]",
            "bound-margin[gaussian][0]", "bound-margin[gaussian][1]",
        ):
            assert notes[name] == "approximate skipped=0 flagged=0"

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = _write(tmp_path, {"kind": "variance", "bogus": 1})
        assert main(["variance", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "bogus" in err

    @pytest.mark.parametrize(
        "cov, message",
        [
            ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
            ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
        ],
    )
    def test_exit_two_on_invalid_gaussian_covariance(self, tmp_path, capsys, cov, message):
        for side in ("source", "target"):
            spec = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
            data = {"kind": "variance", "map": {"kind": "gaussian-linear",
                                                "source": dict(spec), "target": dict(spec)}}
            data["map"][side]["cov"] = cov
            path = _write(tmp_path, data)
            assert main(["variance", "--config", path]) == 2
            err = capsys.readouterr().err
            assert f"config error: map.{side}: covariance" in err
            assert message in err

    @pytest.mark.parametrize(
        "mean", [0.5, "0.5", [[0.0, 0.0]]], ids=["number", "string", "nested"]
    )
    def test_exit_two_on_non_list_gaussian_mean(self, tmp_path, capsys, mean):
        for side in ("source", "target"):
            spec = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
            data = {"kind": "variance", "map": {"kind": "gaussian-linear",
                                                "source": dict(spec), "target": dict(spec)}}
            data["map"][side]["mean"] = mean
            path = _write(tmp_path, data)
            assert main(["variance", "--config", path]) == 2
            err = capsys.readouterr().err
            assert f"config error: map.{side}.mean: expected a non-empty list of numbers" in err
            assert "dimensions disagree" not in err

    def test_exit_two_on_dimension_one_radial_map(self, tmp_path, capsys):
        # a radial transport needs dimension at least 2, so validation
        # refuses dim 1 before any map is built
        side = {"family": "gaussian", "dim": 1, "params": []}
        data = {"kind": "variance", "map": {"kind": "radial", "source": side, "target": side}}
        assert main(["variance", "--config", _write(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "map.source.dim: expected an integer in [2, 16]" in err
        assert "runtime error" not in err

    def test_exit_two_on_extra_radial_params(self, tmp_path, capsys):
        for side in ("source", "target"):
            ball = {"family": "uniform-ball", "dim": 3, "params": []}
            data = {"kind": "variance", "map": {"kind": "radial",
                                                "source": dict(ball), "target": dict(ball)}}
            data["map"][side]["params"] = [1.0, 2.0]
            assert main(["variance", "--config", _write(tmp_path, data)]) == 2
            err = capsys.readouterr().err
            assert (
                f"config error: map.{side}: uniform-ball takes at most 1 parameter(s), "
                "got 2: [1.0, 2.0]" in err
            )

    @staticmethod
    def _scaled_map(side, spec):
        # a variance map whose ``side`` is ``spec``, the other side a plain
        # one; side "both" takes a (source, target) pair of radial specs
        if side == "both":
            source, target = spec
            data = {"kind": "radial", "source": source, "target": target}
            return {"kind": "variance", "samples": 2000, "map": data}
        if "name" in spec:
            data = {"kind": "1d", "source": {"name": "uniform", "params": [0.0, 1.0]},
                    "target": {"name": "exponential", "params": [1.0]}}
        else:
            other = "gaussian" if spec["family"] == "uniform-ball" else "uniform-ball"
            plain = {"family": other, "dim": 3, "params": []}
            data = {"kind": "radial", "source": dict(plain), "target": dict(plain)}
        data[side] = spec
        return {"kind": "variance", "samples": 2000, "map": data}

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"name": "gaussian", "params": [0.0, 1e300]},
             "gaussian scale must lie in 2**[-511, 511]"),
            ({"name": "gaussian", "params": [0.0, 1e-200]},
             "gaussian scale must lie in 2**[-511, 511]"),
            ({"family": "gaussian", "dim": 3, "params": [1e300]},
             "gaussian scale must lie in 2**[-511, 511]"),
            ({"family": "gaussian", "dim": 3, "params": [1e-200]},
             "gaussian scale must lie in 2**[-511, 511]"),
            ({"family": "uniform-ball", "dim": 3, "params": [1e200]},
             "ball radius in dimension 3 must lie in 2**[-340.667, 340.667]"),
            ({"family": "uniform-ball", "dim": 3, "params": [1e-200]},
             "ball radius in dimension 3 must lie in 2**[-340.667, 340.667]"),
        ],
    )
    def test_exit_two_on_scale_outside_the_normal_doubles(
        self, tmp_path, capsys, side, spec, message
    ):
        # these ran to a runtime error (exit 3): overflow, division by zero,
        # non-finite spectra or a NaN quadrature
        path = _write(tmp_path, self._scaled_map(side, spec))
        assert main(["variance", "--config", path, "--out", str(tmp_path)]) == 2
        assert f"config error: map.{side}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "side, spec",
        [
            (side, {"name": "gaussian", "params": [0.0, scale]})
            for side in ("source", "target") for scale in (6.7e153, 1.5e-154)
        ]
        + [("target", {"family": "gaussian", "dim": 3, "params": [s]}) for s in (6.7e153, 1.5e-154)]
        + [
            ("source", {"family": "uniform-ball", "dim": 3, "params": [3.55e102]}),
            ("target", {"family": "uniform-ball", "dim": 3, "params": [2.82e-103]}),
        ]
        # radial sources far from radius 1: a source inside radius 1e-7 saw
        # every draw floored outside its support, and draws near 1e154 or
        # 1e-154 left the doubles when squared
        + [
            ("both", ({"family": src, "dim": n, "params": [s]},
                      {"family": dst, "dim": n, "params": [1.0]}))
            for n in (2, 3, 16)
            for src, s, dst in (
                ("uniform-ball", 1e-30, "gaussian"),
                ("gaussian", 6.7e153, "gaussian"),
                ("gaussian", 6.7e153, "uniform-ball"),
                ("gaussian", 1.5e-154, "uniform-ball"),
            )
            # a ball radius in dimension 16 must lie in 2**[-63.875, 63.875]
            if n < 16 or src == "gaussian"
        ],
    )
    def test_exit_zero_just_inside_the_scale_range(self, tmp_path, side, spec):
        path = _write(tmp_path, self._scaled_map(side, spec))
        assert main(["variance", "--config", path, "--out", str(tmp_path)]) == 0

    def test_radial_gaussian_table_at_the_top_of_the_scale_range(self, tmp_path):
        # building the radius-law table of this target asks for the density
        # at r = inf and at r < 0; under the suite's error::RuntimeWarning
        # filter the invalid operations there made the run exit 3
        data = self._scaled_map("target", {"family": "gaussian", "dim": 16, "params": [6.7e153]})
        data["map"]["source"] = {"family": "uniform-ball", "dim": 16, "params": [1.0]}
        path = _write(tmp_path, data)
        assert main(["variance", "--config", path, "--out", str(tmp_path)]) == 0

    def test_exit_two_on_kind_mismatch(self, tmp_path, capsys):
        path = _write(tmp_path, {"kind": "variance"})
        assert main(["poincare", "--config", path]) == 2
        assert (
            "config error: kind: config says 'variance' but the subcommand is 'poincare'"
            in capsys.readouterr().err
        )

    def test_exit_two_on_missing_config(self, capsys):
        assert main(["variance", "--config", "/nope.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_exit_three_on_unwritable_out(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert main(["variance", "--out", str(blocker)]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTSPEC_OUT", str(tmp_path / "nested"))
        assert main(["variance"]) == 0
        assert list((tmp_path / "nested").glob("variance-*.json"))

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTSPEC_OUT", str(tmp_path / "env"))
        explicit = tmp_path / "flag"
        assert main(["variance", "--out", str(explicit)]) == 0
        assert list(explicit.glob("variance-*.json"))
        assert not (tmp_path / "env").exists()

    def test_flag_overrides_recorded_in_config_echo(self, tmp_path):
        assert main(["variance", "--seed", "99", "--out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("variance-*.json"))
        parsed = json.loads(files[0].read_text())
        assert parsed["seed"] == 99
        assert parsed["config"]["seed"] == 99

    def test_csv_format_flag(self, tmp_path):
        assert main(["variance", "--format", "csv", "--out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("variance-*.csv"))
        assert len(files) == 1
        assert files[0].read_text().startswith("check,claim,value,tolerance,pass")

    def test_dump_samples_writes_long_csv(self, tmp_path):
        code = main(
            ["variance", "--samples", "200", "--dump-samples", "--out", str(tmp_path)]
        )
        assert code == 0
        dumps = list(tmp_path.glob("variance-*-samples.csv"))
        assert len(dumps) == 1
        rows = list(csv.reader(io.StringIO(dumps[0].read_text())))
        assert rows[0] == ["experiment", "row", "index", "value"]
        assert len(rows) == 201
        assert float(rows[1][3]) != 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            {
                "kind": "radial",
                "source": {"family": "uniform-ball", "dim": 5, "params": []},
                "target": {"family": "gaussian", "dim": 5, "params": []},
            },
            {
                "kind": "gaussian-linear",
                "source": {"mean": [0.0, 0.0, 0.0], "cov": np.diag([1.0, 2.0, 0.5]).tolist()},
                "target": {
                    "mean": [0.3, 0.3, 0.3],
                    "cov": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]],
                },
            },
        ],
        ids=["radial", "gaussian"],
    )
    def test_dump_samples_holds_the_sample_set(self, tmp_path, spec):
        # one row per draw and log-eigenvalue index, each value the repr of
        # the set's spectrum entry
        path = _write(tmp_path, {"kind": "variance", "samples": 1007, "seed": 9, "map": spec})
        assert main(["variance", "--config", path, "--dump-samples", "--out", str(tmp_path)]) == 0
        (dump,) = tmp_path.glob("variance-*-samples.csv")
        rows = list(csv.reader(io.StringIO(dump.read_text())))
        label, tm = cli._build_map(config_from_dict({"kind": "variance", "map": spec}).map)
        spectra = concentration.spectral_samples(tm, 1007, seed=9).spectra
        assert rows[0] == ["experiment", "row", "index", "value"]
        assert len(rows) == 1 + 1007 * tm.dim
        assert rows[1:] == [
            [label, str(i), str(j), repr(float(spectra[i, j]))]
            for i in range(1007)
            for j in range(tm.dim)
        ]

    def test_invalid_flag_override_is_config_error(self, capsys):
        assert main(["variance", "--samples", "3"]) == 2
        assert "samples" in capsys.readouterr().err
        assert main(["variance", "--samples", "10"]) == 2
        assert (
            "config error: samples: expected an integer in [50, 100000000]"
            in capsys.readouterr().err
        )

    def test_variance_run_builds_each_measure_once(self, tmp_path, monkeypatch):
        # the config check reads the catalog parameters; only the run builds
        # the two measures, with their CDF tables and mass checks
        built = []
        validate = LogConcaveMeasure1D._validate

        def counted(self, *args, **kwargs):
            built.append(self.name)
            return validate(self, *args, **kwargs)

        monkeypatch.setattr(LogConcaveMeasure1D, "_validate", counted)
        spec = {
            "kind": "1d",
            "source": {"name": "uniform", "params": [0.0, 1.0]},
            "target": {"name": "exponential", "params": [1.0]},
        }
        path = _write(tmp_path, {"kind": "variance", "map": spec})
        assert main(["variance", "--config", path, "--out", str(tmp_path)]) == 0
        assert built == ["uniform(0.0,1.0)", "exponential(1.0)"]

    def test_config_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = cli.config_from_dict

        def counted(data):
            calls.append(dict(data))
            return validate(data)

        monkeypatch.setattr(cli, "config_from_dict", counted)
        path = _write(tmp_path, {"kind": "variance", "samples": 100})
        argv = ["--seed", "7", "--samples", "200", "--out", str(tmp_path)]
        assert main(["variance", *argv]) == 0
        assert main(["variance", "--config", path, *argv, "--format", "csv"]) == 0
        assert len(calls) == 2
        assert calls[1]["samples"] == 200 and calls[1]["format"] == "csv"
