"""Config resolution, CSV/JSON serialization, rank correlation, and the
experiment runner: artifact layout, manifests, and CLI exit codes."""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from pfc import cli, harness, metrics
from pfc.core import (
    DegenerateInputError,
    FeatureSet,
    LayerStack,
    load_featureset,
    save_featureset,
)
from pfc.etf import build_etf
from pfc.geodesic import make_nc_featureset
from pfc.harness import (
    KINDS,
    ExperimentConfig,
    csv_column,
    format_cell,
    load_config_file,
    parse_cell,
    parse_override,
    read_csv,
    resolve_config,
    run,
    sha256_file,
    spearman,
    typed_param,
    write_csv,
    write_json,
)
from pfc.resnet import TrainConfig


class TestExperimentConfig:
    def test_defaults_fill_missing_params(self):
        cfg = ExperimentConfig(kind="etf-check")
        assert cfg.params == KINDS["etf-check"].defaults
        assert cfg.seed == 1
        assert cfg.out_dir == Path("runs") / "etf-check"

    def test_explicit_params_win_over_defaults(self):
        cfg = ExperimentConfig(kind="etf-check", params={"max_classes": 4})
        assert cfg.params["max_classes"] == 4
        assert cfg.params["min_classes"] == KINDS["etf-check"].defaults["min_classes"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig(kind="etf-czech")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            ExperimentConfig(kind="etf-check", params={"max_clases": 4})

    @pytest.mark.parametrize("seed", [True, -1, 0.5, "3"])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(kind="etf-check", seed=seed)

    def test_numpy_seed_converted_to_int(self):
        cfg = ExperimentConfig(kind="etf-check", seed=np.int64(5))
        assert cfg.seed == 5 and type(cfg.seed) is int

    def test_config_is_frozen(self):
        cfg = ExperimentConfig(kind="etf-check")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 2


class TestResolveConfig:
    def write(self, tmp_path, obj):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return path

    def test_file_beats_defaults(self, tmp_path):
        path = self.write(
            tmp_path, {"kind": "interpolate", "seed": 7, "params": {"dim": 10}}
        )
        cfg = resolve_config("interpolate", config_path=path)
        assert cfg.seed == 7
        assert cfg.params["dim"] == 10
        assert cfg.params["per_class"] == KINDS["interpolate"].defaults["per_class"]

    def test_overrides_beat_file(self, tmp_path):
        path = self.write(tmp_path, {"params": {"dim": 10, "per_class": 5}})
        cfg = resolve_config("interpolate", config_path=path, overrides=["dim=12"])
        assert cfg.params["dim"] == 12
        assert cfg.params["per_class"] == 5

    def test_explicit_seed_and_out_beat_file(self, tmp_path):
        path = self.write(tmp_path, {"seed": 7, "out_dir": "elsewhere"})
        cfg = resolve_config(
            "interpolate", config_path=path, seed=3, out_dir=tmp_path / "here"
        )
        assert cfg.seed == 3
        assert cfg.out_dir == tmp_path / "here"

    def test_file_out_dir_used_when_not_overridden(self, tmp_path):
        path = self.write(tmp_path, {"out_dir": "elsewhere"})
        cfg = resolve_config("interpolate", config_path=path)
        assert cfg.out_dir == Path("elsewhere")

    def test_kind_mismatch_rejected(self, tmp_path):
        path = self.write(tmp_path, {"kind": "theorem1"})
        with pytest.raises(ValueError, match="kind"):
            resolve_config("interpolate", config_path=path)

    def test_unknown_file_keys_rejected(self, tmp_path):
        path = self.write(tmp_path, {"kind": "interpolate", "bogus": 1})
        with pytest.raises(ValueError, match="bogus"):
            resolve_config("interpolate", config_path=path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config_file(path)

    def test_non_dict_params_rejected(self, tmp_path):
        path = self.write(tmp_path, {"params": [1]})
        with pytest.raises(ValueError, match="params"):
            load_config_file(path)

    def test_override_pairs_accepted_directly(self):
        cfg = resolve_config("interpolate", overrides=[("dim", 12)])
        assert cfg.params["dim"] == 12


class TestParseOverride:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("lr=0.5", ("lr", 0.5)),
            ("epochs=20", ("epochs", 20)),
            ("loss=mse", ("loss", "mse")),
            ("decay_biases=true", ("decay_biases", True)),
            ("lambdas=[1.0, 2.0]", ("lambdas", [1.0, 2.0])),
            ("note=a=b", ("note", "a=b")),
        ],
    )
    def test_values_parse_as_json_else_string(self, text, expected):
        assert parse_override(text) == expected

    @pytest.mark.parametrize("text", ["lr", "=5"])
    def test_malformed_overrides_rejected(self, text):
        with pytest.raises(ValueError, match="key=value"):
            parse_override(text)


class TestParamSchema:
    @pytest.mark.parametrize("kind, override", [
        ("solve-ufm", "epochs=true"),
        ("train-resnet", "decay_biases=0"),
        ("interpolate", "per_class=2.5"),
        ("solve-mufm", "lr=abc"),
        ("sweep-lambda", "lambdas=0.001"),
        ("theorem1", "classes=3"),
        ("pfc-report", 'stack_files="a.txt"'),
    ])
    def test_mistyped_value_names_the_parameter(self, tmp_path, capsys, kind, override):
        out = tmp_path / "x"
        assert cli.main([kind, "--out", str(out), "--set", override]) == 1
        name = override.partition("=")[0]
        assert f"parameter {name!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, override", [
        ("solve-mufm", "lam=NaN"),
        ("sweep-lambda", "lambdas=[0.001, NaN]"),
        ("solve-mufm", "lambda_w=Infinity"),
        ("solve-ufm", "lr=-Infinity"),
    ])
    def test_nonfinite_float_names_the_parameter(self, tmp_path, capsys, kind, override):
        out = tmp_path / "x"
        assert cli.main([kind, "--out", str(out), "--set", override]) == 1
        name = override.partition("=")[0]
        assert f"parameter {name!r} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_float_defaults_are_finite(self):
        for kind, entry in KINDS.items():
            for name, default in entry.defaults.items():
                values = default if isinstance(default, list) else [default]
                for value in values:
                    if isinstance(value, float):
                        assert np.isfinite(value), (kind, name)

    def test_train_config_fields_are_train_resnet_params(self):
        # the runner builds TrainConfig by field name; only seed comes from the run
        names = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
        assert names <= set(KINDS["train-resnet"].defaults)

    def test_integral_float_resolves_to_int(self):
        epochs = resolve_config("solve-ufm", overrides=["epochs=1e3"]).params["epochs"]
        assert epochs == 1000 and type(epochs) is int

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_defaults_pass_through_unchanged(self, kind):
        defaults = KINDS[kind].defaults
        params = ExperimentConfig(kind=kind, params=defaults).params
        # json tells 1 from 1.0 and true from 1
        assert json.dumps(params, sort_keys=True) == json.dumps(defaults, sort_keys=True)

    def test_cli_subcommands_are_the_kinds(self):
        sub = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(sub.choices) == list(KINDS)

    @pytest.mark.parametrize("value, default, expected", [
        (3, 0.5, 3.0),
        (2.0, 7, 2),
        (np.int64(4), 7, 4),
        (False, True, False),
        ("ce", "mse", "ce"),
        ([1, 2], [0.5], [1.0, 2.0]),
        ([], [0.5], []),
        (["a.txt"], [], ["a.txt"]),
    ])
    def test_values_take_the_default_type(self, value, default, expected):
        out = typed_param("p", value, default)
        assert json.dumps(out) == json.dumps(expected)

    @pytest.mark.parametrize("value, default", [
        (True, 7), (2.5, 7), (float("inf"), 7), (None, 7), (True, 0.5), ("1", 0.5),
        (1, True), (1, "mse"), (["a"], "mse"), (1, [0.5]), ("a", []), ([1], []),
        ([[1.0]], [0.5]),
    ])
    def test_other_values_rejected(self, value, default):
        with pytest.raises(ValueError, match="parameter 'p' must be of type"):
            typed_param("p", value, default)

    @pytest.mark.parametrize("value, default", [
        (float("nan"), 0.5), (float("inf"), 0.5), (-float("inf"), 0.5),
        ([0.1, float("nan")], [0.5]),
    ])
    def test_nonfinite_floats_rejected(self, value, default):
        with pytest.raises(ValueError, match="parameter 'p' must be finite"):
            typed_param("p", value, default)


class TestCells:
    def test_int_cells_verbatim(self):
        assert format_cell(5) == "5"
        assert format_cell(-3) == "-3"
        assert format_cell(np.int64(7)) == "7"

    def test_integral_floats_keep_decimal_marker(self):
        assert format_cell(2.0) == "2.0"
        assert format_cell(-8.0) == "-8.0"
        assert parse_cell("2.0") == 2.0 and isinstance(parse_cell("2.0"), float)

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            format_cell(True)
        with pytest.raises(TypeError, match="bool"):
            format_cell(np.bool_(False))

    def test_commas_and_newlines_rejected(self):
        with pytest.raises(ValueError, match="comma"):
            format_cell("a,b")
        with pytest.raises(ValueError, match="comma"):
            format_cell("a\nb")

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError, match="unsupported"):
            format_cell([1.0])

    def test_parse_cell_types(self):
        assert parse_cell("12") == 12 and isinstance(parse_cell("12"), int)
        assert parse_cell("-4") == -4
        assert parse_cell("0.25") == 0.25
        assert parse_cell("strictly-decreasing") == "strictly-decreasing"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_cells_round_trip_bit_exactly(self, value):
        out = parse_cell(format_cell(value))
        assert isinstance(out, float)
        assert np.float64(out).tobytes() == np.float64(value).tobytes()

    @given(st.integers())
    def test_int_cells_round_trip(self, value):
        out = parse_cell(format_cell(value))
        assert out == value and isinstance(out, int)


class TestCsvFiles:
    HEADER = ("name", "count", "value")
    ROWS = [("alpha", 3, 0.1), ("beta", -2, 2.0), ("gamma", 0, 1e-300)]

    def test_round_trip_preserves_types_and_bits(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, self.HEADER, self.ROWS)
        header, rows = read_csv(path)
        assert header == list(self.HEADER)
        assert rows == self.ROWS

    def test_rewrite_is_bit_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(first, self.HEADER, self.ROWS)
        header, rows = read_csv(first)
        write_csv(second, header, rows)
        assert sha256_file(first) == sha256_file(second)

    def test_row_width_checked_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="cells"):
            write_csv(tmp_path / "bad.csv", self.HEADER, [("alpha", 3)])

    def test_row_width_checked_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="malformed"):
            read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    def test_csv_column_selects_by_name(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, self.HEADER, self.ROWS)
        header, rows = read_csv(path)
        assert csv_column(header, rows, "count") == [3, -2, 0]
        with pytest.raises(KeyError, match="missing"):
            csv_column(header, rows, "missing")


class TestWriteJson:
    def test_numpy_and_path_values_serialize(self, tmp_path):
        path = tmp_path / "blob.json"
        write_json(
            path,
            {
                "i": np.int64(3),
                "f": np.float32(0.5),
                "a": np.arange(3),
                "p": Path("runs/etf-check"),
            },
        )
        data = json.loads(path.read_text())
        assert data == {"i": 3, "f": 0.5, "a": [0, 1, 2], "p": "runs/etf-check"}

    def test_unsupported_values_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "blob.json", {"x": object()})

    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 17
        path.write_bytes(payload)
        assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


class TestSpearman:
    def test_matches_scipy_on_random_data(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            expected = float(stats.spearmanr(x, y)[0])
            assert spearman(x, y) == pytest.approx(expected, rel=1e-12)

    def test_matches_scipy_with_ties(self):
        for seed in range(20):
            rng = np.random.default_rng([seed, 5])
            x = rng.integers(0, 4, size=15).astype(float)
            y = rng.integers(0, 4, size=15).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            expected = float(stats.spearmanr(x, y)[0])
            assert spearman(x, y) == pytest.approx(expected, rel=1e-12)

    def test_perfect_monotone_is_plus_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [2.0, 5.0, 9.0, 11.0]) == pytest.approx(1.0)
        assert spearman(x, [4.0, 3.0, 1.0, 0.5]) == pytest.approx(-1.0)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInputError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


SMALL_SOLVE = {"num_classes": 3, "dim": 6, "per_class": 4, "epochs": 20, "trace_stride": 10}


class TestRunArtifacts:
    def test_etf_check_writes_manifest_with_checksums(self, tmp_path):
        out = tmp_path / "etf"
        manifest = run(ExperimentConfig(kind="etf-check", out_dir=out))
        assert set(manifest["artifacts"]) == {"etf_check.csv", "summary.json"}
        for rel, digest in manifest["artifacts"].items():
            assert sha256_file(out / rel) == digest
        assert json.loads((out / "manifest.json").read_text()) == manifest
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_within_tolerance"] is True

    def test_same_config_and_seed_yield_identical_checksums(self, tmp_path):
        first = run(ExperimentConfig(kind="etf-check", out_dir=tmp_path / "a"))
        second = run(ExperimentConfig(kind="etf-check", out_dir=tmp_path / "b"))
        assert first["artifacts"] == second["artifacts"]

    def test_interpolate_curves_reach_zero(self, tmp_path):
        out = tmp_path / "interp"
        params = {"num_classes": 3, "per_class": 4, "dim": 8, "grid_points": 21}
        run(ExperimentConfig(kind="interpolate", params=params, out_dir=out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"]["pfc1"] == "strictly-decreasing"
        assert summary["final_values"]["pfc1"] < 1e-12
        assert summary["final_values"]["pfc3"] == pytest.approx(1.0)
        header, rows = read_csv(out / "curves.csv")
        assert len(rows) == 3 * 21
        assert csv_column(header, rows, "metric_kind").count("pfc2") == 21

    def test_tiny_resnet_run_writes_full_artifact_set(self, tmp_path):
        out = tmp_path / "resnet"
        params = {
            "num_blocks": 2,
            "width": 8,
            "input_dim": 4,
            "num_classes": 3,
            "per_class": 8,
            "epochs": 6,
            "batch_size": 12,
            "lr_decay_epochs": [4],
            "record_stride": 3,
            "grid_points": 51,
        }
        manifest = run(
            ExperimentConfig(kind="train-resnet", params=params, out_dir=out)
        )
        assert {
            "train_log.csv",
            "trace.csv",
            "report.csv",
            "curves.csv",
            "summary.json",
            "layers/layer_00.txt",
            "layers/layer_01.txt",
            "layers/layer_02.txt",
        } <= set(manifest["artifacts"])

        header, rows = read_csv(out / "train_log.csv")
        assert csv_column(header, rows, "epoch") == list(range(1, 7))

        summary = json.loads((out / "summary.json").read_text())
        assert summary["snapshot_epochs"] == [3, 6]
        assert summary["relative_positions"][0] == 0.0
        assert summary["relative_positions"][-1] == 1.0

        header, rows = read_csv(out / "report.csv")
        assert len(rows) == 3
        assert all(np.isfinite(csv_column(header, rows, "pfc1")))


def _tree(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


class TestRunDirectory:
    """An out directory holds exactly one run, replaced only on success."""

    SWEEP = ["--set", "num_classes=3", "--set", "dim=6", "--set", "per_class=4",
             "--set", "epochs=20"]

    def test_ufm_after_mufm_lists_no_stale_data(self, tmp_path):
        out = tmp_path / "solve"
        run(ExperimentConfig(kind="solve-mufm", params=SMALL_SOLVE, out_dir=out))
        assert (out / "data.txt").is_file()
        manifest = run(ExperimentConfig(kind="solve-ufm", params=SMALL_SOLVE, out_dir=out))
        assert "data.txt" not in manifest["artifacts"]
        assert set(_tree(out)) == set(manifest["artifacts"]) | {"manifest.json"}

    def test_shallower_training_lists_no_stale_layers(self, tmp_path):
        out = tmp_path / "resnet"
        tiny = {"width": 8, "input_dim": 4, "num_classes": 3, "per_class": 8,
                "epochs": 2, "lr_decay_epochs": [], "grid_points": 11}
        for blocks in (4, 2):
            manifest = run(ExperimentConfig(
                kind="train-resnet", params={**tiny, "num_blocks": blocks}, out_dir=out,
            ))
        layers = [f"layers/layer_{i:02d}.txt" for i in range(3)]
        assert sorted(a for a in manifest["artifacts"] if a.startswith("layers/")) == layers
        assert sorted(a for a in _tree(out) if a.startswith("layers/")) == layers

    def test_failed_run_leaves_no_partial_files(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep-lambda", "--out", str(out), *self.SWEEP]
        assert cli.main([*args, "--set", "lambdas=[0.001,0.001]"]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_the_earlier_run(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["sweep-lambda", "--out", str(out), *self.SWEEP]
        assert cli.main([*args, "--set", "lambdas=[0.001,0.002]"]) == 0
        before = _tree(out)
        assert cli.main([*args, "--set", "lambdas=[0.001,0.001]"]) == 2
        assert _tree(out) == before
        assert list(tmp_path.iterdir()) == [out]

    def test_foreign_directory_refused_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch):
        def never(*args):
            raise AssertionError("the run started")

        monkeypatch.setitem(harness.KINDS, "etf-check",
                            harness.KINDS["etf-check"]._replace(run=never))
        out = tmp_path / "notes"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        assert cli.main(["etf-check", "--out", str(out)]) == 1
        assert f"out_dir {out} is not empty" in capsys.readouterr().err
        assert _tree(out) == {"keep.txt": b"mine"}
        assert list(tmp_path.iterdir()) == [out]

    def test_current_directory_refused(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "keep.txt").write_text("mine")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["etf-check", "--out", "."]) == 1
        assert "out_dir . is not empty" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["keep.txt"]

    def test_empty_directory_is_filled(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        manifest = run(ExperimentConfig(kind="etf-check", out_dir=out))
        assert set(_tree(out)) == set(manifest["artifacts"]) | {"manifest.json"}


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "etf"
        code = cli.main(
            ["etf-check", "--out", str(out), "--set", "max_classes=3"]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert "artifacts" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["theorem1", "theorem2"])
    def test_zero_paths_names_the_parameter(self, tmp_path, capsys, kind):
        code = cli.main([kind, "--out", str(tmp_path / "x"), "--set", "num_paths=0"])
        assert code == 1
        assert "num_paths must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, name", [
        ("solve-ufm", "dim"),
        ("solve-mufm", "dim"),
        ("sweep-lambda", "dim"),
        ("train-resnet", "width"),
    ])
    def test_narrow_run_rejected_before_it_starts(self, tmp_path, capsys, monkeypatch,
                                                  kind, name):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        for fn in ("solve", "sweep_lambda", "train"):
            monkeypatch.setattr(harness, fn, never)
        args = [kind, "--out", str(tmp_path / "x"), "--set", f"{name}=3"]
        assert cli.main(args) == 1
        assert f"{name} must be >= num_classes" in capsys.readouterr().err

    def test_seed_flag_beats_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "params": {"max_classes": 3}}))
        out = tmp_path / "etf"
        code = cli.main(
            ["etf-check", "--config", str(config), "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 9

    def test_empty_config_is_usage_error_without_artifacts(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("")
        out = tmp_path / "never"
        code = cli.main(["etf-check", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "invalid run" in capsys.readouterr().err

    def test_unknown_parameter_is_usage_error(self, tmp_path):
        code = cli.main(
            ["etf-check", "--out", str(tmp_path / "x"), "--set", "bogus=1"]
        )
        assert code == 1

    def test_degenerate_stack_is_numeric_failure(self, tmp_path, capsys):
        frame = build_etf(3, 6, seed=0)
        fs = make_nc_featureset(frame, per_class=4, scale=1.0)
        files = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            save_featureset(path, fs)
            files.append(str(path))
        code = cli.main(
            [
                "pfc-report",
                "--out",
                str(tmp_path / "report"),
                "--set",
                "stack_files=" + json.dumps(files),
            ]
        )
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err


class TestPfcReportRun:
    def test_equal_displacements_give_equal_positions(self, tmp_path):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((6, 12))
        step = rng.standard_normal((6, 12))
        files = []
        for layer, scale in enumerate((0.0, 1.0, 2.0)):
            fs = FeatureSet(base + scale * step, num_classes=3, per_class=4)
            path = tmp_path / f"layer{layer}.txt"
            save_featureset(path, fs)
            files.append(str(path))
        out = tmp_path / "report"
        run(
            ExperimentConfig(
                kind="pfc-report",
                params={"stack_files": files, "grid_points": 11},
                out_dir=out,
            )
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["relative_positions"] == pytest.approx([0.0, 0.5, 1.0])
        header, rows = read_csv(out / "report.csv")
        assert csv_column(header, rows, "layer") == [0, 1, 2]

    def test_pfc3_computed_once_per_layer(self, tmp_path, monkeypatch):
        # effective_depth in the summary comes from the measured reports,
        # not from a second nearest-class-mean pass over the layers: one
        # gap table per layer, plus one for the path between the ends
        rng = np.random.default_rng(3)
        files = []
        for layer in range(3):
            fs = FeatureSet(rng.standard_normal((4, 12)), num_classes=3, per_class=4)
            path = tmp_path / f"layer{layer}.txt"
            save_featureset(path, fs)
            files.append(str(path))
        calls = []
        original = metrics._Moments.gaps.func
        counted = functools.cached_property(
            lambda moments: calls.append(len(moments.sets)) or original(moments)
        )
        counted.__set_name__(metrics._Moments, "gaps")
        monkeypatch.setattr(metrics._Moments, "gaps", counted)
        out = tmp_path / "report"
        run(ExperimentConfig(kind="pfc-report",
                             params={"stack_files": files, "grid_points": 5},
                             out_dir=out))
        assert sorted(calls) == [1, 1, 1, 2]
        summary = json.loads((out / "summary.json").read_text())
        stack = LayerStack(tuple(load_featureset(f) for f in files))
        first = next(
            (i for i, fs in enumerate(stack.layers) if 1.0 - metrics.pfc3(fs) <= 0.05), None
        )
        assert summary["effective_depth"] == first

    def test_stack_narrower_than_classes_rejected(self, tmp_path):
        files = []
        for layer in range(2):
            fs = FeatureSet(np.arange(12.0).reshape(2, 6) * (layer + 1), 3, 2)
            path = tmp_path / f"layer{layer}.txt"
            save_featureset(path, fs)
            files.append(str(path))
        cfg = ExperimentConfig(
            kind="pfc-report", params={"stack_files": files}, out_dir=tmp_path / "x"
        )
        with pytest.raises(ValueError, match="stack_files must hold features of dim"):
            run(cfg)

    def test_fewer_than_two_stacks_rejected(self, tmp_path):
        cfg = ExperimentConfig(
            kind="pfc-report", params={"stack_files": []}, out_dir=tmp_path / "x"
        )
        with pytest.raises(ValueError, match="two stack files"):
            run(cfg)
