"""Config resolution, CSV/JSON serialization, rank correlation, and the
experiment runner: artifact layout, manifests, and CLI exit codes."""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from conftest import stack_positions, write_text_layer
from pfc import cli, core, harness, metrics, resnet
from pfc.core import (
    DEPTH,
    DIM,
    NUM_CLASSES,
    PER_CLASS,
    UNBOUNDED,
    DegenerateInputError,
    DivergenceError,
    Domain,
    FeatureSet,
    load_featureset,
    param,
    save_featureset,
    typed_param,
)
from pfc.data import MIXTURE, gen_gaussian_mixture
from pfc.etf import build_etf
from pfc.geodesic import PATH, make_nc_featureset, perturbed_collapse_path, random_to_collapse_path
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
    write_csv,
    write_json,
)
from pfc.metrics import EPSILON, first_within_error
from pfc.resnet import TrainConfig
from pfc.surrogate import (
    CHAIN,
    DESCENT,
    LAMBDAS,
    SolveProblem,
    collapse_multilayer,
    minimize_transport_chain,
    solve,
    sweep_lambda,
)


def _defaults(kind: str) -> dict:
    """Each knob of ``kind`` with its default."""
    return {name: spec.default for name, spec in KINDS[kind].params.items()}


def _domain(kind: str, name: str):
    return KINDS[kind].params[name].metadata["domain"]


def _fields(cls) -> dict:
    """The knobs of a library class: its fields declared by ``param``."""
    return {f.name: f for f in dataclasses.fields(cls) if "domain" in f.metadata}


def _library_bounds():
    """(kind, name, outside) for each bound of the library's knob tables:
    TrainConfig's and SolveProblem's fields, ``DESCENT``, ``LAMBDAS``,
    ``MIXTURE`` and ``PATH``; a kind that takes the knob, and a value just
    outside the bound, typed as the kind's default (as a one-item list for
    a list)."""
    tables = {
        "train-resnet": _fields(TrainConfig),
        "solve-ufm": {**_fields(SolveProblem), **DESCENT},
        "sweep-lambda": {"lambdas": LAMBDAS,
                         **{name: DESCENT[name] for name in ("lr", "epochs", "init_scale")}},
        "solve-mufm": MIXTURE,
        "theorem1": {name: PATH[name] for name in ("grid_points", "end_scale")},
        "theorem2": PATH,
    }
    for kind, specs in tables.items():
        for name, spec in specs.items():
            domain = spec.metadata["domain"]
            if domain.low is not None:
                default = KINDS[kind].params[name].default
                number = type(default[0] if isinstance(default, list) else default)
                outside = number(domain.low) - (0 if domain.open else 1)
                if isinstance(default, list):
                    outside = [outside]
                yield pytest.param(kind, name, outside, id=f"{kind}-{name}")


def _library_call(kind: str, name: str, value) -> None:
    """The library entry point of ``kind``'s ``name``, with it set to ``value``."""
    ufm = SolveProblem(loss="mse", num_classes=2, dim=2, per_class=1,
                       lambda_w=0.1, lam=0.1)
    if name in MIXTURE:
        gen_gaussian_mixture(2, 2, 1, **{name: value})
    elif name in PATH:
        build = random_to_collapse_path if kind == "theorem1" else perturbed_collapse_path
        build(0, 2, 1, 2, **{name: value})
    elif kind == "train-resnet":
        TrainConfig(**{name: value})
    elif name in _fields(SolveProblem):
        SolveProblem(**{name: value})
    elif kind == "solve-ufm":
        solve(ufm, **{name: value})
    else:
        mufm = dataclasses.replace(ufm, data=np.zeros((2, 2)))
        sweep_lambda(mufm, **{"lambdas": [0.1], name: value})


class TestExperimentConfig:
    def test_defaults_fill_missing_params(self):
        cfg = ExperimentConfig(kind="etf-check")
        assert cfg.params == _defaults("etf-check")
        assert cfg.seed == 1
        assert cfg.out_dir == Path("runs") / "etf-check"

    def test_explicit_params_win_over_defaults(self):
        cfg = ExperimentConfig(kind="etf-check", params={"max_classes": 4})
        assert cfg.params["max_classes"] == 4
        assert cfg.params["min_classes"] == _defaults("etf-check")["min_classes"]

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
        assert cfg.params["per_class"] == _defaults("interpolate")["per_class"]

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

    def test_seed_default_is_the_declared_one(self, monkeypatch):
        # with no seed given anywhere the run takes ExperimentConfig's
        # declared default, not a copy of it
        assert resolve_config("interpolate").seed == ExperimentConfig(kind="interpolate").seed
        monkeypatch.setattr(ExperimentConfig, "seed", 5)
        assert resolve_config("interpolate").seed == 5

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
            for name, spec in entry.params.items():
                default = spec.default
                values = default if isinstance(default, (list, tuple)) else [default]
                for value in values:
                    if isinstance(value, float):
                        assert np.isfinite(value), (kind, name)

    @pytest.mark.parametrize("kind, name, outside", _library_bounds())
    def test_library_and_cli_share_each_bound_and_its_message(self, kind, name, outside):
        # each bound is declared once, in the library, and the CLI reads it
        domain = _domain(kind, name)
        message = f"{name} must be {'>' if domain.open else '>='} {domain.low}, got {outside}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _library_call(kind, name, outside)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolve_config(kind, overrides=[(name, outside)])

    @pytest.mark.parametrize("name", list(CHAIN))
    def test_chain_descent_and_cli_share_each_bound(self, name):
        # equivalence-thm3's chain_<name> is the chain descent's <name>, one
        # default and one bound; each message names the knob as its caller does
        spec, key = CHAIN[name], f"chain_{name}"
        domain = spec.metadata["domain"]
        assert (_defaults("equivalence-thm3")[key], _domain("equivalence-thm3", key)) == (
            spec.default, domain)
        outside = type(spec.default)(domain.low) - (0 if domain.open else 1)
        x = np.zeros((3, 4))
        for shown, call in (
            (name, lambda: minimize_transport_chain(x, x, 3, **{name: outside})),
            (key, lambda: resolve_config("equivalence-thm3", overrides=[(key, outside)])),
        ):
            message = f"{shown} must be {'>' if domain.open else '>='} {domain.low}, got {outside}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("kind, key, name, spec, call, mistyped", [
        pytest.param("train-resnet", "effective_epsilon", "epsilon", EPSILON,
                     lambda value: first_within_error([1.0], value), "0.1", id="epsilon"),
        pytest.param("equivalence-thm3", "depths", "num_blocks", DEPTH,
                     lambda value: collapse_multilayer(np.zeros((2, 2)), np.zeros((2, 2)), value),
                     True, id="num_blocks"),
    ])
    def test_renamed_knobs_and_cli_share_each_bound_and_type(self, kind, key, name, spec, call,
                                                             mistyped):
        # the kind's knob is the library's under another name: one domain and
        # one type, each message naming the knob as its caller does
        domain = spec.metadata["domain"]
        assert _domain(kind, key) is domain and not domain.open
        outside = type(spec.default)(domain.low) - 1
        listed = isinstance(_defaults(kind)[key], list)  # depths: one num_blocks per item
        cli = lambda value: resolve_config(kind, overrides=[(key, [value] if listed else value)])
        for shown, run, wrap in ((name, call, False), (key, cli, listed)):
            for value, message in (
                (outside, f"{shown} must be >= {domain.low}, got {[outside] if wrap else outside}"),
                (mistyped, f"parameter {shown!r} must be of type "
                           f"{type(spec.default).__name__}, got {mistyped!r}"),
            ):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    run(value)

    def test_kinds_read_the_library_domains(self):
        # each knob a library function reads is bounded where it is declared
        # (train-resnet's num_blocks is TrainConfig's: one network depth L >= 1,
        # as equivalence-thm3's chain depths)
        library = {**MIXTURE, **PATH, "effective_epsilon": EPSILON, "depths": DEPTH,
                   "num_blocks": DEPTH}
        read = {(kind, name): _domain(kind, name) is library[name].metadata["domain"]
                for kind, entry in KINDS.items() for name in entry.params if name in library}
        assert len(read) == 22 and all(read.values()), read
        assert _fields(TrainConfig)["num_blocks"].metadata["domain"] is DEPTH.metadata["domain"]
        # and each count knob, of a kind or a library class, by its core
        # spec; a frame dimension (dim, dims, width) takes K's, as d >= K >= 2
        frame, k, n, d = NUM_CLASSES, NUM_CLASSES, PER_CLASS, DIM
        counts = {"num_classes": k, "classes": k, "min_classes": k, "max_classes": k,
                  "per_class": n, "input_dim": d, "dim": frame, "dims": frame, "width": frame}
        tables = {**{kind: entry.params for kind, entry in KINDS.items()},
                  "TrainConfig": _fields(TrainConfig), "SolveProblem": _fields(SolveProblem)}
        read = {(table, name): spec.metadata["domain"] is counts[name].metadata["domain"]
                for table, specs in tables.items() for name, spec in specs.items()
                if name in counts}
        assert len(read) == 34 and all(read.values()), read

    @pytest.mark.parametrize("kind, name, value, expected", [
        ("train-resnet", "num_blocks", True, "int"),
        ("train-resnet", "batch_size", 8.5, "int"),
        ("train-resnet", "epochs", 2.5, "int"),
        ("train-resnet", "lr", "0.1", "float"),
        ("train-resnet", "decay_biases", 1, "bool"),
        ("solve-ufm", "per_class", 2.5, "int"),
        ("solve-ufm", "lam", True, "float"),
        ("solve-ufm", "epochs", 2.5, "int"),
        ("solve-ufm", "trace_stride", True, "int"),
        ("sweep-lambda", "lambdas", [True], "float"),
        ("solve-mufm", "mean_scale", True, "float"),
        ("train-resnet", "noise_scale", "1.0", "float"),
        ("theorem1", "grid_points", 2.5, "int"),
        ("theorem1", "end_scale", True, "float"),
        ("theorem2", "eps_rel", True, "float"),
    ])
    def test_library_and_cli_share_each_type_and_its_message(self, kind, name, value,
                                                             expected):
        # each knob is typed by one checker, for the library and the CLI
        item = value[0] if isinstance(value, list) else value
        message = f"parameter {name!r} must be of type {expected}, got {item!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _library_call(kind, name, value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolve_config(kind, overrides=[(name, value)])

    @pytest.mark.parametrize("kind", ["solve-ufm", "solve-mufm", "sweep-lambda",
                                      "equivalence-thm3"])
    def test_library_and_cli_share_each_choice_and_its_message(self, kind):
        # a value drawn from a fixed set is checked by the one domain checker,
        # for the library and while the CLI builds the config
        message = "loss must be one of ('ce', 'mse'), got 'foo'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _library_call(kind, "loss", "foo")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolve_config(kind, overrides=[("loss", "foo")])

    @pytest.mark.parametrize("make", [TrainConfig, SolveProblem])
    @pytest.mark.parametrize("seed", [True, 2.5])
    def test_library_seeds_are_typed(self, make, seed):
        # a run's seed is not a --set key, but the library types it the same way
        message = f"parameter 'seed' must be of type int, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(seed=seed)

    def test_train_config_defaults_are_the_cli_defaults(self):
        defaults = _defaults("train-resnet")
        config = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            if f.name != "seed":
                value = getattr(config, f.name)
                value = list(value) if isinstance(value, tuple) else value
                # json tells 1 from 1.0
                assert json.dumps(value) == json.dumps(defaults[f.name]), f.name

    @pytest.mark.parametrize("kind", ["solve-ufm", "solve-mufm", "sweep-lambda",
                                      "equivalence-thm3"])
    def test_solve_problem_defaults_are_the_cli_defaults(self, kind):
        # each kind that builds a SolveProblem takes its fields' defaults
        defaults = _defaults(kind)
        problem = SolveProblem()
        names = {f.name for f in dataclasses.fields(SolveProblem)} - {"data", "seed"}
        if kind == "sweep-lambda":  # its lambdas stand for lam
            names.remove("lam")
        for name in names:
            # json tells 1 from 1.0
            assert json.dumps(getattr(problem, name)) == json.dumps(defaults[name]), name

    def test_train_config_fields_are_train_resnet_params(self):
        # the runner builds TrainConfig by field name; only seed comes from the run
        names = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
        assert names <= set(KINDS["train-resnet"].params)

    def test_integral_float_resolves_to_int(self):
        epochs = resolve_config("solve-ufm", overrides=["epochs=1e3"]).params["epochs"]
        assert epochs == 1000 and type(epochs) is int

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_defaults_pass_through_unchanged(self, kind):
        defaults = _defaults(kind)
        if kind == "pfc-report":  # stack_files has no default a run can read
            defaults = {**defaults, "stack_files": ["a.txt", "b.txt"]}
        params = ExperimentConfig(kind=kind, params=defaults).params
        # json tells 1 from 1.0 and true from 1
        assert json.dumps(params, sort_keys=True) == json.dumps(defaults, sort_keys=True)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_numbers_and_lists_state_a_domain_holding_their_default(self, kind):
        for name, spec in KINDS[kind].params.items():
            domain = spec.metadata["domain"]
            if isinstance(spec.default, bool):
                assert domain == UNBOUNDED, name
            elif isinstance(spec.default, str):
                # free, or one of a fixed set, which must hold the default
                assert domain in (UNBOUNDED, Domain(None, choices=domain.choices)), name
            if (kind, name) != ("pfc-report", "stack_files"):
                assert typed_param(name, spec.default, spec) == spec.default, name

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
        ([1.0, np.int64(2)], (7,), (1, 2)),
        ((1, 2), [0.5], [1.0, 2.0]),
    ])
    def test_values_take_the_default_type(self, value, default, expected):
        out = typed_param("p", value, param(default))
        assert json.dumps(out) == json.dumps(expected) and type(out) is type(expected)

    @pytest.mark.parametrize("value, default", [
        (True, 7), (2.5, 7), (float("inf"), 7), (None, 7), (True, 0.5), ("1", 0.5),
        (1, True), (1, "mse"), (["a"], "mse"), (1, [0.5]), ("a", []), ([1], []),
        ([[1.0]], [0.5]),
    ])
    def test_other_values_rejected(self, value, default):
        with pytest.raises(ValueError, match="parameter 'p' must be of type"):
            typed_param("p", value, param(default))

    @pytest.mark.parametrize("value, default", [
        (float("nan"), 0.5), (float("inf"), 0.5), (-float("inf"), 0.5),
        ([0.1, float("nan")], [0.5]),
    ])
    def test_nonfinite_floats_rejected(self, value, default):
        with pytest.raises(ValueError, match="parameter 'p' must be finite"):
            typed_param("p", value, param(default))


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
        with pytest.raises(ValueError, match="comma"):
            format_cell("a\rb")  # read_csv splits lines there too

    @pytest.mark.parametrize("text, refused", [
        ("12", True), ("\u0663", True), ("1_000", True), (" 7", True), ("Infinity", True),
        # neither is a number literal, though one is a digit to str.isdigit
        # and the other is one once its signs are stripped
        ("\u00b2", False), ("+-5", False),
    ])
    def test_text_cell_reads_back_as_itself_or_is_refused(self, tmp_path, text, refused):
        # the refused ones would read back as 12, 3.0, 1000.0, 7.0 and inf
        path = tmp_path / "t.csv"
        if refused:
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                write_csv(path, ["c"], [(text,)])
        else:
            write_csv(path, ["c"], [(text,)])
            assert read_csv(path) == (["c"], [(text,)])

    @pytest.mark.parametrize("text", ["strictly-decreasing", "nonincreasing", "violated",
                                      "pfc2", "undefined"])
    def test_runner_text_cells_read_back_as_themselves(self, tmp_path, text):
        # the verdicts, metric kinds and "undefined" the runners write
        path = tmp_path / "t.csv"
        write_csv(path, ["c"], [(text,)])
        assert read_csv(path) == (["c"], [(text,)])

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError, match="unsupported"):
            format_cell([1.0])

    def test_parse_cell_types(self):
        assert parse_cell("12") == 12 and isinstance(parse_cell("12"), int)
        assert parse_cell("-4") == -4 and parse_cell("+4") == 4
        assert parse_cell("\u0663") == 3.0 and isinstance(parse_cell("\u0663"), float)
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, "nan"],
                             ids=["nan", "inf", "-inf", "nan-text"])
    def test_non_finite_cell_checked_on_write(self, tmp_path, value):
        # a cell that would read back as a non-finite float is refused
        # before the file is written
        path = tmp_path / "bad.csv"
        rows = [*self.ROWS[:1], ("delta", 1, value), *self.ROWS[1:]]
        with pytest.raises(DivergenceError,
                           match="^bad.csv: row 2, column value: non-finite"):
            write_csv(path, self.HEADER, rows)
        assert not path.exists()

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

    @pytest.mark.parametrize("points", [0, 1])
    def test_fewer_than_two_points_rejected(self, points):
        # before any mean: numpy warns on the mean of an empty slice
        with pytest.raises(DegenerateInputError, match=f"at least two points, got {points}"):
            spearman([1.0] * points, [2.0] * points)


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
            "layers/layer_00.npy",
            "layers/layer_01.npy",
            "layers/layer_02.npy",
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

    def test_train_resnet_measures_each_recorded_layer_once(self, tmp_path, monkeypatch):
        # report.csv reuses the metrics train took of the final stack at its
        # last recorded epoch, instead of measuring the stack a second time
        calls = []

        def counted(fs):
            calls.append(fs)
            return metrics.measure(fs)

        monkeypatch.setattr(harness, "measure", counted)
        monkeypatch.setattr(resnet, "measure", counted)
        params = {"num_blocks": 2, "width": 8, "input_dim": 4, "num_classes": 3,
                  "per_class": 8, "epochs": 4, "lr_decay_epochs": [],
                  "record_stride": 2, "grid_points": 11}
        out = tmp_path / "run"
        run(ExperimentConfig(kind="train-resnet", params=params, out_dir=out))
        assert len(calls) == 2 * 3  # epochs 2 and 4, three layers each
        trace_header, trace_rows = read_csv(out / "trace.csv")
        header, rows = read_csv(out / "report.csv")
        for kind in ("pfc1", "pfc2", "pfc3"):
            last = [csv_column(trace_header, trace_rows, f"layer{layer}_{kind}")[-1]
                    for layer in range(3)]
            assert csv_column(header, rows, kind) == last

    def test_train_resnet_writes_layer_files_holding_at_most_two(self, tmp_path, monkeypatch):
        # the layer files are written from a stream of the final layers,
        # formed again one at a time, each dropped once the next is formed
        made, alive = [], []

        def tracked_set(*args):
            fs = FeatureSet(*args)
            made.append(weakref.ref(fs))
            return fs

        def tracked_save(path, fs):
            alive.append(sum(ref() is not None for ref in made))
            save_featureset(path, fs)

        monkeypatch.setattr(resnet, "FeatureSet", tracked_set)
        monkeypatch.setattr(harness, "save_featureset", tracked_save)
        params = {"num_blocks": 4, "width": 8, "input_dim": 4, "num_classes": 3,
                  "per_class": 8, "epochs": 3, "lr_decay_epochs": [],
                  "record_stride": 2, "grid_points": 11}
        out = tmp_path / "run"
        run(ExperimentConfig(kind="train-resnet", params=params, out_dir=out))
        assert len(alive) == 5 and max(alive) <= 2


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
        assert (out / "data.npy").is_file()
        manifest = run(ExperimentConfig(kind="solve-ufm", params=SMALL_SOLVE, out_dir=out))
        assert "data.npy" not in manifest["artifacts"]
        assert set(_tree(out)) == set(manifest["artifacts"]) | {"manifest.json"}

    def test_shallower_training_lists_no_stale_layers(self, tmp_path):
        out = tmp_path / "resnet"
        tiny = {"width": 8, "input_dim": 4, "num_classes": 3, "per_class": 8,
                "epochs": 2, "lr_decay_epochs": [], "grid_points": 11}
        for blocks in (4, 2):
            manifest = run(ExperimentConfig(
                kind="train-resnet", params={**tiny, "num_blocks": blocks}, out_dir=out,
            ))
        layers = [f"layers/layer_{i:02d}.npy" for i in range(3)]
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

    def test_failed_final_move_keeps_the_earlier_run(self, tmp_path, monkeypatch):
        out = tmp_path / "etf"
        first = run(ExperimentConfig(kind="etf-check", out_dir=out))
        rename = Path.rename

        def refuse_run(self, target):
            if self.name == "run":
                raise OSError("rename refused")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", refuse_run)
        with pytest.raises(OSError, match="rename refused"):
            run(ExperimentConfig(kind="etf-check", out_dir=out))
        assert json.loads((out / "manifest.json").read_text()) == first
        assert {rel: sha256_file(out / rel) for rel in first["artifacts"]} == first["artifacts"]
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


TINY_RUNS = {
    "etf-check": {"max_classes": 4},
    "interpolate": {"num_classes": 3, "per_class": 4, "dim": 6, "grid_points": 11},
    "theorem1": {"num_paths": 3, "grid_points": 11, "classes": [3], "per_class": [4]},
    "theorem2": {"num_paths": 3, "grid_points": 11, "classes": [3], "per_class": [4]},
    "solve-ufm": SMALL_SOLVE,
    "solve-mufm": SMALL_SOLVE,
    "sweep-lambda": {"num_classes": 3, "dim": 6, "per_class": 4, "epochs": 20,
                     "lambdas": [0.001, 0.002]},
    "train-resnet": {"num_blocks": 2, "width": 8, "input_dim": 4, "num_classes": 3,
                     "per_class": 8, "epochs": 4, "lr_decay_epochs": [], "record_stride": 2,
                     "grid_points": 11},
    "pfc-report": {"grid_points": 11},
    "equivalence-thm3": {"depths": [2, 3], "num_classes": 3, "dim": 6, "per_class": 4,
                         "chain_iters": 20},
}


STACK = ["layer_0.npy", "layer_1.npy", "layer_2.npy"]
# each kind at two classes, so that no rule tying two parameters together
# fires at a boundary value; pfc-report reads STACK, written at two classes
TWO_CLASSES = {
    "etf-check": {"min_classes": 2, "max_classes": 2},
    "theorem1": {"classes": [2]},
    "theorem2": {"classes": [2]},
    "pfc-report": {"stack_files": STACK},
}


def _sets(params: dict) -> list[str]:
    """``--set`` arguments for each parameter, its value written as JSON."""
    return [arg for name, value in params.items()
            for arg in ("--set", f"{name}={json.dumps(value)}")]


def _domain_edges():
    """(kind, name, outside, edge, message) for each bound of a kind's
    parameter table: a value just outside the domain, the value on its
    edge, and the message the outside value fails with."""
    for kind, entry in KINDS.items():
        for name, spec in entry.params.items():
            default, domain = spec.default, spec.metadata["domain"]
            listed = isinstance(default, (list, tuple))
            if listed and domain.min_len:
                sample = default or STACK
                short = sample[:domain.min_len - 1]
                message = (f"{name} must hold at least {domain.min_len} items, got {short}"
                           if short else f"{name} must not be empty")
                yield pytest.param(kind, name, short, sample[:domain.min_len], message,
                                   id=f"{kind}-{name}-length")
            if domain.low is None:
                continue
            number = type(default[0] if listed else default)
            low = number(domain.low)
            if number is int:
                outside, edge = (low, low + 1) if domain.open else (low - 1, low)
            elif domain.open:
                outside, edge = low, float(np.nextafter(low, np.inf))
            else:
                outside, edge = float(np.nextafter(low, -np.inf)), low
            if listed:
                outside, edge = [outside], [edge]
            message = f"{name} must be {'>' if domain.open else '>='} {domain.low}, got {outside}"
            yield pytest.param(kind, name, outside, edge, message, id=f"{kind}-{name}")


class TestRunnerContract:
    """A runner returns its summary and artifacts and touches no disk;
    ``run`` writes exactly those artifacts plus summary.json."""

    def test_every_kind_has_a_tiny_run(self):
        assert set(TINY_RUNS) == set(KINDS)

    @pytest.fixture(scope="class")
    def stack_files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("stack")
        rng = np.random.default_rng(5)
        files = []
        for layer in range(3):
            path = directory / f"layer_{layer}.npy"
            save_featureset(path, FeatureSet(rng.standard_normal((4, 12)), 3, 4))
            files.append(str(path))
        return files

    @pytest.mark.parametrize("kind", TINY_RUNS)
    def test_runner_returns_what_run_writes(self, kind, stack_files, tmp_path,
                                            tmp_path_factory, monkeypatch):
        params = dict(TINY_RUNS[kind])
        if kind == "pfc-report":
            params["stack_files"] = stack_files
        config = ExperimentConfig(
            kind=kind, params=params, out_dir=tmp_path_factory.mktemp("run") / kind
        )
        monkeypatch.chdir(tmp_path)
        summary, artifacts = KINDS[kind].run(config)
        assert list(tmp_path.iterdir()) == []
        assert isinstance(summary, dict)
        for rel, item in artifacts.items():
            assert Path(rel).as_posix() == rel and not Path(rel).is_absolute()
            if callable(item):
                item = item()
                assert isinstance(item, FeatureSet), rel
            if not isinstance(item, FeatureSet):
                header, rows = item
                assert rows, rel
                assert all(len(row) == len(header) for row in rows), rel
        manifest = run(config)
        assert set(manifest["artifacts"]) == {*artifacts, "summary.json"}


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "etf"
        code = cli.main(
            ["etf-check", "--out", str(out), "--set", "max_classes=3"]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert "artifacts" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def two_class_stack(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("two-class-stack")
        rng = np.random.default_rng(5)
        for name in STACK:
            save_featureset(directory / name, FeatureSet(rng.standard_normal((4, 8)), 2, 4))
        return directory

    @pytest.mark.parametrize("kind, name, outside, edge, message", _domain_edges())
    def test_parameter_domain_edges(self, tmp_path, capsys, monkeypatch, two_class_stack,
                                    kind, name, outside, edge, message):
        # a value just outside its domain fails while the config is built,
        # so before any work; the value on the edge runs, or fails as a
        # numeric failure, and a run it writes holds no non-finite cell
        monkeypatch.chdir(two_class_stack)
        params = {**TINY_RUNS[kind], **TWO_CLASSES.get(kind, {"num_classes": 2})}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolve_config(kind, overrides=[*params.items(), (name, outside)])
        out = tmp_path / "x"

        def main(value):
            return cli.main([kind, "--out", str(out), *_sets({**params, name: value})])

        assert main(outside) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        code = main(edge)
        assert code in (0, 2)
        if code == 2:
            assert list(tmp_path.iterdir()) == []
        for path in out.rglob("*.csv"):
            header, rows = read_csv(path)
            for column in header:
                cells = [c for c in csv_column(header, rows, column) if isinstance(c, float)]
                assert np.all(np.isfinite(cells)), (path.name, column)

    @pytest.mark.parametrize("kind, setting, message, target", [
        ("sweep-lambda", "lambdas=[-1.0]", "lambdas must be > 0, got [-1.0]",
         "SolveProblem"),
        ("sweep-lambda", "lambdas=[0.001, 0.0]", "lambdas must be > 0, got [0.001, 0.0]",
         "SolveProblem"),
        ("etf-check", "extra_dims=[-1]", "extra_dims must be >= 0, got [-1]",
         "build_etf"),
        ("etf-check", "extra_dims=[2, -3]", "extra_dims must be >= 0, got [2, -3]",
         "build_etf"),
    ])
    def test_bad_list_entry_names_the_parameter(self, tmp_path, capsys, monkeypatch,
                                                kind, setting, message, target):
        def never(*args, **kwargs):
            raise AssertionError(f"{target} was called")

        monkeypatch.setattr(harness, target, never)
        args = [kind, "--out", str(tmp_path / "x"), "--set", setting]
        assert cli.main(args) == 1
        assert f"invalid run: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["solve-ufm", "sweep-lambda"])
    def test_bad_loss_fails_before_any_problem_is_built(self, tmp_path, capsys, monkeypatch,
                                                        kind):
        def never(*args, **kwargs):
            raise AssertionError("a SolveProblem was built")

        monkeypatch.setattr(harness, "SolveProblem", never)
        args = [kind, "--out", str(tmp_path / "x"), "--set", "loss=foo"]
        assert cli.main(args) == 1
        message = "loss must be one of ('ce', 'mse'), got 'foo'"
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["num_blocks", "width", "input_dim", "per_class",
                                      "epochs", "batch_size", "record_stride"])
    def test_zero_train_size_names_the_parameter(self, tmp_path, capsys, monkeypatch,
                                                 name):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(harness, "train", never)
        args = ["train-resnet", "--out", str(tmp_path / "x"), "--set", f"{name}=0"]
        assert cli.main(args) == 1
        low = _domain("train-resnet", name).low
        assert f"invalid run: {name} must be >= {low}, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting, message", [
        ("lr=-0.5", "lr must be >= 0, got -0.5"),
        ("weight_decay=-1.0", "weight_decay must be >= 0, got -1.0"),
        ("lr_decay_factor=0.0", "lr_decay_factor must be > 0, got 0.0"),
        ("lr_decay_epochs=[0, 100]", "lr_decay_epochs must lie within 1..3000, got [0, 100]"),
    ])
    def test_bad_train_rate_names_the_parameter_and_value(self, tmp_path, capsys,
                                                          monkeypatch, setting, message):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(harness, "train", never)
        args = ["train-resnet", "--out", str(tmp_path / "x"), "--set", setting]
        assert cli.main(args) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("kind, setting, message", [
        ("train-resnet", "grid_points=1", "grid_points must be >= 2, got 1"),
        ("train-resnet", "effective_epsilon=-0.1", "effective_epsilon must be >= 0, got -0.1"),
        ("pfc-report", "grid_points=1", "grid_points must be >= 2, got 1"),
        ("pfc-report", "effective_epsilon=-1.0", "effective_epsilon must be >= 0, got -1.0"),
        ("interpolate", "grid_points=1", "grid_points must be >= 2, got 1"),
        ("theorem1", "grid_points=0", "grid_points must be >= 2, got 0"),
        ("theorem2", "grid_points=1", "grid_points must be >= 2, got 1"),
    ])
    def test_bad_report_parameter_named_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        kind, setting, message):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        for fn in ("train", "load_featureset", "random_to_collapse_path",
                   "perturbed_collapse_path"):
            monkeypatch.setattr(harness, fn, never)
        args = [kind, "--out", str(tmp_path / "x"), "--set", setting]
        assert cli.main(args) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_class_range_names_both_values(self, tmp_path, capsys):
        args = ["etf-check", "--out", str(tmp_path / "x"),
                "--set", "min_classes=5", "--set", "max_classes=3"]
        assert cli.main(args) == 1
        assert ("need 2 <= min_classes <= max_classes, got min_classes=5, max_classes=3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("setting, message", [
        ("chain_lr=-1.0", "chain_lr must be > 0, got -1.0"),
        ("chain_lr=0.0", "chain_lr must be > 0, got 0.0"),
        ("chain_iters=-1", "chain_iters must be >= 1, got -1"),
        ("chain_iters=0", "chain_iters must be >= 1, got 0"),
    ])
    def test_bad_chain_parameter_named_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       setting, message):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        for fn in ("gen_gaussian_mixture", "minimize_transport_chain"):
            monkeypatch.setattr(harness, fn, never)
        args = ["equivalence-thm3", "--out", str(tmp_path / "x"), "--set", setting]
        assert cli.main(args) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ends_far_apart_in_scale_give_finite_curves(self, tmp_path):
        # at end_scale=1e100 the pfc2 curve's norm once squared the start's
        # Gram to 0, and the run exited 2 on an inf cell
        out = tmp_path / "x"
        assert cli.main(["interpolate", "--out", str(out), "--set", "end_scale=1e100"]) == 0
        header, rows = read_csv(out / "curves.csv")
        assert all(np.isfinite(float(v)) for v in csv_column(header, rows, "value"))

    def test_ends_too_far_apart_in_scale_are_numeric_failure(self, tmp_path, capsys):
        # at end_scale=1e160 the start's between-class sum is subnormal in
        # the window it shares with the end: refused, not written rounded
        out = tmp_path / "x"
        assert cli.main(["interpolate", "--out", str(out), "--set", "end_scale=1e160"]) == 2
        assert ("numeric failure: pfc1 degenerate at t=0.0: centered class means underflow"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_curve_cell_is_numeric_failure_naming_the_file(self, tmp_path,
                                                                       capsys, monkeypatch):
        # a pfc2 curve with inf at t = 0: the run must not be written, and
        # the earlier run stays
        out = tmp_path / "x"
        assert cli.main(["interpolate", "--out", str(out)]) == 0
        before = (out / "manifest.json").read_bytes()

        curve = harness.metric_curve

        def inf_at_start(path, kind):
            values = curve(path, kind)
            if kind == "pfc2":
                values[0] = np.inf
            return values

        monkeypatch.setattr(harness, "metric_curve", inf_at_start)
        assert cli.main(["interpolate", "--out", str(out), "--seed", "4"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"numeric failure: curves.csv: row \d+, column value: "
                         r"non-finite value inf\n", err)
        assert (out / "manifest.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x"]

    def test_ufm_alignment_cell_is_undefined(self, tmp_path):
        out = tmp_path / "x"
        assert cli.main(["solve-ufm", "--out", str(out), *_sets(TINY_RUNS["solve-ufm"])]) == 0
        header, rows = read_csv(out / "result.csv")
        assert csv_column(header, rows, "alignment") == ["undefined"]

    def test_diverged_chain_is_numeric_failure_naming_the_depth(self, tmp_path, capsys):
        # past the stable step size the depth-2 chain overflows: no run
        # with nan cells may be written
        args = ["equivalence-thm3", "--out", str(tmp_path / "x"), "--set", "chain_lr=0.6",
                "--set", "depths=[2]", "--set", "num_classes=3", "--set", "dim=4",
                "--set", "per_class=3"]
        assert cli.main(args) == 2
        assert "diverged at depth 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, key", [("sweep-lambda", "spearman_lambda_pfc2"),
                                           ("train-resnet", "spearman_layer_pfc2")])
    def test_two_class_pfc2_rank_correlation_is_null(self, tmp_path, kind, key):
        # two centered class means are m and -m, whose normalized Gram is the
        # K = 2 target exactly, so pfc2 is rounding noise with no ranks
        out = tmp_path / "x"
        assert cli.main([kind, "--out", str(out),
                         *_sets({**TINY_RUNS[kind], "num_classes": 2})]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary[key] is None
        assert -1.0 <= summary[key.replace("pfc2", "pfc1")] <= 1.0

    @pytest.mark.parametrize("kind", ["train-resnet", "pfc-report"])
    def test_two_class_pfc2_verdict_is_null(self, tmp_path, monkeypatch, two_class_stack, kind):
        # the predicted pfc2 curve is rounding noise at K = 2 as well, so it
        # gets no monotonicity verdict, as the observed one gets no ranks
        monkeypatch.chdir(two_class_stack)
        out = tmp_path / "x"
        params = {**TINY_RUNS[kind], **TWO_CLASSES.get(kind, {"num_classes": 2})}
        assert cli.main([kind, "--out", str(out), *_sets(params)]) == 0
        verdicts = json.loads((out / "summary.json").read_text())["predicted_verdicts"]
        assert verdicts["pfc2"] is None
        assert verdicts["pfc1"] in ("strictly-decreasing", "nonincreasing", "violated")

    def test_two_class_interpolate_pfc2_verdict_is_null(self, tmp_path):
        out = tmp_path / "x"
        params = {**TINY_RUNS["interpolate"], "num_classes": 2}
        assert cli.main(["interpolate", "--out", str(out), *_sets(params)]) == 0
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        assert verdicts["pfc2"] is None
        assert verdicts["pfc1"] in ("strictly-decreasing", "nonincreasing", "violated")

    @pytest.mark.parametrize("kind", ["theorem1", "theorem2"])
    def test_narrow_pairing_refused_before_the_first_path(self, tmp_path, capsys, monkeypatch,
                                                         kind):
        # paths cycle through the classes x per_class x dims pairings; each
        # one the run will use is checked for dims >= classes before any path
        built = []
        for name in ("random_to_collapse_path", "perturbed_collapse_path"):
            monkeypatch.setattr(harness, name, lambda *args, real=getattr(harness, name),
                                **kwargs: built.append(args) or real(*args, **kwargs))
        params = {**TINY_RUNS[kind], "classes": [3, 10], "dims": [8], "per_class": [4, 20],
                  "num_paths": 4}
        assert cli.main([kind, "--out", str(tmp_path / "x"), *_sets(params)]) == 1
        message = "dims must be >= classes, got dims=8 < K=10"
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert built == [] and list(tmp_path.iterdir()) == []
        # the first two paths pair K = 3 with d = 8 and run
        params["num_paths"] = 2
        assert cli.main([kind, "--out", str(tmp_path / "x"), *_sets(params)]) == 0
        assert [(k, d) for _, k, _, d in built] == [(3, 8)] * 2

    def test_two_class_theorem2_paths_have_no_verdict(self, tmp_path):
        # a K = 2 path's pfc2 curve is rounding noise: its verdict cell is a
        # marker, and it counts neither for nor against the theorem; the
        # K = 3 paths beside it are judged as before
        out = tmp_path / "x"
        params = {**TINY_RUNS["theorem2"], "classes": [2, 3], "num_paths": 4}
        assert cli.main(["theorem2", "--out", str(out), *_sets(params)]) == 0
        header, rows = read_csv(out / "paths.csv")
        cells = [(row[1], row[4], row[5]) for row in rows]
        assert [c for c in cells if c[0] == 2] == [(2, "undefined", -1)] * 2
        assert [c[1] for c in cells if c[0] == 3] == ["strictly-decreasing"] * 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["monotone_count"] == 2
        assert summary["all_monotone"] is True

    def test_degenerate_sweep_lane_names_its_lambda(self, tmp_path, capsys, monkeypatch):
        calls = []

        def degenerate_second(fs):
            calls.append(fs)
            if len(calls) == 2:
                raise DegenerateInputError("all class means coincide")
            return metrics.measure(fs)

        monkeypatch.setattr(harness, "measure", degenerate_second)
        args = ["sweep-lambda", "--out", str(tmp_path / "x"), *_sets(TINY_RUNS["sweep-lambda"])]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "numeric failure: lambda=0.002: all class means coincide\n" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_keeps_its_bits_in_a_fresh_process(self, tmp_path, kind):
        # buffer addresses and heap layout are process state: a run here,
        # after many others, and one in a fresh interpreter write the same
        # artifacts.  train-resnet trains the default network; pfc-report
        # reads a tiny train-resnet run's layers
        params = TINY_RUNS[kind]
        if kind == "train-resnet":
            params = {"epochs": 2, "lr_decay_epochs": [], "grid_points": 11}
        elif kind == "pfc-report":
            stack = tmp_path / "stack"
            assert cli.main(["train-resnet", "--out", str(stack),
                             *_sets(TINY_RUNS["train-resnet"])]) == 0
            layers = sorted(str(path) for path in (stack / "layers").iterdir())
            params = {**params, "stack_files": layers}
        args = [kind, "--seed", "3", *_sets(params)]
        assert cli.main([*args, "--out", str(tmp_path / "here")]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # train-resnet also runs on one BLAS thread, against the machine's default
        threads = {"fresh": None, **({"one-thread": "1"} if kind == "train-resnet" else {})}
        for name, count in threads.items():
            subprocess.run([sys.executable, "-m", "pfc", *args, "--out", str(tmp_path / name)],
                           env={**env, **({"OPENBLAS_NUM_THREADS": count} if count else {})},
                           check=True, capture_output=True, timeout=60)
        here = json.loads((tmp_path / "here" / "manifest.json").read_text())["artifacts"]
        for name in threads:
            fresh = json.loads((tmp_path / name / "manifest.json").read_text())["artifacts"]
            differ = [rel for rel in sorted(here.keys() | fresh.keys())
                      if here.get(rel) != fresh.get(rel)]
            assert not differ, f"{name}: first differing file: {differ[0]}"

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
        for name in ("a.npy", "b.npy"):
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
            path = tmp_path / f"layer{layer}.npy"
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
            path = tmp_path / f"layer{layer}.npy"
            save_featureset(path, fs)
            files.append(str(path))
        calls = []
        original = metrics._Moments.gaps.func
        counted = functools.cached_property(
            lambda moments: calls.append(len(moments.centered)) or original(moments)
        )
        counted.__set_name__(metrics._Moments, "gaps")
        monkeypatch.setattr(metrics._Moments, "gaps", counted)
        out = tmp_path / "report"
        run(ExperimentConfig(kind="pfc-report",
                             params={"stack_files": files, "grid_points": 5},
                             out_dir=out))
        assert sorted(calls) == [1, 1, 1, 2]
        summary = json.loads((out / "summary.json").read_text())
        stack = tuple(load_featureset(f) for f in files)
        first = next((i for i, fs in enumerate(stack) if 1.0 - metrics.pfc3(fs) <= 0.05), None)
        assert summary["effective_depth"] == first

    def test_layers_are_held_at_most_three_at_once(self, tmp_path, monkeypatch):
        # the layer files are read one at a time, and only the first layer
        # and the latest are kept between reads
        rng = np.random.default_rng(8)
        files = []
        for layer in range(7):
            path = tmp_path / f"layer{layer}.npy"
            save_featureset(path, FeatureSet(rng.standard_normal((4, 12)), 3, 4))
            files.append(str(path))
        loaded, alive = [], []

        def count_alive():
            alive.append(sum(ref() is not None for ref in loaded))

        def tracked_load(path):
            fs = load_featureset(path)
            loaded.append(weakref.ref(fs))
            count_alive()
            return fs

        def tracked_measure(fs):
            count_alive()
            return metrics.measure(fs)

        monkeypatch.setattr(harness, "load_featureset", tracked_load)
        monkeypatch.setattr(harness, "measure", tracked_measure)
        out = tmp_path / "report"
        run(ExperimentConfig(kind="pfc-report",
                             params={"stack_files": files, "grid_points": 5},
                             out_dir=out))
        assert len(loaded) == 7
        assert max(alive) <= 3
        summary = json.loads((out / "summary.json").read_text())
        stack = tuple(load_featureset(f) for f in files)
        assert summary["relative_positions"] == stack_positions(stack).tolist()

    def test_each_layer_is_opened_twice(self, tmp_path, monkeypatch):
        # all headers are read first, then each layer is loaded; layer 1 is text
        rng = np.random.default_rng(11)
        files = []
        for layer in range(3):
            fs = FeatureSet(rng.standard_normal((4, 12)), 3, 4)
            path = tmp_path / f"layer{layer}"
            (write_text_layer if layer == 1 else save_featureset)(path, fs)
            files.append(str(path))
        opened = []

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(core, "open", counted_open, raising=False)
        run(ExperimentConfig(kind="pfc-report",
                             params={"stack_files": files, "grid_points": 5},
                             out_dir=tmp_path / "report"))
        assert opened == files + files

    @pytest.mark.parametrize("shapes, message", [
        ([(6, 3, 4), (6, 3, 4), (4, 3, 4)],
         "layer 2 has shape (K=3, n=4, d=4), expected (K=3, n=4, d=6)"),
        ([(2, 3, 4)] * 3, "stack_files: dim must be >= num_classes, got dim=2 < K=3"),
    ], ids=["last-header-mismatch", "dim-below-classes"])
    @pytest.mark.parametrize("text_layers", [(), (2,), (0, 1)],
                             ids=["npy", "text-last", "text-first"])
    def test_header_error_before_any_body_is_parsed(self, tmp_path, capsys, monkeypatch,
                                                    shapes, message, text_layers):
        # shapes are (d, K, n) per layer file; the layers in text_layers are
        # written in the text format, the others in .npy
        rng = np.random.default_rng(9)
        files = []
        for layer, (d, k, n) in enumerate(shapes):
            fs = FeatureSet(rng.standard_normal((d, k * n)), k, n)
            if layer in text_layers:
                path = tmp_path / f"layer{layer}.txt"
                write_text_layer(path, fs)
            else:
                path = tmp_path / f"layer{layer}.npy"
                save_featureset(path, fs)
            files.append(str(path))

        def never(*args, **kwargs):
            raise AssertionError("a layer file body was parsed")

        monkeypatch.setattr(np, "loadtxt", never)
        monkeypatch.setattr(harness, "load_featureset", never)
        args = ["pfc-report", "--out", str(tmp_path / "x"), *_sets({"stack_files": files})]
        assert cli.main(args) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["a b c\n0 0\n0 0\n", "2 -1 2\n0 0\n0 0\n",
                                      "2 1 2\n0 0\n0\n"],
                             ids=["header", "header-field", "body"])
    def test_bad_layer_file_among_good_ones_is_named(self, tmp_path, capsys, text):
        rng = np.random.default_rng(10)
        files = [tmp_path / f"layer{layer}.txt" for layer in range(3)]
        for path in files[::2]:
            save_featureset(path, FeatureSet(rng.standard_normal((2, 2)), 2, 1))
        files[1].write_text(text)
        args = ["pfc-report", "--out", str(tmp_path / "x"),
                *_sets({"stack_files": [str(f) for f in files]})]
        assert cli.main(args) == 1
        assert f"invalid run: {files[1]}: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_stack_narrower_than_classes_rejected(self, tmp_path):
        files = []
        for layer in range(2):
            fs = FeatureSet(np.arange(12.0).reshape(2, 6) * (layer + 1), 3, 2)
            path = tmp_path / f"layer{layer}.npy"
            save_featureset(path, fs)
            files.append(str(path))
        cfg = ExperimentConfig(
            kind="pfc-report", params={"stack_files": files}, out_dir=tmp_path / "x"
        )
        message = "stack_files: dim must be >= num_classes, got dim=2 < K=3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(cfg)

    def test_fewer_than_two_stacks_rejected(self):
        # the default, empty stack_files lies outside its domain, so every
        # pfc-report run must set it
        with pytest.raises(ValueError, match=re.escape("at least 2 items, got []")):
            ExperimentConfig(kind="pfc-report")
        with pytest.raises(ValueError, match=re.escape("at least 2 items, got ['a.txt']")):
            ExperimentConfig(kind="pfc-report", params={"stack_files": ["a.txt"]})
