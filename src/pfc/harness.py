"""Experiment recipes, artifact serialization, and run manifests.

``KINDS`` maps each experiment kind to its runner and its parameter
table.  A default's type is its parameter's type, and each number or list
has one :class:`~pfc.core.Domain`: beside its default, or where the library
states it, as for train-resnet's knobs (``TrainConfig``'s fields, defaults
too) and the descents' (``surrogate.DESCENT``).  Every value a run receives
is typed and checked against both while its :class:`ExperimentConfig` is
built (:func:`typed_param`), so a bad value fails, naming the parameter and
its value, before any work.  Rules that tie two parameters together stay
with the runner or library class that needs them.  A run maps
the resolved parameter block plus a seed to a private output directory
holding CSV tables, a JSON summary, and a manifest that echoes the full
configuration together with sha256 checksums of every artifact.  The
directory is replaced only by a run that succeeds, so it always holds
exactly one run.  All CSV numbers are written with 17 significant digits
so re-reading them reproduces the exact float bits, none of them is ``nan``
or ``inf`` (:func:`write_csv` fails the run instead), and every random
stream is derived from the run seed, so a repeated run yields
byte-identical artifacts.

A runner takes only its :class:`ExperimentConfig` and touches no disk.
It returns ``(summary, artifacts)``: the summary is the dict that becomes
``summary.json``, and ``artifacts`` maps each relative POSIX path to a
``(header, rows)`` table, a :class:`~pfc.core.FeatureSet`, or a function
that forms the feature set when its file is written.  :func:`run` is the
one writer: it writes the artifacts in the order the runner lists them,
then the summary, and hashes exactly the files it wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import shutil
import tempfile
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    UNBOUNDED,
    DegenerateInputError,
    DivergenceError,
    Domain,
    FeatureSet,
    check_domain,
    check_layer_shapes,
    ge,
    gt,
    load_featureset,
    read_header,
    save_featureset,
)
from .data import gen_gaussian_mixture, load_mnist_idx
from .etf import build_etf, gram_target
from .geodesic import (
    METRIC_KINDS,
    InterpolationPath,
    make_nc_featureset,
    metric_curve,
    metric_values,
    monotonicity_report,
    perturbed_collapse_path,
    positions_from_steps,
    random_to_collapse_path,
    step_length,
    uniform_grid,
)
from .metrics import PfcReport, alignment, first_within_error, measure
from .resnet import TrainConfig, train
from .surrogate import (
    DESCENT,
    SolveProblem,
    SolveResult,
    collapse_multilayer,
    minimize_transport_chain,
    multilayer_objective,
    objective,
    solve,
    sweep_lambda,
)


# a runner's artifacts: relative POSIX path -> CSV table (header, rows) or
# layer file, given as a feature set or a function that forms one
Table = tuple[tuple[str, ...], list[tuple]]
Artifacts = dict[str, Table | FeatureSet | Callable[[], FeatureSet]]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: kind, parameter block, seed, output directory.

    Parameters not given explicitly resolve to the kind's defaults, and
    each value is typed from its default and checked against its domain
    (:func:`typed_param`); unknown keys are rejected so typos cannot
    silently fall back.  A default outside its domain, pfc-report's empty
    ``stack_files``, makes its parameter one that every run must set.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 1
    out_dir: Path | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; valid kinds: {', '.join(KINDS)}"
            )
        kind = KINDS[self.kind]
        unknown = sorted(set(self.params) - set(kind.defaults))
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.kind}: {unknown}; "
                f"valid keys: {sorted(kind.defaults)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        check_domain("seed", self.seed, ge(0))
        object.__setattr__(self, "seed", int(self.seed))
        # given values first, so a bad one is named before a parameter left
        # at a default that no run can use
        params = {
            name: typed_param(name, self.params.get(name, default), default,
                              kind.domains.get(name, UNBOUNDED))
            for name, default in sorted(kind.defaults.items(),
                                        key=lambda item: item[0] not in self.params)
        }
        object.__setattr__(self, "params", params)
        out = Path("runs") / self.kind if self.out_dir is None else Path(self.out_dir)
        object.__setattr__(self, "out_dir", out)


def typed_param(name: str, value, default, domain: Domain = UNBOUNDED):
    """``value`` as the type of the parameter's ``default``, inside ``domain``.

    An int takes an int or an integral float, a float takes an int or a
    finite float, a bool only a bool and a str only a str.  A list takes a list
    whose items are typed from the default's first item (str when the
    default is empty).

    Raises:
        ValueError: naming the parameter, for any other value; naming the
            parameter and its value, for a value outside ``domain``.
    """
    typed = _typed(name, value, default)
    check_domain(name, typed, domain)
    return typed


def _typed(name: str, value, default):
    number = isinstance(value, (int, np.integer, float)) and not isinstance(value, bool)
    if isinstance(default, list):
        if isinstance(value, list):
            item = default[0] if default else ""
            return [_typed(name, v, item) for v in value]
    elif isinstance(default, (bool, str)):
        if isinstance(value, type(default)):
            return value
    elif isinstance(default, int):
        if number and (not isinstance(value, float) or value.is_integer()):
            return int(value)
    elif number:
        if not np.isfinite(value):
            raise ValueError(f"parameter {name!r} must be finite, got {value!r}")
        return float(value)
    raise ValueError(
        f"parameter {name!r} must be of type {type(default).__name__}, got {value!r}"
    )


def parse_override(text: str) -> tuple[str, object]:
    """Split a ``key=value`` override; the value is parsed as JSON when
    possible and kept as a raw string otherwise."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"overrides take the form key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def load_config_file(path) -> dict:
    """Read a JSON config file with keys among kind/seed/out_dir/params."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - {"kind", "seed", "out_dir", "params"})
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    if "params" in data and not isinstance(data["params"], dict):
        raise ValueError("config 'params' must be an object")
    return data


def resolve_config(
    kind: str,
    config_path=None,
    seed: int | None = None,
    out_dir=None,
    overrides=(),
) -> ExperimentConfig:
    """Merge defaults, an optional config file, and CLI overrides.

    Precedence, lowest to highest: kind defaults, config file,
    ``overrides`` (key=value pairs targeting the parameter block), and the
    explicit ``seed``/``out_dir`` arguments.
    """
    data = load_config_file(config_path) if config_path is not None else {}
    file_kind = data.get("kind")
    if file_kind is not None and file_kind != kind:
        raise ValueError(
            f"config file is for kind {file_kind!r}, requested {kind!r}"
        )
    params = dict(data.get("params", {}))
    for item in overrides:
        key, value = parse_override(item) if isinstance(item, str) else item
        params[key] = value
    resolved_seed = seed if seed is not None else data.get("seed", 1)
    resolved_out = out_dir if out_dir is not None else data.get("out_dir")
    return ExperimentConfig(
        kind=kind, params=params, seed=resolved_seed, out_dir=resolved_out
    )


def format_cell(value) -> str:
    """One CSV cell: ints verbatim, floats with 17 significant digits (a
    decimal marker is forced so the reader can restore the type), bare
    strings."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("write booleans as ints or strings, not raw bools")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = "%.17g" % float(value)
        if text.lstrip("+-").isdigit():
            text += ".0"
        return text
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"cell text may not contain commas or newlines: {value!r}")
        return value
    raise TypeError(f"unsupported cell type {type(value).__name__}")


def parse_cell(text: str):
    """Inverse of :func:`format_cell`: int, then float, then string."""
    if text.lstrip("+-").isdigit():
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


_NON_FINITE = {"nan", "inf", "-inf"}


def write_csv(path, header, rows) -> None:
    """Comma-separated table with a header line; floats keep full precision,
    and a non-finite cell raises DivergenceError naming its file (not the
    directory, which for a run is a staging one), row and column."""
    header = list(header)
    lines = [",".join(header)]
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"row has {len(row)} cells, header has {len(header)}")
        cells = [format_cell(v) for v in row]
        for column, cell in zip(header, cells):
            if cell in _NON_FINITE:
                raise DivergenceError(f"{Path(path).name}: row {i}, column {column}: "
                                      f"non-finite value {cell}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], list[tuple]]:
    """Read a table written by :func:`write_csv`; values come back with
    their original types and exact float bits."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty csv file: {path}")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"malformed csv row in {path}: {line!r}")
        rows.append(tuple(parse_cell(c) for c in cells))
    return header, rows


def csv_column(header: list[str], rows: list[tuple], name: str) -> list:
    try:
        idx = header.index(name)
    except ValueError:
        raise KeyError(f"no column {name!r}; have {header}") from None
    return [row[idx] for row in rows]


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _avg_ranks(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    _, inverse, counts = np.unique(v[order], return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks_sorted = starts[inverse] + (counts[inverse] - 1) / 2.0
    ranks = np.empty_like(ranks_sorted)
    ranks[order] = ranks_sorted
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks on ties.

    Raises:
        DegenerateInputError: if either input is constant.
    """
    rx = _avg_ranks(x)
    ry = _avg_ranks(y)
    if rx.shape != ry.shape:
        raise ValueError(f"length mismatch: {rx.size} vs {ry.size}")
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0.0:
        raise DegenerateInputError("rank correlation undefined for constant input")
    return float(np.sum(rx * ry) / denom)


def _mixture(cfg: ExperimentConfig, dim: int) -> FeatureSet:
    """The run's Gaussian-mixture data of ``dim`` rows, from its data seed."""
    p = cfg.params
    return gen_gaussian_mixture(
        p["num_classes"], dim, p["per_class"],
        mean_scale=p["mean_scale"], noise_scale=p["noise_scale"], seed=[cfg.seed, 11],
    )


def _problem(cfg: ExperimentConfig, kind: str, lam: float, data) -> SolveProblem:
    """The run's UFM or MUFM problem at coefficient ``lam``."""
    p = cfg.params
    return SolveProblem(kind=kind, loss=p["loss"], num_classes=p["num_classes"],
                        dim=p["dim"], per_class=p["per_class"], lambda_w=p["lambda_w"],
                        lam=lam, data=data, seed=cfg.seed)


def _run_etf_check(cfg: ExperimentConfig) -> tuple[dict, Artifacts]:
    p = cfg.params
    if p["max_classes"] < p["min_classes"]:
        raise ValueError(
            "need 2 <= min_classes <= max_classes, got "
            f"min_classes={p['min_classes']}, max_classes={p['max_classes']}"
        )
    rows = []
    for k in range(p["min_classes"], p["max_classes"] + 1):
        for extra in p["extra_dims"]:
            d = k + extra
            m = build_etf(k, d, seed=[cfg.seed, k, d])
            gram = m.T @ m
            off_diag = gram[~np.eye(k, dtype=bool)]
            norm_dev = float(np.max(np.abs(np.linalg.norm(m, axis=0) - 1.0)))
            cosine_dev = float(np.max(np.abs(off_diag + 1.0 / (k - 1))))
            scaled_centering = (k / (k - 1.0)) * (np.eye(k) - 1.0 / k)
            gram_dev = float(np.max(np.abs(gram - scaled_centering)))
            target_dev = float(abs(np.linalg.norm(gram_target(k)) - 1.0))
            rows.append((k, d, norm_dev, cosine_dev, gram_dev, target_dev))
    worst = max(max(row[2:]) for row in rows)
    return {
        "cases": len(rows),
        "max_deviation": worst,
        "tolerance": p["tolerance"],
        "all_within_tolerance": bool(worst <= p["tolerance"]),
    }, {"etf_check.csv": (
        ("num_classes", "dim", "norm_dev", "cosine_dev", "gram_dev", "target_fro_dev"),
        rows,
    )}


def _run_interpolate(cfg: ExperimentConfig) -> tuple[dict, Artifacts]:
    p = cfg.params
    path = random_to_collapse_path(
        cfg.seed,
        num_classes=p["num_classes"],
        per_class=p["per_class"],
        dim=p["dim"],
        grid_points=p["grid_points"],
        end_scale=p["end_scale"],
    )
    curves, table = _curves(path)
    return {
        "verdicts": {
            "pfc1": _verdict(curves["pfc1"]),
            "pfc2": _judge_pfc2(p["num_classes"], _verdict, curves["pfc2"]),
        },
        "final_values": {kind: float(values[-1]) for kind, values in curves.items()},
    }, {"curves.csv": table}


def _curves(path: InterpolationPath) -> tuple[dict[str, np.ndarray], Table]:
    """Every metric's values on a path's grid, and the curves.csv table of them."""
    curves = {kind: metric_curve(path, kind) for kind in METRIC_KINDS}
    return curves, (("t", "value", "metric_kind"), [
        (float(t), float(v), kind)
        for kind, values in curves.items() for t, v in zip(path.grid, values)
    ])


def _verdict(values: np.ndarray) -> str:
    return monotonicity_report(values).kind


def _run_path_suite(cfg: ExperimentConfig, variant: int) -> tuple[dict, Artifacts]:
    p = cfg.params
    combos = list(itertools.product(p["classes"], p["per_class"], p["dims"]))
    rows = []
    for i in range(p["num_paths"]):
        k, n, d = combos[i % len(combos)]
        if variant == 1:
            path = random_to_collapse_path(
                [cfg.seed, i], k, n, d,
                grid_points=p["grid_points"], end_scale=p["end_scale"],
            )
            curve = metric_curve(path, "pfc1")
            verdict = monotonicity_report(curve)
            accept = ("strictly-decreasing",)
        else:
            path = perturbed_collapse_path(
                [cfg.seed, i], k, n, d,
                grid_points=p["grid_points"], end_scale=p["end_scale"],
                eps_rel=p["eps_rel"],
            )
            curve = metric_curve(path, "pfc2")
            verdict = _judge_pfc2(k, monotonicity_report, curve)
            accept = ("strictly-decreasing", "nonincreasing")
        if verdict is None:
            cells = (_UNDEFINED, -1)
        else:
            first = verdict.first_violation
            cells = (verdict.kind, -1 if first is None else first)
        rows.append((i, k, n, d, *cells, float(curve[-1])))
    verdict_ok = sum(row[4] in accept for row in rows)
    judged = sum(row[4] != _UNDEFINED for row in rows)
    max_final = max(row[-1] for row in rows)
    return {
        "paths": p["num_paths"],
        "monotone_count": verdict_ok,
        # a path with no verdict is not counted against the theorem
        "all_monotone": bool(verdict_ok == judged),
        "max_final_value": max_final,
        "final_tolerance": p["final_tolerance"],
        "all_final_below_tolerance": bool(max_final < p["final_tolerance"]),
    }, {"paths.csv": (
        ("path", "num_classes", "per_class", "dim", "verdict", "first_violation", "final_value"),
        rows,
    )}


def _lambda_row(lam: float, result: SolveResult, solution: FeatureSet,
                data: np.ndarray | None) -> tuple:
    """The ``_LAMBDA_HEADER`` row of a solve at ``lam``; a DegenerateInputError names it."""
    try:
        report = measure(solution)
        align = _UNDEFINED if data is None else alignment(result.H, data)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"lambda={lam}: {exc}") from exc
    return (lam, result.epochs_run, float(result.objective_trace[-1]),
            report.pfc1, report.pfc2, report.pfc3, align)


_LAMBDA_HEADER = ("lambda", "epoch", "objective", "pfc1", "pfc2", "pfc3", "alignment")


def _run_solve(cfg: ExperimentConfig, kind: str) -> tuple[dict, Artifacts]:
    p = cfg.params
    k, d, n = p["num_classes"], p["dim"], p["per_class"]
    data_fs = _mixture(cfg, d) if kind == "mufm" else None
    data = None if data_fs is None else data_fs.features
    problem = _problem(cfg, kind, p["lam"], data)
    result = solve(
        problem,
        lr=p["lr"], epochs=p["epochs"], init_scale=p["init_scale"],
        trace_stride=p["trace_stride"], grad_tol=p["grad_tol"],
    )
    solution = FeatureSet(result.H, k, n)
    row = _lambda_row(p["lam"], result, solution, data)
    cells = dict(zip(_LAMBDA_HEADER, row))
    artifacts = {
        "trace.csv": (("epoch", "objective"), [
            (int(e), v) for e, v in zip(result.trace_epochs, result.objective_trace)
        ]),
        "result.csv": (_LAMBDA_HEADER, [row]),
        "features.txt": solution,
    }
    summary = {
        "kind": kind,
        "epochs_run": result.epochs_run,
        "final_objective": cells["objective"],
        "final_grad_norm": result.final_grad_norm,
        "pfc1": cells["pfc1"],
        "pfc2": cells["pfc2"],
        "pfc3": cells["pfc3"],
    }
    if kind == "mufm":
        artifacts["data.txt"] = data_fs
        data_report = measure(data_fs)
        summary["alignment"] = cells["alignment"]
        summary["data_pfc1"] = data_report.pfc1
        summary["data_pfc2"] = data_report.pfc2
        summary["data_pfc3"] = data_report.pfc3
    return summary, artifacts


def _run_sweep_lambda(cfg: ExperimentConfig) -> tuple[dict, Artifacts]:
    p = cfg.params
    lambdas = p["lambdas"]
    k, d, n = p["num_classes"], p["dim"], p["per_class"]
    data_fs = _mixture(cfg, d)
    base = _problem(cfg, "mufm", lambdas[0], data_fs.features)
    results = sweep_lambda(
        base, lambdas, lr=p["lr"], epochs=p["epochs"], init_scale=p["init_scale"]
    )
    rows = [_lambda_row(lam, result, FeatureSet(result.H, k, n), base.data)
            for lam, result in zip(lambdas, results)]
    summary = {"lambdas": lambdas}
    if len(lambdas) >= 2:
        columns = dict(zip(_LAMBDA_HEADER, zip(*rows)))
        summary["spearman_lambda_pfc1"] = spearman(lambdas, columns["pfc1"])
        summary["spearman_lambda_pfc2"] = _judge_pfc2(k, spearman, lambdas, columns["pfc2"])
        summary["spearman_lambda_alignment"] = spearman(lambdas, columns["alignment"])
    return summary, {"sweep.csv": (_LAMBDA_HEADER, rows)}


# a cell with no value: a K = 2 theorem2 verdict, a UFM solve's alignment
_UNDEFINED = "undefined"


def _judge_pfc2(num_classes: int, judge: Callable, *args):
    """``judge(*args)``, a rank correlation or a verdict of pfc2 values, or
    None at K = 2: two centered class means are m and -m, the target
    exactly, so pfc2 is rounding noise and has nothing to judge."""
    return None if num_classes == 2 else judge(*args)


def _stack_report(layers: Iterable[FeatureSet], p: dict,
                  reports: Sequence[PfcReport] | None = None) -> tuple[dict, Artifacts]:
    """Observed per-layer metrics side by side with the straight-line
    prediction (report.csv), plus dense predicted curves (curves.csv) and
    their verdicts.

    The layers are taken one at a time: each one's :func:`step_length` from
    the previous layer is taken, the previous layer is dropped, and the new
    one is measured; :func:`positions_from_steps` then places the layers.
    Only the first layer, the start of the prediction path, and the latest
    are kept, so layers that ``layers`` loads as they are asked for are held
    at most three at once.  ``reports`` are the layers' metrics if already
    measured."""
    lengths, measured = [], []
    first = last = None
    for layer in layers:
        if last is None:
            first = layer
        else:
            lengths.append(step_length(last, layer))
        last = layer
        if reports is None:
            measured.append(measure(layer))
    positions = positions_from_steps(lengths)
    if reports is None:
        reports = measured
    path = InterpolationPath(start=first, end=last, grid=uniform_grid(p["grid_points"]))
    predicted = {kind: metric_values(path, kind, positions) for kind in METRIC_KINDS}

    report_rows = [
        (
            layer, float(pos),
            rep.pfc1, rep.pfc2, rep.pfc3,
            *(float(predicted[kind][layer]) for kind in METRIC_KINDS),
        )
        for layer, (pos, rep) in enumerate(zip(positions, reports))
    ]

    k = first.num_classes
    layer_index = list(range(len(positions)))
    return {
        "relative_positions": [float(v) for v in positions],
        # the verdicts apply to the prediction at the layer positions, the
        # curve the report table publishes
        "predicted_verdicts": {
            "pfc1": _verdict(predicted["pfc1"]),
            "pfc2": _judge_pfc2(k, _verdict, predicted["pfc2"]),
        },
        "spearman_layer_pfc1": spearman(layer_index, [r.pfc1 for r in reports]),
        "spearman_layer_pfc2": _judge_pfc2(k, spearman, layer_index, [r.pfc2 for r in reports]),
        "last_layer_pfc3": reports[-1].pfc3,
        "effective_depth": first_within_error([r.pfc3 for r in reports], p["effective_epsilon"]),
    }, {"report.csv": (_REPORT_HEADER, report_rows), "curves.csv": _curves(path)[1]}


_REPORT_HEADER = (
    "layer", "relative_position",
    "pfc1", "pfc2", "pfc3",
    "pred_pfc1", "pred_pfc2", "pred_pfc3",
)


def _run_train_resnet(cfg: ExperimentConfig) -> tuple[dict, Artifacts]:
    p = cfg.params
    if bool(p["images"]) != bool(p["labels"]):
        missing = "labels" if p["images"] else "images"
        raise ValueError(f"an IDX run reads images and labels together; set {missing} too")
    config = TrainConfig(
        seed=cfg.seed, **{f.name: p[f.name] for f in fields(TrainConfig) if f.name != "seed"}
    )
    if p["images"]:
        data = load_mnist_idx(p["images"], p["labels"], config.per_class)
        for name, value in (("num_classes", data.num_classes), ("input_dim", data.dim)):
            if p[name] != value:
                raise ValueError(
                    f"{name}={p[name]} does not match the IDX files, which hold {value}"
                )
    else:
        data = _mixture(cfg, config.input_dim)
    trace = train(config, data)

    def log_row(epoch):
        return epoch, float(trace.losses[epoch - 1]), float(trace.accuracies[epoch - 1])

    log_header = ("epoch", "loss", "accuracy")
    trace_header = (*log_header, *(
        f"layer{layer}_{kind}" for layer in range(config.num_blocks + 1) for kind in METRIC_KINDS
    ))
    trace_rows = [
        (*log_row(epoch), *(getattr(rep, kind) for rep in reports for kind in METRIC_KINDS))
        for epoch, reports in zip(trace.snapshot_epochs, trace.reports)
    ]
    # train measured the final layers at its last recorded epoch, the last
    # one; run writes the layer files in order, each the next of one stream
    report, artifacts = _stack_report(trace.final_layers(), p, trace.reports[-1])
    layers = trace.final_layers()
    return {
        "final_loss": float(trace.losses[-1]),
        "final_accuracy": float(trace.accuracies[-1]),
        "snapshot_epochs": list(trace.snapshot_epochs),
        **report,
    }, {
        "train_log.csv": (log_header, [log_row(e) for e in range(1, config.epochs + 1)]),
        "trace.csv": (trace_header, trace_rows),
        **artifacts,
        **{f"layers/layer_{i:02d}.txt": partial(next, layers)
           for i in range(config.num_blocks + 1)},
    }


def _run_pfc_report(cfg: ExperimentConfig) -> tuple[dict, Artifacts]:
    p = cfg.params
    files = p["stack_files"]
    # every header is checked before any body is parsed
    shapes = []
    for name in files:
        with open(name) as f:
            shapes.append(read_header(f))
    check_layer_shapes(shapes)
    k, _, d = shapes[0]
    if d < k:
        raise ValueError(
            f"stack_files must hold features of dim >= num_classes, got dim={d} < K={k}"
        )
    report, artifacts = _stack_report((load_featureset(f) for f in files), p)
    return {"stack_files": p["stack_files"], **report}, artifacts


def _run_equivalence_thm3(cfg: ExperimentConfig) -> tuple[dict, Artifacts]:
    p = cfg.params
    k, d, n = p["num_classes"], p["dim"], p["per_class"]
    x = _mixture(cfg, d).features
    frame = build_etf(k, d, seed=[cfg.seed, 303])
    h_last = make_nc_featureset(frame, n, scale=p["end_scale"]).features
    w = np.random.default_rng([cfg.seed, 7]).standard_normal((k, d))
    problem = _problem(cfg, "mufm", p["lam"], x)

    rows = []
    max_cost_gap = 0.0
    max_objective_gap = 0.0
    for depth in p["depths"]:
        layers, cost_closed = collapse_multilayer(x, h_last, depth)
        _, cost_descent = minimize_transport_chain(
            x, h_last, depth,
            lr=p["chain_lr"], iters=p["chain_iters"], seed=[cfg.seed, depth],
        )
        cost_gap = abs(cost_descent - cost_closed) / abs(cost_closed)
        chained = multilayer_objective(problem, w, layers)
        if p["lam"] / depth == 0.0:
            raise DegenerateInputError(f"lam / depth underflows to 0 at depth {depth}")
        collapsed = objective(replace(problem, lam=p["lam"] / depth), w, h_last)
        objective_gap = abs(chained - collapsed) / abs(collapsed)

        rows.append(
            (depth, cost_descent, cost_closed, cost_gap, chained, collapsed, objective_gap)
        )
        max_cost_gap = max(max_cost_gap, cost_gap)
        max_objective_gap = max(max_objective_gap, objective_gap)
    return {
        "depths": p["depths"],
        "max_cost_rel_gap": max_cost_gap,
        "max_objective_rel_gap": max_objective_gap,
    }, {"equivalence.csv": (
        (
            "depth", "chain_cost_descent", "chain_cost_closed_form", "cost_rel_gap",
            "chained_objective", "collapsed_objective", "objective_rel_gap",
        ),
        rows,
    )}


# the surrogate problem (_problem) and its Gaussian-mixture data (_mixture)
_PROBLEM_PARAMS = {
    "loss": "mse",
    "num_classes": (5, ge(2)),
    "dim": (20, ge(2)),
    "per_class": (100, ge(1)),
    "lambda_w": (0.005, gt(0)),
}
_MIXTURE_PARAMS = {"mean_scale": (1.0, ge(0)), "noise_scale": (1.0, ge(0))}


def _descent(**defaults) -> dict:
    """Descent knobs with this kind's defaults and the library's domains."""
    return {name: (default, DESCENT[name]) for name, default in defaults.items()}


_SOLVE_PARAMS = {
    **_PROBLEM_PARAMS,
    "lam": (0.001, gt(0)),
    **_descent(lr=0.1, epochs=50_000, init_scale=0.3, trace_stride=500, grad_tol=0.0),
}

_PATH_SUITE_PARAMS = {
    "num_paths": (100, ge(1)),
    "grid_points": (1001, ge(2)),
    "classes": ([3, 5], ge(2)),
    "per_class": ([4, 20], ge(1)),
    "dims": ([8, 20], ge(2)),
    "end_scale": (1.0, gt(0)),
    "final_tolerance": (1e-12, gt(0)),
}


class Kind(NamedTuple):
    """One experiment kind: its runner, its parameter defaults, whose
    types are the parameters' types, and the domains of its numbers and
    lists."""

    run: Callable[[ExperimentConfig], tuple[dict, Artifacts]]
    defaults: dict
    domains: dict[str, Domain]


def _kind(run, table: dict) -> Kind:
    """A kind from its parameter table, which maps each name to its default,
    or, for a number or a list, to ``(default, domain)``."""
    return Kind(
        run,
        {name: entry[0] if isinstance(entry, tuple) else entry for name, entry in table.items()},
        {name: entry[1] for name, entry in table.items() if isinstance(entry, tuple)},
    )


# TrainConfig's fields but the seed, which is the run's: each default, a
# tuple as a list, with the domain the field states, if any
_TRAIN_PARAMS = {
    f.name: (list(f.default) if isinstance(f.default, tuple) else f.default, f.metadata["domain"])
    if "domain" in f.metadata else f.default
    for f in fields(TrainConfig) if f.name != "seed"
}

KINDS = {
    "etf-check": _kind(_run_etf_check, {
        "min_classes": (2, ge(2)),
        "max_classes": (10, ge(2)),
        "extra_dims": ([0, 3], ge(0)),
        "tolerance": (1e-12, ge(0)),
    }),
    "interpolate": _kind(_run_interpolate, {
        "num_classes": (4, ge(2)),
        "per_class": (20, ge(1)),
        "dim": (8, ge(2)),
        "grid_points": (101, ge(2)),
        "end_scale": (1.0, gt(0)),
    }),
    "theorem1": _kind(partial(_run_path_suite, variant=1), _PATH_SUITE_PARAMS),
    "theorem2": _kind(
        partial(_run_path_suite, variant=2),
        {**_PATH_SUITE_PARAMS, "eps_rel": (0.01, ge(0))},
    ),
    "solve-ufm": _kind(partial(_run_solve, kind="ufm"), _SOLVE_PARAMS),
    "solve-mufm": _kind(partial(_run_solve, kind="mufm"), {**_SOLVE_PARAMS, **_MIXTURE_PARAMS}),
    "sweep-lambda": _kind(_run_sweep_lambda, {
        **_PROBLEM_PARAMS,
        **_MIXTURE_PARAMS,
        "lambdas": ([float(v) for v in np.geomspace(0.0005, 0.02, 8)], gt(0)),
        **_descent(lr=0.1, epochs=50_000, init_scale=0.05),
    }),
    "train-resnet": _kind(_run_train_resnet, {
        **_TRAIN_PARAMS,
        "mean_scale": (2.0, ge(0)),
        "noise_scale": (1.0, ge(0)),
        "grid_points": (1001, ge(2)),
        "effective_epsilon": (0.05, ge(0)),
        "images": "",
        "labels": "",
    }),
    "pfc-report": _kind(_run_pfc_report, {
        "stack_files": ([], Domain(None, min_len=2)),
        "grid_points": (1001, ge(2)),
        "effective_epsilon": (0.05, ge(0)),
    }),
    "equivalence-thm3": _kind(_run_equivalence_thm3, {
        **_PROBLEM_PARAMS,
        **_MIXTURE_PARAMS,
        "depths": ([2, 5, 10], ge(1)),
        "lam": (0.001, gt(0)),
        "end_scale": (1.0, gt(0)),
        "chain_lr": (0.2, gt(0)),
        "chain_iters": (5000, ge(1)),
    }),
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and return its manifest.

    The run writes into a fresh sibling of ``config.out_dir`` that replaces
    the directory only once the run has succeeded, so ``out_dir`` holds
    exactly one complete run: a failed run, a failed final move included,
    leaves an earlier one untouched.  One gap remains: a process killed
    between moving the earlier run aside and moving the new one in leaves no
    ``out_dir``, and the earlier run stays in the hidden ``.NAME-*`` staging
    directory beside it.  The runner's artifacts and summary are the only
    files written besides the manifest, which echoes the resolved
    configuration and records a sha256 checksum for each of them, so two
    runs agree iff their manifests' artifact blocks agree.  An artifact is
    a table, a feature set, or a function that returns a feature set, called
    as its file is written; the artifacts are written in the order given,
    so such functions may draw in turn from one stream, and the feature set
    is dropped before the next artifact is formed.

    Raises:
        ValueError: before any work, if ``out_dir`` is not empty and holds
            no manifest, i.e. is not a run directory this may replace.
    """
    out = config.out_dir.resolve()
    if out.exists() and not (out / "manifest.json").is_file() and any(out.iterdir()):
        raise ValueError(
            f"out_dir {config.out_dir} is not empty and holds no manifest.json; "
            "refusing to replace it"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        new = staging / "run"
        new.mkdir()
        summary, artifacts = KINDS[config.kind].run(config)
        for rel, item in artifacts.items():
            path = new / rel
            path.parent.mkdir(exist_ok=True)
            if callable(item):
                item = item()
            if isinstance(item, FeatureSet):
                save_featureset(path, item)
            else:
                write_csv(path, *item)
        write_json(new / "summary.json", summary)
        written = sorted([*artifacts, "summary.json"])
        manifest = {
            "kind": config.kind,
            "seed": config.seed,
            "params": config.params,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            },
            "artifacts": {rel: sha256_file(new / rel) for rel in written},
        }
        write_json(new / "manifest.json", manifest)
        moved = out.exists()
        if moved:
            out.rename(staging / "old")
        try:
            new.rename(out)
        except BaseException:
            if moved:
                (staging / "old").rename(out)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest
