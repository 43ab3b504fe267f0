"""Experiment recipes, artifact serialization, and run manifests.

``KINDS`` maps each experiment kind to its runner and its parameter
defaults; a default's type is its parameter's type, so every value a run
receives has been checked against it (:func:`typed_param`).  A run maps
the resolved parameter block plus a seed to a private output directory
holding CSV tables, a JSON summary, and a manifest that echoes the full
configuration together with sha256 checksums of every artifact.  The
directory is replaced only by a run that succeeds, so it always holds
exactly one run.  All CSV numbers are written with 17 significant digits
so re-reading them reproduces the exact float bits, and every random
stream is derived from the run seed, so a repeated run yields
byte-identical artifacts.
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
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    DegenerateInputError,
    FeatureSet,
    LayerStack,
    load_featureset,
    save_featureset,
)
from .data import gen_gaussian_mixture, load_mnist_idx
from .etf import build_etf, gram_target
from .geodesic import (
    METRIC_KINDS,
    InterpolationPath,
    MetricCurve,
    make_nc_featureset,
    metric_curve,
    metric_values,
    monotonicity_report,
    perturbed_collapse_path,
    random_to_collapse_path,
    relative_positions,
    uniform_grid,
)
from .metrics import alignment, first_within_error, measure
from .resnet import TrainConfig, train
from .surrogate import (
    SolveProblem,
    collapse_multilayer,
    minimize_transport_chain,
    multilayer_objective,
    objective,
    solve,
    sweep_lambda,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: kind, parameter block, seed, output directory.

    Parameters not given explicitly resolve to the kind's defaults, and
    each given value is typed from its default (:func:`typed_param`);
    unknown keys are rejected so typos cannot silently fall back.
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
        defaults = KINDS[self.kind].defaults
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.kind}: {unknown}; "
                f"valid keys: {sorted(defaults)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        params = {
            **defaults,
            **{k: typed_param(k, v, defaults[k]) for k, v in self.params.items()},
        }
        object.__setattr__(self, "params", params)
        out = Path("runs") / self.kind if self.out_dir is None else Path(self.out_dir)
        object.__setattr__(self, "out_dir", out)


def typed_param(name: str, value, default):
    """``value`` as the type of the parameter's ``default``.

    An int takes an int or an integral float, a float takes an int or a
    finite float, a bool only a bool and a str only a str.  A list takes a list
    whose items are typed from the default's first item (str when the
    default is empty).

    Raises:
        ValueError: naming the parameter, for any other value.
    """
    number = isinstance(value, (int, np.integer, float)) and not isinstance(value, bool)
    if isinstance(default, list):
        if isinstance(value, list):
            item = default[0] if default else ""
            return [typed_param(name, v, item) for v in value]
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


def write_csv(path, header, rows) -> None:
    """Comma-separated table with a header line; floats keep full precision."""
    header = list(header)
    lines = [",".join(header)]
    for row in rows:
        row = list(row)
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(header)}"
            )
        lines.append(",".join(format_cell(v) for v in row))
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


def _data_seed(seed: int) -> list[int]:
    return [seed, 11]


def _run_etf_check(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    if p["min_classes"] < 2 or p["max_classes"] < p["min_classes"]:
        raise ValueError("need 2 <= min_classes <= max_classes")
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
    write_csv(
        out / "etf_check.csv",
        ("num_classes", "dim", "norm_dev", "cosine_dev", "gram_dev", "target_fro_dev"),
        rows,
    )
    worst = max(max(row[2:]) for row in rows)
    return {
        "cases": len(rows),
        "max_deviation": worst,
        "tolerance": p["tolerance"],
        "all_within_tolerance": bool(worst <= p["tolerance"]),
    }


def _run_interpolate(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    path = random_to_collapse_path(
        cfg.seed,
        num_classes=p["num_classes"],
        per_class=p["per_class"],
        dim=p["dim"],
        grid_points=p["grid_points"],
        end_scale=p["end_scale"],
    )
    curves = _write_curves(out, path)
    return {
        "verdicts": {kind: monotonicity_report(curves[kind]).kind for kind in ("pfc1", "pfc2")},
        "final_values": {kind: float(curve.values[-1]) for kind, curve in curves.items()},
    }


def _write_curves(out: Path, path: InterpolationPath) -> dict[str, MetricCurve]:
    """Every metric's curve along a path, also written to curves.csv."""
    curves = {kind: metric_curve(path, kind) for kind in METRIC_KINDS}
    write_csv(out / "curves.csv", ("t", "value", "metric_kind"), [
        (float(t), float(v), kind)
        for kind, curve in curves.items() for t, v in zip(curve.ts, curve.values)
    ])
    return curves


def _run_path_suite(cfg: ExperimentConfig, out: Path, variant: int) -> dict:
    p = cfg.params
    if p["num_paths"] < 1:
        raise ValueError(f"num_paths must be >= 1, got {p['num_paths']}")
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
            accept = ("strictly-decreasing",)
        else:
            path = perturbed_collapse_path(
                [cfg.seed, i], k, n, d,
                grid_points=p["grid_points"], end_scale=p["end_scale"],
                eps_rel=p["eps_rel"],
            )
            curve = metric_curve(path, "pfc2")
            accept = ("strictly-decreasing", "nonincreasing")
        verdict = monotonicity_report(curve)
        first = -1 if verdict.first_violation is None else verdict.first_violation
        rows.append((i, k, n, d, verdict.kind, first, float(curve.values[-1])))
    write_csv(
        out / "paths.csv",
        ("path", "num_classes", "per_class", "dim", "verdict", "first_violation", "final_value"),
        rows,
    )
    verdict_ok = sum(row[4] in accept for row in rows)
    max_final = max(row[-1] for row in rows)
    return {
        "paths": p["num_paths"],
        "monotone_count": verdict_ok,
        "all_monotone": bool(verdict_ok == p["num_paths"]),
        "max_final_value": max_final,
        "final_tolerance": p["final_tolerance"],
        "all_final_below_tolerance": bool(max_final < p["final_tolerance"]),
    }


def _run_solve(cfg: ExperimentConfig, out: Path, kind: str) -> dict:
    p = cfg.params
    k, d, n = p["num_classes"], p["dim"], p["per_class"]
    data_fs = None
    data = None
    if kind == "mufm":
        data_fs, _ = gen_gaussian_mixture(
            k, d, n,
            mean_scale=p["mean_scale"], noise_scale=p["noise_scale"],
            seed=_data_seed(cfg.seed),
        )
        data = data_fs.features
    problem = SolveProblem(
        kind=kind, loss=p["loss"], num_classes=k, dim=d, per_class=n,
        lambda_w=p["lambda_w"], lam=p["lam"], data=data, seed=cfg.seed,
    )
    result = solve(
        problem,
        lr=p["lr"], epochs=p["epochs"], init_scale=p["init_scale"],
        trace_stride=p["trace_stride"], grad_tol=p["grad_tol"],
    )
    solution = FeatureSet(result.H, k, n)
    report = measure(solution)

    write_csv(
        out / "trace.csv",
        ("epoch", "objective"),
        list(zip((int(e) for e in result.trace_epochs), result.objective_trace)),
    )
    align = alignment(result.H, data) if kind == "mufm" else float("nan")
    write_csv(
        out / "result.csv",
        ("lambda", "epoch", "objective", "pfc1", "pfc2", "pfc3", "alignment"),
        [(
            p["lam"], result.epochs_run, float(result.objective_trace[-1]),
            report.pfc1, report.pfc2, report.pfc3, align,
        )],
    )
    save_featureset(out / "features.txt", solution)
    summary = {
        "kind": kind,
        "epochs_run": result.epochs_run,
        "final_objective": float(result.objective_trace[-1]),
        "final_grad_norm": result.final_grad_norm,
        "pfc1": report.pfc1,
        "pfc2": report.pfc2,
        "pfc3": report.pfc3,
    }
    if kind == "mufm":
        save_featureset(out / "data.txt", data_fs)
        data_report = measure(data_fs)
        summary["alignment"] = align
        summary["data_pfc1"] = data_report.pfc1
        summary["data_pfc2"] = data_report.pfc2
        summary["data_pfc3"] = data_report.pfc3
    return summary


def _run_sweep_lambda(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    lambdas = p["lambdas"]
    if not lambdas:
        raise ValueError("sweep needs at least one lambda")
    k, d, n = p["num_classes"], p["dim"], p["per_class"]
    data_fs, _ = gen_gaussian_mixture(
        k, d, n,
        mean_scale=p["mean_scale"], noise_scale=p["noise_scale"],
        seed=_data_seed(cfg.seed),
    )
    base = SolveProblem(
        kind="mufm", loss=p["loss"], num_classes=k, dim=d, per_class=n,
        lambda_w=p["lambda_w"], lam=lambdas[0], data=data_fs.features,
        seed=cfg.seed,
    )
    rows = sweep_lambda(
        base, lambdas, lr=p["lr"], epochs=p["epochs"], init_scale=p["init_scale"]
    )
    write_csv(
        out / "sweep.csv",
        ("lambda", "epoch", "objective", "pfc1", "pfc2", "pfc3", "alignment"),
        [(r.lam, r.epoch, r.objective, r.pfc1, r.pfc2, r.pfc3, r.alignment) for r in rows],
    )
    summary = {"lambdas": lambdas}
    if len(lambdas) >= 2:
        summary["spearman_lambda_pfc1"] = spearman(lambdas, [r.pfc1 for r in rows])
        summary["spearman_lambda_pfc2"] = spearman(lambdas, [r.pfc2 for r in rows])
        summary["spearman_lambda_alignment"] = spearman(
            lambdas, [r.alignment for r in rows]
        )
    return summary


def _stack_report(stack: LayerStack, out: Path, grid_points: int, epsilon: float) -> dict:
    """Observed per-layer metrics side by side with the straight-line
    prediction (report.csv), plus dense predicted curves (curves.csv) and
    their verdicts."""
    positions = relative_positions(stack)
    path = InterpolationPath(
        start=stack[0], end=stack[len(stack) - 1], grid=uniform_grid(grid_points)
    )
    predicted = {kind: metric_values(path, kind, positions) for kind in METRIC_KINDS}

    reports = [measure(fs) for fs in stack.layers]
    write_csv(out / "report.csv", _REPORT_HEADER, [
        (
            layer, float(pos),
            rep.pfc1, rep.pfc2, rep.pfc3,
            *(float(predicted[kind][layer]) for kind in METRIC_KINDS),
        )
        for layer, (pos, rep) in enumerate(zip(positions, reports))
    ])
    _write_curves(out, path)

    layer_index = list(range(len(stack)))
    return {
        "relative_positions": [float(v) for v in positions],
        # the verdicts apply to the prediction at the layer positions, the
        # curve the report table publishes
        "predicted_verdicts": {
            kind: monotonicity_report(MetricCurve(positions, predicted[kind], kind)).kind
            for kind in ("pfc1", "pfc2")
        },
        "spearman_layer_pfc1": spearman(layer_index, [r.pfc1 for r in reports]),
        "spearman_layer_pfc2": spearman(layer_index, [r.pfc2 for r in reports]),
        "last_layer_pfc3": reports[-1].pfc3,
        "effective_depth": first_within_error([r.pfc3 for r in reports], epsilon),
    }


_REPORT_HEADER = (
    "layer", "relative_position",
    "pfc1", "pfc2", "pfc3",
    "pred_pfc1", "pred_pfc2", "pred_pfc3",
)


def _run_train_resnet(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    if bool(p["images"]) != bool(p["labels"]):
        missing = "labels" if p["images"] else "images"
        raise ValueError(f"an IDX run reads images and labels together; set {missing} too")
    config = TrainConfig(
        seed=cfg.seed, **{f.name: p[f.name] for f in fields(TrainConfig) if f.name != "seed"}
    )
    if p["images"]:
        data, labels = load_mnist_idx(p["images"], p["labels"], config.per_class)
        for name, value in (("num_classes", data.num_classes), ("input_dim", data.dim)):
            if p[name] != value:
                raise ValueError(
                    f"{name}={p[name]} does not match the IDX files, which hold {value}"
                )
    else:
        data, labels = gen_gaussian_mixture(
            config.num_classes, config.input_dim, config.per_class,
            mean_scale=p["mean_scale"], noise_scale=p["noise_scale"],
            seed=_data_seed(cfg.seed),
        )
    trace = train(config, data, labels)

    epochs = range(1, config.epochs + 1)
    write_csv(
        out / "train_log.csv",
        ("epoch", "loss", "accuracy"),
        [(e, float(trace.losses[e - 1]), float(trace.accuracies[e - 1])) for e in epochs],
    )

    num_layers = config.num_blocks + 1
    trace_header = ["epoch", "loss", "accuracy"]
    for layer in range(num_layers):
        trace_header += [f"layer{layer}_pfc1", f"layer{layer}_pfc2", f"layer{layer}_pfc3"]
    trace_rows = []
    for epoch, reports in zip(trace.snapshot_epochs, trace.reports):
        row = [epoch, float(trace.losses[epoch - 1]), float(trace.accuracies[epoch - 1])]
        for rep in reports:
            row += [rep.pfc1, rep.pfc2, rep.pfc3]
        trace_rows.append(tuple(row))
    write_csv(out / "trace.csv", trace_header, trace_rows)

    final_stack = trace.snapshots[-1]
    layers_dir = out / "layers"
    layers_dir.mkdir(parents=True, exist_ok=True)
    for layer, fs in enumerate(final_stack.layers):
        save_featureset(layers_dir / f"layer_{layer:02d}.txt", fs)

    return {
        "final_loss": float(trace.losses[-1]),
        "final_accuracy": float(trace.accuracies[-1]),
        "snapshot_epochs": list(trace.snapshot_epochs),
        **_stack_report(final_stack, out, p["grid_points"], p["effective_epsilon"]),
    }


def _run_pfc_report(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    files = p["stack_files"]
    if len(files) < 2:
        raise ValueError(
            "pfc-report needs at least two stack files (set stack_files)"
        )
    layers = tuple(load_featureset(f) for f in files)
    stack = LayerStack(layers=layers, epoch=0)
    k, d = stack[0].num_classes, stack[0].dim
    if d < k:
        raise ValueError(
            f"stack_files must hold features of dim >= num_classes, got dim={d} < K={k}"
        )
    return {
        "stack_files": files,
        **_stack_report(stack, out, p["grid_points"], p["effective_epsilon"]),
    }


def _run_equivalence_thm3(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    k, d, n = p["num_classes"], p["dim"], p["per_class"]
    data_fs, _ = gen_gaussian_mixture(
        k, d, n,
        mean_scale=p["mean_scale"], noise_scale=p["noise_scale"],
        seed=_data_seed(cfg.seed),
    )
    x = data_fs.features
    frame = build_etf(k, d, seed=[cfg.seed, 303])
    h_last = make_nc_featureset(frame, n, scale=p["end_scale"]).features
    w = np.random.default_rng([cfg.seed, 7]).standard_normal((k, d))

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

        problem = SolveProblem(
            kind="mufm", loss=p["loss"], num_classes=k, dim=d, per_class=n,
            lambda_w=p["lambda_w"], lam=p["lam"], data=x, seed=cfg.seed,
        )
        chained = multilayer_objective(problem, w, layers)
        collapsed = objective(replace(problem, lam=p["lam"] / depth), w, h_last)
        objective_gap = abs(chained - collapsed) / abs(collapsed)

        rows.append(
            (depth, cost_descent, cost_closed, cost_gap, chained, collapsed, objective_gap)
        )
        max_cost_gap = max(max_cost_gap, cost_gap)
        max_objective_gap = max(max_objective_gap, objective_gap)
    write_csv(
        out / "equivalence.csv",
        (
            "depth", "chain_cost_descent", "chain_cost_closed_form", "cost_rel_gap",
            "chained_objective", "collapsed_objective", "objective_rel_gap",
        ),
        rows,
    )
    return {
        "depths": p["depths"],
        "max_cost_rel_gap": max_cost_gap,
        "max_objective_rel_gap": max_objective_gap,
    }


_SOLVE_PARAMS = {
    "loss": "mse",
    "num_classes": 5,
    "dim": 20,
    "per_class": 100,
    "lambda_w": 0.005,
    "lam": 0.001,
    "lr": 0.1,
    "epochs": 50_000,
    "init_scale": 0.3,
    "trace_stride": 500,
    "grad_tol": 0.0,
}

_PATH_SUITE_PARAMS = {
    "num_paths": 100,
    "grid_points": 1001,
    "classes": [3, 5],
    "per_class": [4, 20],
    "dims": [8, 20],
    "end_scale": 1.0,
    "final_tolerance": 1e-12,
}


class Kind(NamedTuple):
    """One experiment kind: its runner and its parameter defaults, whose
    types are the parameters' types."""

    run: Callable[[ExperimentConfig, Path], dict]
    defaults: dict


KINDS = {
    "etf-check": Kind(_run_etf_check, {
        "min_classes": 2,
        "max_classes": 10,
        "extra_dims": [0, 3],
        "tolerance": 1e-12,
    }),
    "interpolate": Kind(_run_interpolate, {
        "num_classes": 4,
        "per_class": 20,
        "dim": 8,
        "grid_points": 101,
        "end_scale": 1.0,
    }),
    "theorem1": Kind(partial(_run_path_suite, variant=1), _PATH_SUITE_PARAMS),
    "theorem2": Kind(
        partial(_run_path_suite, variant=2), {**_PATH_SUITE_PARAMS, "eps_rel": 0.01}
    ),
    "solve-ufm": Kind(partial(_run_solve, kind="ufm"), _SOLVE_PARAMS),
    "solve-mufm": Kind(
        partial(_run_solve, kind="mufm"),
        {**_SOLVE_PARAMS, "mean_scale": 1.0, "noise_scale": 1.0},
    ),
    "sweep-lambda": Kind(_run_sweep_lambda, {
        "loss": "mse",
        "num_classes": 5,
        "dim": 20,
        "per_class": 100,
        "lambda_w": 0.005,
        "lambdas": [float(v) for v in np.geomspace(0.0005, 0.02, 8)],
        "lr": 0.1,
        "epochs": 50_000,
        "init_scale": 0.05,
        "mean_scale": 1.0,
        "noise_scale": 1.0,
    }),
    "train-resnet": Kind(_run_train_resnet, {
        "num_blocks": 6,
        "width": 64,
        "input_dim": 16,
        "num_classes": 4,
        "per_class": 256,
        "epochs": 3000,
        "batch_size": 128,
        "lr": 0.02,
        "lr_decay_factor": 0.1,
        "lr_decay_epochs": [1000, 2000],
        "momentum": 0.9,
        "weight_decay": 0.0025,
        "decay_biases": True,
        "record_stride": 250,
        "mean_scale": 2.0,
        "noise_scale": 1.0,
        "grid_points": 1001,
        "effective_epsilon": 0.05,
        "images": "",
        "labels": "",
    }),
    "pfc-report": Kind(_run_pfc_report, {
        "stack_files": [],
        "grid_points": 1001,
        "effective_epsilon": 0.05,
    }),
    "equivalence-thm3": Kind(_run_equivalence_thm3, {
        "depths": [2, 5, 10],
        "num_classes": 5,
        "dim": 20,
        "per_class": 100,
        "loss": "mse",
        "lambda_w": 0.005,
        "lam": 0.001,
        "mean_scale": 1.0,
        "noise_scale": 1.0,
        "end_scale": 1.0,
        "chain_lr": 0.2,
        "chain_iters": 5000,
    }),
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and return its manifest.

    The run writes into a fresh sibling of ``config.out_dir`` that replaces
    the directory only once the run has succeeded, so ``out_dir`` always
    holds exactly one complete run: a failed run leaves an earlier one
    untouched.  The manifest echoes the resolved configuration and records
    a sha256 checksum for every artifact, so two runs agree iff their
    manifests' artifact blocks agree.

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
        summary = KINDS[config.kind].run(config, new)
        write_json(new / "summary.json", summary)
        artifacts = {
            str(path.relative_to(new).as_posix()): sha256_file(path)
            for path in sorted(new.rglob("*"))
            if path.is_file()
        }
        manifest = {
            "kind": config.kind,
            "seed": config.seed,
            "params": config.params,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            },
            "artifacts": artifacts,
        }
        write_json(new / "manifest.json", manifest)
        if out.exists():
            out.rename(staging / "old")
        new.rename(out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest
