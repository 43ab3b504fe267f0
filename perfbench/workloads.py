"""The benchmark's workloads: CLI invocations, generated inputs and checks.

Each workload runs one or more ``pfc`` CLI kinds at fixed, shortened sizes.
``CHECKS`` holds, per kind, the invariants that hold at that size for any
seed; claims of the acceptance suite that only hold at the default sizes
are listed in ``unchecked`` instead of being counted as passed.
``expected_counts`` gives the structural counts a complete trace of the
workload reproduces exactly.

Each workload stresses different layers, so that an optimization of one
layer has a workload that exercises it and one that bypasses it:
``paths`` the straight-line metric curves, ``sweep`` the surrogate solver,
``train`` the network, and ``report`` pfc3 and the layer-file reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MONOTONE = ("strictly-decreasing", "nonincreasing")

PATH_SUITE = {"num_paths": 24, "grid_points": 251}

SWEEP = {
    "num_classes": 5,
    "dim": 20,
    "per_class": 100,
    "epochs": 1000,
    # the default geometric grid 5e-4 .. 2e-2, written out so the
    # benchmark knows how many solves to expect
    "lambdas": [5e-4 * 40.0 ** (i / 7) for i in range(8)],
}

TRAIN = {
    "num_classes": 4,
    "per_class": 256,
    "batch_size": 128,
    "epochs": 100,
    "lr_decay_epochs": [60, 80],
    "record_stride": 25,
    "grid_points": 101,
}

REPORT_STACK = {"num_classes": 10, "per_class": 100, "dim": 128, "layers": 8}
REPORT = {"grid_points": 101}


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``params`` maps each CLI kind, in invocation order, to its ``--set``
    overrides.  ``prepare(seed, work_dir, root)``, if given, writes
    generated inputs once per benchmark invocation and returns extra
    overrides per kind; ``expected_counts(params, root)`` sees the merged
    overrides.
    """

    name: str
    params: dict
    expected_counts: Callable[[dict, Path], dict]
    unchecked: tuple = ()
    prepare: Callable | None = None


def column(path: Path, name: str) -> list[str]:
    """Cells of one named column of a CSV artifact, as text."""
    header, *rows = path.read_text().splitlines()
    idx = header.split(",").index(name)
    return [row.split(",")[idx] for row in rows]


def _check_path_suite(s, out_dir):
    problems = []
    if not s["all_monotone"]:
        problems.append(f"{s['monotone_count']}/{s['paths']} paths monotone")
    if not s["all_final_below_tolerance"]:
        problems.append(f"max final value {s['max_final_value']:.3e}")
    return problems


def _check_sweep(s, out_dir):
    problems = []
    rho = s["spearman_lambda_alignment"]
    if not rho <= -0.8:
        problems.append(f"spearman_lambda_alignment {rho:+.3f} > -0.8")
    epochs = column(out_dir / "sweep.csv", "epoch")
    if epochs != [str(SWEEP["epochs"])] * len(SWEEP["lambdas"]):
        problems.append(f"epochs run {epochs}, expected {SWEEP['epochs']} each")
    return problems


def _check_train(s, out_dir):
    problems = []
    if not s["final_accuracy"] >= 0.5:
        problems.append(f"final accuracy {s['final_accuracy']} < 0.5")
    first_loss = float(column(out_dir / "train_log.csv", "loss")[0])
    if not s["final_loss"] < 0.5 * first_loss:
        problems.append(
            f"final loss {s['final_loss']:.4g} not below half the first epoch's "
            f"{first_loss:.4g}"
        )
    return problems


def _check_report(s, out_dir):
    problems = []
    verdict = s["predicted_verdicts"]["pfc1"]
    if verdict not in MONOTONE:
        problems.append(f"predicted pfc1 verdict {verdict}")
    if s["last_layer_pfc3"] != 1.0:
        problems.append(f"last_layer_pfc3 {s['last_layer_pfc3']} != 1")
    return problems


# kind -> check(summary, out_dir) returning a list of problems
CHECKS = {
    "theorem1": _check_path_suite,
    "theorem2": _check_path_suite,
    "sweep-lambda": _check_sweep,
    "train-resnet": _check_train,
    "pfc-report": _check_report,
}


def write_stack(seed: int, directory: Path, num_classes: int, per_class: int,
                dim: int, layers: int) -> list[Path]:
    """Write a seeded, progressively collapsing layer stack in the text
    format ``pfc-report`` reads: header ``K n d``, then d rows of K*n values.

    Layer l holds class means E + (1 - l/(L-1)) R plus within-class noise
    s_l Z, where E is a simplex ETF, R a random offset whose centered part
    has a nonnegative inner product with E, Z one fixed noise matrix, and
    s_l falls geometrically from 1 to 0.01.  Along the straight line from
    the first to the last layer the variance ratio then decreases strictly,
    and the last layer's nearest-class-center accuracy is 1.
    """
    import numpy as np

    k, n, d = num_classes, per_class, dim
    rng = np.random.default_rng([seed, 505])
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    centering = np.eye(k) - 1.0 / k
    etf = np.sqrt(k / (k - 1.0)) * basis @ centering
    offset = 2.0 / np.sqrt(d) * rng.standard_normal((d, k))
    if np.sum((offset @ centering) * etf) < 0.0:
        offset = -offset
    noise = rng.standard_normal((d, k * n))
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for layer in range(layers):
        progress = layer / (layers - 1)
        means = etf + (1.0 - progress) * offset
        features = np.repeat(means, n, axis=1) + 0.01**progress * noise
        path = directory / f"layer_{layer:02d}.txt"
        np.savetxt(path, features, fmt="%.17g", header=f"{k} {n} {d}", comments="")
        files.append(path)
    return files


def _prepare_report(seed, work_dir, root):
    files = write_stack(seed, work_dir / "stack", **REPORT_STACK)
    return {"pfc-report": {"stack_files": [f.relative_to(root).as_posix() for f in files]}}


def _paths_counts(params, root):
    suite = params["theorem1"]
    points = 2 * suite["num_paths"] * suite["grid_points"]
    return {
        "geodesic.metric_curve.calls": 2 * suite["num_paths"],
        "geodesic.metric_curve.points": points,
        "geodesic.interpolate.calls": points,
    }


def _sweep_counts(params, root):
    p = params["sweep-lambda"]
    epochs = len(p["lambdas"]) * p["epochs"]
    k, d, n = p["num_classes"], p["dim"], p["num_classes"] * p["per_class"]
    return {
        "surrogate.solve.calls": len(p["lambdas"]),
        "surrogate.solve.epochs": epochs,
        "surrogate.solve.flops_computed": epochs * 6 * k * d * n,
    }


def _train_counts(params, root):
    p = params["train-resnet"]
    batches = math.ceil(p["num_classes"] * p["per_class"] / p["batch_size"])
    return {
        "resnet.resnet_backward.calls": p["epochs"] * batches,
        "resnet.resnet_forward.calls": p["epochs"],
        "resnet.train.epochs": p["epochs"],
    }


def _report_counts(params, root):
    p = params["pfc-report"]
    points = 3 * p["grid_points"]
    return {
        "geodesic.metric_curve.calls": 3,
        "geodesic.metric_curve.points": points,
        # the prediction table interpolates once more per layer
        "geodesic.interpolate.calls": points + len(p["stack_files"]),
        "core.load_featureset.bytes": sum((root / f).stat().st_size for f in p["stack_files"]),
    }


_LIMITS = "criteria {} time limits, which apply at default sizes"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paths",
            params={"theorem1": PATH_SUITE, "theorem2": PATH_SUITE},
            expected_counts=_paths_counts,
            unchecked=(_LIMITS.format("3 and 4"),),
        ),
        Workload(
            name="sweep",
            params={"sweep-lambda": SWEEP},
            expected_counts=_sweep_counts,
            unchecked=(
                "criterion 9: spearman_lambda_pfc1 >= 0.8",
                "criterion 9: spearman_lambda_pfc2 >= 0.8",
            ),
        ),
        Workload(
            name="train",
            params={"train-resnet": TRAIN},
            expected_counts=_train_counts,
            unchecked=(
                "criterion 12: final_accuracy == 1",
                "criterion 12: last_layer_pfc3 == 1",
                "criterion 12: spearman_layer_pfc1 and spearman_layer_pfc2 <= -0.9",
                "criterion 12: predicted pfc1 and pfc2 verdicts monotone",
                _LIMITS.format("12"),
            ),
        ),
        Workload(
            name="report",
            params={"pfc-report": REPORT},
            expected_counts=_report_counts,
            prepare=_prepare_report,
        ),
    )
}
