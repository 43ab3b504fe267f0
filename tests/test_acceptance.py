"""End-to-end acceptance suite: thirteen numbered behavior criteria.

Each test prints one PASS/FAIL line on the raw stdout so the verdicts
stay visible under pytest's capture.  The expensive experiment runs are
shared through session fixtures; the final criterion repeats two of them
to check bit-level reproducibility of the artifacts.  A criterion's
verdict is a predicate over its measured values, and the teeth tests
show, in short runs, that a plausible defect makes the predicate fail.
"""

import json
import sys
import time

import numpy as np
import pytest

import conftest
from pfc import harness
from pfc.core import FeatureSet
from pfc.data import gen_gaussian_mixture
from pfc.etf import build_etf, gram_target
from pfc.harness import ExperimentConfig, run
from pfc.metrics import alignment, pfc1, pfc2, pfc3
from pfc.resnet import TrainConfig, init_params, resnet_backward
from pfc.surrogate import SolveProblem, closed_form_W, gradients, objective


def _verdict(num, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{num:2d}] {status} {title}: {detail}"
    conftest.VERDICT_LINES.append(line)
    print(f"\n{line}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({title}): {detail}"


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _run_kind(kind, out_dir, **params):
    start = time.perf_counter()
    manifest = run(ExperimentConfig(kind=kind, params=params, out_dir=out_dir))
    elapsed = time.perf_counter() - start
    summary = json.loads((out_dir / "summary.json").read_text())
    return manifest, summary, elapsed


@pytest.fixture(scope="session")
def theorem1_run(workdir):
    return _run_kind("theorem1", workdir / "theorem1")


@pytest.fixture(scope="session")
def theorem2_run(workdir):
    return _run_kind("theorem2", workdir / "theorem2")


@pytest.fixture(scope="session")
def mufm_run(workdir):
    return _run_kind("solve-mufm", workdir / "solve-mufm")


@pytest.fixture(scope="session")
def ufm_run(workdir):
    return _run_kind("solve-ufm", workdir / "solve-ufm")


@pytest.fixture(scope="session")
def sweep_run(workdir):
    return _run_kind("sweep-lambda", workdir / "sweep-lambda")


@pytest.fixture(scope="session")
def resnet_run(workdir):
    return _run_kind("train-resnet", workdir / "train-resnet")


@pytest.fixture(scope="session")
def equivalence_run(workdir):
    return _run_kind("equivalence-thm3", workdir / "equivalence-thm3")


def test_01_simplex_frames_are_exact():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for k in range(2, 11):
        for d in (k, k + 3):
            m = build_etf(k, d, seed=[k, d])
            gram = m.T @ m
            norm_dev = np.max(np.abs(np.linalg.norm(m, axis=0) - 1.0))
            cos_dev = np.max(np.abs(gram[~np.eye(k, dtype=bool)] + 1.0 / (k - 1)))
            target_dev = abs(np.linalg.norm(gram_target(k)) - 1.0)
            worst = max(worst, norm_dev, cos_dev, target_dev)
            cases += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1, "simplex frame exactness",
        worst <= 1e-12 and elapsed < 1.0,
        f"{cases} frames, max deviation {worst:.2e}, {elapsed:.2f}s (limit 1s)",
    )


def _naive_metrics(features, num_classes, per_class, target_gram):
    d = features.shape[0]
    means = np.zeros((d, num_classes))
    for k in range(num_classes):
        means[:, k] = features[:, k * per_class : (k + 1) * per_class].mean(axis=1)
    gmean = means.mean(axis=1)
    within = sum(
        float(np.sum((features[:, k * per_class + i] - means[:, k]) ** 2))
        for k in range(num_classes)
        for i in range(per_class)
    ) / (num_classes * per_class)
    between = sum(
        float(np.sum((means[:, k] - gmean) ** 2)) for k in range(num_classes)
    ) / num_classes

    centered = means - gmean[:, None]
    gram = centered.T @ centered
    gram_dist = float(np.linalg.norm(gram / np.linalg.norm(gram) - target_gram))

    correct = 0
    for k in range(num_classes):
        for i in range(per_class):
            h = features[:, k * per_class + i]
            best, best_dist = 0, float("inf")
            for j in range(num_classes):
                dist = float(np.sum((h - means[:, j]) ** 2))
                if dist < best_dist:
                    best, best_dist = j, dist
            correct += best == k
    return within / between, gram_dist, correct / (num_classes * per_class)


def _naive_alignment(h, x):
    hn = np.sqrt(float(np.sum(h * h)))
    xn = np.sqrt(float(np.sum(x * x)))
    total = 0.0
    for idx in np.ndindex(h.shape):
        total += (h[idx] / hn - x[idx] / xn) ** 2
    return float(np.sqrt(total))


def test_02_metrics_match_brute_force_oracles():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([seed, 202])
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 11))
        d = int(rng.integers(2, 9))
        features = rng.standard_normal((d, k * n))
        fs = FeatureSet(features, k, n)
        other = rng.standard_normal(features.shape)

        naive = _naive_metrics(features, k, n, gram_target(k))
        pairs = [
            (pfc1(fs), naive[0]),
            (pfc2(fs), naive[1]),
            (pfc3(fs), naive[2]),
            (alignment(features, other), _naive_alignment(features, other)),
        ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(1e-30, abs(want)))
    elapsed = time.perf_counter() - start
    _verdict(
        2, "metric brute-force oracles",
        worst <= 1e-12 and elapsed < 10.0,
        f"100 instances, max relative error {worst:.2e}, {elapsed:.1f}s (limit 10s)",
    )


def _paths_hold(summary, elapsed):
    """Criteria 3 and 4: every path's curve is monotone and ends collapsed."""
    return (
        summary["all_monotone"]
        and summary["max_final_value"] < 1e-12
        and elapsed < 30.0
    )


def test_03_straight_paths_decrease_variance_ratio(theorem1_run):
    _, summary, elapsed = theorem1_run
    _verdict(
        3, "straight-path variance ratio decreases",
        _paths_hold(summary, elapsed),
        f"{summary['monotone_count']}/{summary['paths']} strictly decreasing, "
        f"max final {summary['max_final_value']:.2e}, {elapsed:.1f}s (limit 30s)",
    )


def test_04_perturbed_paths_decrease_frame_distance(theorem2_run):
    _, summary, elapsed = theorem2_run
    _verdict(
        4, "perturbed-path frame distance decreases",
        _paths_hold(summary, elapsed),
        f"{summary['monotone_count']}/{summary['paths']} nonincreasing, "
        f"max final {summary['max_final_value']:.2e}, {elapsed:.1f}s (limit 30s)",
    )


def _fd_surrogate(p, W, H, step=1e-5):
    dW = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        up, down = W.copy(), W.copy()
        up[idx] += step
        down[idx] -= step
        dW[idx] = (objective(p, up, H) - objective(p, down, H)) / (2 * step)
    dH = np.zeros_like(H)
    for idx in np.ndindex(H.shape):
        up, down = H.copy(), H.copy()
        up[idx] += step
        down[idx] -= step
        dH[idx] = (objective(p, W, up) - objective(p, W, down)) / (2 * step)
    return dW, dH


def _tiny_problem(loss, kind, seed):
    k, d, n = 3, 4, 3
    data = None
    if kind == "mufm":
        data = gen_gaussian_mixture(k, d, n, seed=[seed, 9]).features
    return SolveProblem(
        kind=kind, loss=loss, num_classes=k, dim=d, per_class=n,
        lambda_w=0.05, lam=0.02, data=data, seed=seed,
    )


_TINY_NET = dict(
    num_blocks=2, width=5, input_dim=3, num_classes=2, per_class=4,
    epochs=2, batch_size=8, lr=0.05, lr_decay_epochs=(), momentum=0.0,
    weight_decay=0.0, record_stride=1,
)


def _gradients_match(worst, elapsed):
    """Criterion 5: each analytic gradient's worst relative gap to central
    differences is within its tolerance."""
    return (
        worst["mse"] <= 1e-5
        and worst["ce"] <= 1e-4
        and worst["net"] <= 1e-4
        and elapsed < 30.0
    )


def test_05_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = {"mse": 0.0, "ce": 0.0, "net": 0.0}
    for seed in range(10):
        for loss in ("mse", "ce"):
            p = _tiny_problem(loss, "mufm" if seed % 2 else "ufm", seed)
            rng = np.random.default_rng([seed, 21])
            W = rng.standard_normal((p.num_classes, p.dim))
            H = rng.standard_normal((p.dim, p.num_classes * p.per_class))
            dw, dh = gradients(p, W, H)
            fw, fh = _fd_surrogate(p, W, H)
            scale = max(1.0, float(np.linalg.norm(fw)), float(np.linalg.norm(fh)))
            err = max(
                float(np.linalg.norm(dw - fw)), float(np.linalg.norm(dh - fh))
            ) / scale
            worst[loss] = max(worst[loss], err)

    for seed in range(20):
        config = TrainConfig(**{**_TINY_NET, "seed": seed})
        params = init_params(config)
        rng = np.random.default_rng(seed + 1000)
        # nonzero biases keep preactivations away from the relu kink,
        # where central differences straddle the nondifferentiable point.
        for name in params:
            if name.startswith("b_"):
                params[name] = 0.3 * rng.standard_normal(params[name].shape)
        x = rng.standard_normal((3, 5))
        labels = rng.integers(0, 2, size=5)
        _, _, grads = resnet_backward(params, x, labels, 2)
        step = 1e-6
        for name, theta in params.items():
            fd = np.zeros_like(theta)
            for idx in np.ndindex(theta.shape):
                theta[idx] += step
                up = resnet_backward(params, x, labels, 2)[0]
                theta[idx] -= 2 * step
                down = resnet_backward(params, x, labels, 2)[0]
                theta[idx] += step
                fd[idx] = (up - down) / (2 * step)
            err = float(np.linalg.norm(grads[name] - fd)) / max(
                1.0, float(np.linalg.norm(fd))
            )
            worst["net"] = max(worst["net"], err)
    elapsed = time.perf_counter() - start
    _verdict(
        5, "analytic gradients match finite differences",
        _gradients_match(worst, elapsed),
        f"mse {worst['mse']:.2e} (<=1e-5), ce {worst['ce']:.2e} (<=1e-4), "
        f"net {worst['net']:.2e} (<=1e-4), {elapsed:.1f}s (limit 30s)",
    )


def _closed_form_holds(worst_grad, worst_gap, elapsed):
    """Criterion 6: the closed-form classifier is stationary, and descent
    reaches it."""
    return worst_grad <= 1e-8 and worst_gap <= 1e-6 and elapsed < 30.0


def test_06_closed_form_classifier():
    start = time.perf_counter()
    worst_grad = 0.0
    worst_gap = 0.0
    for seed in range(20):
        p = _tiny_problem("mse", "mufm", seed)
        rng = np.random.default_rng([seed, 31])
        H = rng.standard_normal((p.dim, p.num_classes * p.per_class))
        w_star = closed_form_W(H, p.label_matrix(), p.lambda_w, p.per_class)
        dw, _ = gradients(p, w_star, H)
        worst_grad = max(
            worst_grad,
            float(np.linalg.norm(dw)) / max(1.0, float(np.linalg.norm(w_star))),
        )

        kn = p.num_classes * p.per_class
        lipschitz = np.linalg.norm(H, 2) ** 2 / kn + p.lambda_w / p.num_classes
        W = np.zeros_like(w_star)
        for _ in range(4000):
            dw, _ = gradients(p, W, H)
            W = W - (1.0 / lipschitz) * dw
        worst_gap = max(worst_gap, float(np.max(np.abs(W - w_star))))
    elapsed = time.perf_counter() - start
    _verdict(
        6, "ridge classifier closed form",
        _closed_form_holds(worst_grad, worst_gap, elapsed),
        f"20 instances, stationarity {worst_grad:.2e} (<=1e-8), "
        f"descent gap {worst_gap:.2e} (<=1e-6), {elapsed:.1f}s (limit 30s)",
    )


def _keeps_data_geometry(s):
    """Criterion 7: the MUFM solution collapses more than its data, but not
    fully."""
    return (
        s["pfc1"] < s["data_pfc1"]
        and s["pfc2"] < s["data_pfc2"]
        and s["pfc3"] == 1.0
        and s["pfc1"] > 1e-6
    )


def test_07_transport_solver_keeps_data_geometry(mufm_run):
    _, s, elapsed = mufm_run
    _verdict(
        7, "transport-coupled solver keeps data geometry",
        _keeps_data_geometry(s),
        f"pfc1 {s['pfc1']:.3f} < data {s['data_pfc1']:.3f}, "
        f"pfc2 {s['pfc2']:.3f} < data {s['data_pfc2']:.3f}, "
        f"pfc3 {s['pfc3']}, pfc1 > 1e-6, {elapsed:.0f}s",
    )


def _collapses_harder(ufm, mufm):
    """Criterion 8: the UFM solution's pfc1 and pfc2 are a tenth of the
    MUFM one's or less."""
    return ufm["pfc1"] <= 0.1 * mufm["pfc1"] and ufm["pfc2"] <= 0.1 * mufm["pfc2"]


def test_08_free_feature_solver_collapses_harder(mufm_run, ufm_run):
    _, mufm, _ = mufm_run
    _, ufm, elapsed = ufm_run
    _verdict(
        8, "free-feature solver collapses harder",
        _collapses_harder(ufm, mufm),
        f"pfc1 {ufm['pfc1']:.2e} <= 0.1 x {mufm['pfc1']:.3f}, "
        f"pfc2 {ufm['pfc2']:.2e} <= 0.1 x {mufm['pfc2']:.3f}, {elapsed:.0f}s",
    )


def _tradeoff_holds(s):
    """Criterion 9: a larger coefficient gives less collapse and closer
    alignment with the data."""
    return (
        s["spearman_lambda_pfc1"] >= 0.8
        and s["spearman_lambda_pfc2"] >= 0.8
        and s["spearman_lambda_alignment"] <= -0.8
    )


def test_09_transport_coefficient_tradeoff(sweep_run):
    _, s, elapsed = sweep_run
    _verdict(
        9, "transport coefficient trade-off",
        _tradeoff_holds(s),
        f"{len(s['lambdas'])} points, spearman pfc1 {s['spearman_lambda_pfc1']:+.3f}, "
        f"pfc2 {s['spearman_lambda_pfc2']:+.3f}, "
        f"alignment {s['spearman_lambda_alignment']:+.3f}, {elapsed:.0f}s",
    )


def _chain_equals_collapsed(s, elapsed):
    """Criterion 10: the transport chain's minimum is the collapsed
    objective at every depth."""
    return (
        s["max_cost_rel_gap"] <= 1e-6
        and s["max_objective_rel_gap"] <= 1e-10
        and elapsed < 60.0
    )


def test_10_chain_equals_collapsed_objective(equivalence_run):
    _, s, elapsed = equivalence_run
    _verdict(
        10, "chain minimum equals collapsed objective",
        _chain_equals_collapsed(s, elapsed),
        f"depths {s['depths']}, cost gap {s['max_cost_rel_gap']:.2e} (<=1e-6), "
        f"objective gap {s['max_objective_rel_gap']:.2e} (<=1e-10), "
        f"{elapsed:.0f}s (limit 60s)",
    )


def test_11_regularizer_expansion_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([seed, 13])
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 8))
        lam = float(rng.uniform(0.01, 1.0))
        h = rng.standard_normal((6, k * n))
        x = rng.standard_normal((6, k * n))
        kn = k * n
        lhs = lam / (2 * kn) * float(np.sum((h - x) ** 2))
        rhs = (
            lam / (2 * kn) * float(np.sum(h * h))
            - lam / kn * float(np.trace(x @ h.T))
            + lam / (2 * kn) * float(np.sum(x * x))
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    _verdict(
        11, "transport regularizer expansion identity",
        worst <= 1e-12 and elapsed < 1.0,
        f"20 instances, max relative gap {worst:.2e}, {elapsed:.2f}s (limit 1s)",
    )


def _collapses_progressively(s, elapsed):
    """Criterion 12: the trained net fits its data, and collapse falls with
    depth, both observed and on the predicted path."""
    verdicts = s["predicted_verdicts"]
    monotone = {"strictly-decreasing", "nonincreasing"}
    return (
        s["final_accuracy"] == 1.0
        and s["last_layer_pfc3"] == 1.0
        and s["spearman_layer_pfc1"] <= -0.9
        and s["spearman_layer_pfc2"] <= -0.9
        and verdicts["pfc1"] in monotone
        and verdicts["pfc2"] in monotone
        and elapsed <= 900.0
    )


def test_12_trained_stack_collapses_progressively(resnet_run):
    _, s, elapsed = resnet_run
    verdicts = s["predicted_verdicts"]
    _verdict(
        12, "trained stack collapses progressively",
        _collapses_progressively(s, elapsed),
        f"accuracy {s['final_accuracy']}, last pfc3 {s['last_layer_pfc3']}, "
        f"spearman pfc1 {s['spearman_layer_pfc1']:+.3f}, "
        f"pfc2 {s['spearman_layer_pfc2']:+.3f}, verdicts "
        f"{verdicts['pfc1']}/{verdicts['pfc2']}, {elapsed:.0f}s (limit 900s)",
    )


def _bit_identical(first, again):
    """Criterion 13, per kind: a repeated run's manifest lists the same
    artifact digests."""
    return again["artifacts"] == first["artifacts"]


def test_13_repeated_runs_are_bit_identical(mufm_run, resnet_run, workdir):
    start = time.perf_counter()
    mufm_again = run(
        ExperimentConfig(kind="solve-mufm", out_dir=workdir / "solve-mufm-again")
    )
    resnet_again = run(
        ExperimentConfig(kind="train-resnet", out_dir=workdir / "train-resnet-again")
    )
    elapsed = time.perf_counter() - start
    mufm_match = _bit_identical(mufm_run[0], mufm_again)
    resnet_match = _bit_identical(resnet_run[0], resnet_again)
    _verdict(
        13, "repeated runs are bit-identical",
        mufm_match and resnet_match,
        f"solver artifacts match: {mufm_match} "
        f"({len(mufm_again['artifacts'])} files), trained-net artifacts match: "
        f"{resnet_match} ({len(resnet_again['artifacts'])} files), {elapsed:.0f}s",
    )


_TINY_SOLVE = dict(num_classes=3, dim=6, per_class=4, epochs=20, trace_stride=10)


def test_12_teeth_untrained_net_fails(tmp_path):
    # the network and data of criterion 12's run, at lr=0: the net keeps its
    # random initial weights, so one epoch stands for all of them
    _, s, elapsed = _run_kind("train-resnet", tmp_path / "x", lr=0.0, epochs=1,
                              lr_decay_epochs=[])
    assert not _collapses_progressively(s, elapsed)


def test_13_teeth_unseeded_draw_fails(tmp_path, monkeypatch):
    first, _, _ = _run_kind("solve-mufm", tmp_path / "a", **_TINY_SOLVE)
    again, _, _ = _run_kind("solve-mufm", tmp_path / "b", **_TINY_SOLVE)
    assert _bit_identical(first, again)
    # the mixture drawn from fresh entropy instead of the run seed
    seeded = harness.gen_gaussian_mixture
    monkeypatch.setattr(harness, "gen_gaussian_mixture",
                        lambda *args, seed, **kwargs: seeded(*args, **kwargs, seed=None))
    unseeded, _, _ = _run_kind("solve-mufm", tmp_path / "c", **_TINY_SOLVE)
    assert not _bit_identical(first, unseeded)
