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
from pfc import etf, geodesic, harness, metrics, surrogate
from pfc.core import FeatureSet
from pfc.etf import gram_target
from pfc.harness import ExperimentConfig, run
from pfc.metrics import alignment, pfc1, pfc2, pfc3
from pfc.surrogate import gradients


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


def _frames_exact(worst, elapsed):
    """Criterion 1: every frame has unit columns at cosine -1/(K-1), and
    every target Gram unit norm, to rounding."""
    return worst <= 1e-12 and elapsed < 1.0


def _frame_gap(classes):
    """The worst deviation of the frames over K in ``classes`` and d in
    (K, K + 3) from unit column norms and cosines -1/(K-1), and of their
    target Grams from unit norm."""
    worst = 0.0
    for k in classes:
        for d in (k, k + 3):
            m = etf.build_etf(k, d, seed=[k, d])
            gram = m.T @ m
            norm_dev = np.max(np.abs(np.linalg.norm(m, axis=0) - 1.0))
            cos_dev = np.max(np.abs(gram[~np.eye(k, dtype=bool)] + 1.0 / (k - 1)))
            target_dev = abs(np.linalg.norm(gram_target(k)) - 1.0)
            worst = max(worst, norm_dev, cos_dev, target_dev)
    return worst


def test_01_simplex_frames_are_exact():
    start = time.perf_counter()
    classes = range(2, 11)
    worst = _frame_gap(classes)
    elapsed = time.perf_counter() - start
    _verdict(
        1, "simplex frame exactness",
        _frames_exact(worst, elapsed),
        f"{2 * len(classes)} frames, max deviation {worst:.2e}, {elapsed:.2f}s (limit 1s)",
    )


def _oracles_match(worst, elapsed):
    """Criterion 2: every metric's worst relative gap to its brute-force
    oracle is at rounding level."""
    return worst <= 1e-12 and elapsed < 10.0


def _oracle_gap(seeds):
    """The worst relative gap of the three metrics and the alignment to
    their brute-force oracles, over random feature sets of ``seeds``."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng([seed, 202])
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 11))
        d = int(rng.integers(2, 9))
        features = rng.standard_normal((d, k * n))
        fs = FeatureSet(features, k, n)
        other = rng.standard_normal(features.shape)

        pairs = [
            (pfc1(fs), conftest.naive_pfc1(features, k, n)),
            (pfc2(fs), conftest.naive_pfc2(features, k, n, gram_target(k))),
            (pfc3(fs), conftest.naive_pfc3(features, k, n)),
            (alignment(features, other), conftest.naive_alignment(features, other)),
        ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(1e-30, abs(want)))
    return worst


def test_02_metrics_match_brute_force_oracles():
    start = time.perf_counter()
    worst = _oracle_gap(range(100))
    elapsed = time.perf_counter() - start
    _verdict(
        2, "metric brute-force oracles",
        _oracles_match(worst, elapsed),
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


def _gradients_match(worst, elapsed):
    """Criterion 5: each analytic gradient's worst relative gap to central
    differences is within its tolerance."""
    return (
        worst["mse"] <= 1e-5
        and worst["ce"] <= 1e-4
        and worst["net"] <= 1e-4
        and elapsed < 30.0
    )


def _surrogate_gaps(seeds):
    """The worst relative gap of the surrogate's analytic gradients to
    central differences, per loss, over tiny problems of ``seeds``."""
    worst = {"mse": 0.0, "ce": 0.0}
    for seed in seeds:
        for loss in ("mse", "ce"):
            p = conftest.make_problem("mufm" if seed % 2 else "ufm", loss, dim=4, per_class=3,
                                      seed=seed)
            W, H = conftest.random_state(p, [seed, 21])
            dw, dh = gradients(p, W, H)
            fw, fh = conftest.fd_gradients(p, W, H)
            scale = max(1.0, float(np.linalg.norm(fw)), float(np.linalg.norm(fh)))
            err = max(
                float(np.linalg.norm(dw - fw)), float(np.linalg.norm(dh - fh))
            ) / scale
            worst[loss] = max(worst[loss], err)
    return worst


def test_05_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = {**_surrogate_gaps(range(10)), "net": 0.0}
    for seed in range(20):
        for _, gap, fd in conftest.network_fd_gaps(conftest.tiny_config(seed=seed), seed):
            err = float(np.linalg.norm(gap)) / max(1.0, float(np.linalg.norm(fd)))
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


def _closed_form_gaps(seeds):
    """The worst stationarity gap of the closed-form classifier, and the
    worst gap of 4000 descent steps to it, over tiny problems of ``seeds``."""
    worst_grad = 0.0
    worst_gap = 0.0
    for seed in seeds:
        p = conftest.make_problem("mufm", "mse", dim=4, per_class=3, seed=seed)
        rng = np.random.default_rng([seed, 31])
        H = rng.standard_normal((p.dim, p.num_classes * p.per_class))
        w_star = surrogate.closed_form_W(H, p.label_matrix(), p.lambda_w, p.per_class)
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
    return worst_grad, worst_gap


def test_06_closed_form_classifier():
    start = time.perf_counter()
    worst_grad, worst_gap = _closed_form_gaps(range(20))
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


def _expansion_gap(seeds):
    """The largest relative gap, over ``seeds``, between the transport term
    lam / 2Kn ||H - X||^2 as the chain cost of [X, H] and its expansion."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng([seed, 13])
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 8))
        lam = float(rng.uniform(0.01, 1.0))
        h = rng.standard_normal((6, k * n))
        x = rng.standard_normal((6, k * n))
        kn = k * n
        lhs = lam / (2 * kn) * surrogate.transport_chain_cost([x, h])
        rhs = (
            lam / (2 * kn) * float(np.sum(h * h))
            - lam / kn * float(np.trace(x @ h.T))
            + lam / (2 * kn) * float(np.sum(x * x))
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _expansion_holds(worst, elapsed):
    """Criterion 11: the transport term equals its expansion to rounding."""
    return worst <= 1e-12 and elapsed < 1.0


def test_11_regularizer_expansion_identity():
    start = time.perf_counter()
    worst = _expansion_gap(range(20))
    elapsed = time.perf_counter() - start
    _verdict(
        11, "transport regularizer expansion identity",
        _expansion_holds(worst, elapsed),
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


def test_05_teeth_wrong_sign_weight_decay_fails(monkeypatch):
    assert _gradients_match({**_surrogate_gaps(range(2)), "net": 0.0}, 0.0)
    # the classifier penalty's gradient term with the wrong sign
    init = surrogate._Stack.__init__

    def flipped(self, *args):
        init(self, *args)
        self.w_grad = -self.w_grad

    monkeypatch.setattr(surrogate._Stack, "__init__", flipped)
    assert not _gradients_match({**_surrogate_gaps(range(2)), "net": 0.0}, 0.0)


_TINY_CHAIN = dict(num_classes=3, dim=6, per_class=4)


def test_02_teeth_variance_ratio_without_its_1_over_k_fails(monkeypatch):
    assert _oracles_match(_oracle_gap(range(10)), 0.0)
    # pfc1's between-class trace without its 1/K, so the ratio is K times too small
    values = metrics._Moments.values

    def unscaled(self, kind, weights, ts=None):
        out = values(self, kind, weights, ts)
        return out / self.num_classes if kind == "pfc1" else out

    monkeypatch.setattr(metrics._Moments, "values", unscaled)
    assert not _oracles_match(_oracle_gap(range(10)), 0.0)


def test_06_teeth_closed_form_without_ridge_fails(monkeypatch):
    assert _closed_form_holds(*_closed_form_gaps(range(2)), 0.0)

    def unridged(H, Y, lambda_w, per_class):
        # least squares: the n * lambda_w * I ridge term dropped
        return np.linalg.solve(H @ H.T, H @ Y.T).T

    monkeypatch.setattr(surrogate, "closed_form_W", unridged)
    assert not _closed_form_holds(*_closed_form_gaps(range(2)), 0.0)


def test_10_teeth_misplaced_layers_fail(tmp_path, monkeypatch):
    _, s, elapsed = _run_kind("equivalence-thm3", tmp_path / "a", **_TINY_CHAIN)
    assert _chain_equals_collapsed(s, elapsed)

    def misplaced(X, H_last, num_blocks):
        # layers spaced at l / (L + 1), so the chain stops short of H_last
        layers = [X + (l / (num_blocks + 1)) * (H_last - X) for l in range(num_blocks + 1)]
        return layers, surrogate.transport_chain_cost(layers)

    monkeypatch.setattr(harness, "collapse_multilayer", misplaced)
    _, s, elapsed = _run_kind("equivalence-thm3", tmp_path / "b", **_TINY_CHAIN)
    assert not _chain_equals_collapsed(s, elapsed)


def test_11_teeth_unsquared_transport_cost_fails(monkeypatch):
    assert _expansion_holds(_expansion_gap(range(20)), 0.0)

    def unsquared(layers):
        # step norms summed without squaring them
        return float(sum(np.linalg.norm(b - a) for a, b in zip(layers[:-1], layers[1:])))

    monkeypatch.setattr(surrogate, "transport_chain_cost", unsquared)
    assert not _expansion_holds(_expansion_gap(range(20)), 0.0)


def test_01_teeth_frame_without_its_scale_fails(monkeypatch):
    assert _frames_exact(_frame_gap(range(2, 5)), 0.0)
    build = etf.build_etf

    def unscaled(num_classes, dim, seed=0):
        # the centred basis without its sqrt(K / (K - 1)): columns of norm
        # sqrt((K - 1) / K)
        return build(num_classes, dim, seed) * np.sqrt((num_classes - 1) / num_classes)

    monkeypatch.setattr(etf, "build_etf", unscaled)
    assert not _frames_exact(_frame_gap(range(2, 5)), 0.0)


_SMALL_PATHS = dict(num_paths=8, grid_points=101)


def test_03_teeth_unreflected_starts_fail(tmp_path, monkeypatch):
    _, s, elapsed = _run_kind("theorem1", tmp_path / "a", **_SMALL_PATHS)
    assert _paths_hold(s, elapsed)
    # the alignment condition read as always met, so no start is reflected
    # to meet it: 4 of these 8 paths stay monotone
    monkeypatch.setattr(geodesic, "endpoint_mean_alignment", lambda path: 1.0)
    _, s, elapsed = _run_kind("theorem1", tmp_path / "b", **_SMALL_PATHS)
    assert not _paths_hold(s, elapsed)


def test_04_teeth_perturbation_ignoring_eps_rel_fails(tmp_path, monkeypatch):
    _, s, elapsed = _run_kind("theorem2", tmp_path / "a", **_SMALL_PATHS)
    assert _paths_hold(s, elapsed)
    # the perturbation as large as the centred end means, whatever eps_rel
    # asks: 7 of these 8 paths stay nonincreasing
    build = harness.perturbed_collapse_path
    monkeypatch.setattr(harness, "perturbed_collapse_path",
                        lambda *args, eps_rel, **kwargs: build(*args, eps_rel=1.0, **kwargs))
    _, s, elapsed = _run_kind("theorem2", tmp_path / "b", **_SMALL_PATHS)
    assert not _paths_hold(s, elapsed)


# a size at which criteria 7, 8 and 9 hold, in about 0.05 s a run
_SMALL_SOLVE = dict(num_classes=4, dim=8, per_class=10, epochs=3000)


def _solve_pair(out_dir):
    """The summaries of a small MUFM and a small UFM run.  At this length
    the UFM run collapses tenfold harder only with a larger lam than the
    default."""
    return tuple(_run_kind(kind, out_dir / kind, lam=0.05, **_SMALL_SOLVE)[1]
                 for kind in ("solve-mufm", "solve-ufm"))


def test_07_08_teeth_swapped_transport_terms_fail(tmp_path, monkeypatch):
    mufm, ufm = _solve_pair(tmp_path / "a")
    assert _keeps_data_geometry(mufm) and _collapses_harder(ufm, mufm)
    init = surrogate._Stack.__init__

    def swapped(self, p, *args):
        # each kind's feature term takes the other's coefficient, lam / 2
        # against lam / 2Kn, and MUFM's pulls to 0, UFM's centre, not to X
        init(self, p, *args)
        kn = p.num_classes * p.per_class
        scale = 1.0 / kn if p.kind == "ufm" else kn
        self.h_value, self.h_grad = self.h_value * scale, self.h_grad * scale
        if self.data is not None:
            self.data = np.zeros_like(self.data)

    monkeypatch.setattr(surrogate._Stack, "__init__", swapped)
    mufm, ufm = _solve_pair(tmp_path / "b")
    assert not _keeps_data_geometry(mufm)
    assert not _collapses_harder(ufm, mufm)


def test_09_teeth_rows_in_reverse_lambda_order_fail(tmp_path, monkeypatch):
    params = dict(_SMALL_SOLVE, lambdas=[0.0005, 0.002, 0.005, 0.02])
    _, s, _ = _run_kind("sweep-lambda", tmp_path / "a", **params)
    assert _tradeoff_holds(s)
    # the solves come back in reverse order, so each row pairs a coefficient
    # with the solution of its mirror in the list
    sweep = harness.sweep_lambda
    monkeypatch.setattr(harness, "sweep_lambda",
                        lambda base, lambdas, **kwargs: sweep(base, lambdas, **kwargs)[::-1])
    _, s, _ = _run_kind("sweep-lambda", tmp_path / "b", **params)
    assert not _tradeoff_holds(s)
