"""Surrogate model objectives, gradients, solvers and the chain identity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pfc.core import DivergenceError
from pfc.data import gen_gaussian_mixture
from pfc.surrogate import (
    SolveProblem,
    SweepRow,
    closed_form_H,
    closed_form_W,
    collapse_multilayer,
    gradients,
    label_matrix,
    minimize_transport_chain,
    multilayer_objective,
    objective,
    solve,
    sweep_lambda,
    transport_chain_cost,
)


def make_problem(kind="mufm", loss="mse", num_classes=3, dim=5, per_class=4,
                 lambda_w=0.05, lam=0.02, seed=0):
    data = None
    if kind == "mufm":
        data, _ = gen_gaussian_mixture(num_classes, dim, per_class, seed=[seed, 9])
        data = data.features
    return SolveProblem(
        kind=kind, loss=loss, num_classes=num_classes, dim=dim,
        per_class=per_class, lambda_w=lambda_w, lam=lam, data=data, seed=seed,
    )


def random_state(p: SolveProblem, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((p.num_classes, p.dim))
    H = rng.standard_normal((p.dim, p.num_classes * p.per_class))
    return W, H


def naive_objective(p: SolveProblem, W, H) -> float:
    """Column-by-column re-evaluation with explicit loops."""
    k, n = p.num_classes, p.per_class
    kn = k * n
    total = 0.0
    for j in range(kn):
        z = W @ H[:, j]
        label = j // n
        if p.loss == "mse":
            y = np.zeros(k)
            y[label] = 1.0
            total += float(np.sum((z - y) ** 2)) / (2.0 * kn)
        else:
            total += (math.log(np.sum(np.exp(z - z.max()))) + z.max() - z[label]) / kn
    if p.kind == "ufm":
        return total + 0.5 * p.lambda_w * float(np.sum(W**2)) + 0.5 * p.lam * float(
            np.sum(H**2)
        )
    return (
        total
        + p.lambda_w / (2.0 * k) * float(np.sum(W**2))
        + p.lam / (2.0 * kn) * float(np.sum((H - p.data) ** 2))
    )


def fd_gradients(p: SolveProblem, W, H, step=1e-5):
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


def reference_value_and_grad(p: SolveProblem, W, H):
    """Allocating objective and gradients, the formulas the in-place kernel
    must reproduce bit for bit."""
    kn, k = p.num_classes * p.per_class, p.num_classes
    y = label_matrix(p.num_classes, p.per_class)
    z = W @ H
    if p.loss == "mse":
        resid = z - y
        fit = float(np.sum(resid * resid)) / (2.0 * kn)
        dz = resid / kn
    else:
        shifted = z - z.max(axis=0, keepdims=True)
        logsumexp = np.log(np.sum(np.exp(shifted), axis=0)) + z.max(axis=0)
        true_logit = np.sum(z * y, axis=0)
        fit = float(np.sum(logsumexp - true_logit)) / kn
        e = np.exp(z - z.max(axis=0, keepdims=True))
        dz = (e / e.sum(axis=0, keepdims=True) - y) / kn
    dw = dz @ H.T
    dh = W.T @ dz
    w2 = float(np.sum(W * W))
    if p.kind == "ufm":
        value = fit + 0.5 * p.lambda_w * w2 + 0.5 * p.lam * float(np.sum(H * H))
        dw += p.lambda_w * W
        dh += p.lam * H
    else:
        diff = H - p.data
        value = fit + p.lambda_w / (2.0 * k) * w2 + p.lam / (2.0 * kn) * float(
            np.sum(diff * diff)
        )
        dw += (p.lambda_w / k) * W
        dh += (p.lam / kn) * diff
    return value, dw, dh


class TestProblemValidation:
    def test_bad_kind_and_loss(self):
        with pytest.raises(ValueError):
            make_problem(kind="nc")
        with pytest.raises(ValueError):
            make_problem(loss="hinge")

    def test_needs_two_classes_and_positive_lambdas(self):
        with pytest.raises(ValueError):
            make_problem(num_classes=1)
        with pytest.raises(ValueError):
            make_problem(lambda_w=0.0)
        with pytest.raises(ValueError):
            make_problem(lam=-1.0)

    @pytest.mark.parametrize("kind", ["ufm", "mufm"])
    def test_dim_below_classes_rejected(self, kind):
        data = np.zeros((2, 12)) if kind == "mufm" else None
        with pytest.raises(ValueError, match="dim must be >= num_classes"):
            SolveProblem(kind=kind, loss="mse", num_classes=3, dim=2,
                         per_class=4, lambda_w=0.1, lam=0.1, data=data)
        make_problem(kind=kind, num_classes=3, dim=3)  # d = K is allowed

    def test_data_presence_rules(self):
        with pytest.raises(ValueError):
            SolveProblem(kind="mufm", loss="mse", num_classes=3, dim=5,
                         per_class=4, lambda_w=0.1, lam=0.1)
        with pytest.raises(ValueError):
            SolveProblem(kind="ufm", loss="mse", num_classes=3, dim=5,
                         per_class=4, lambda_w=0.1, lam=0.1,
                         data=np.zeros((5, 12)))
        with pytest.raises(ValueError):
            SolveProblem(kind="mufm", loss="mse", num_classes=3, dim=5,
                         per_class=4, lambda_w=0.1, lam=0.1,
                         data=np.zeros((5, 11)))

    def test_data_copied_and_read_only(self):
        raw = np.zeros((5, 12))
        p = SolveProblem(kind="mufm", loss="mse", num_classes=3, dim=5,
                         per_class=4, lambda_w=0.1, lam=0.1, data=raw)
        raw[0, 0] = 7.0
        assert p.data[0, 0] == 0.0
        with pytest.raises(ValueError):
            p.data[0, 0] = 1.0


class TestLabelMatrix:
    def test_block_structure(self):
        y = label_matrix(2, 3)
        expected = np.array(
            [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]
        )
        np.testing.assert_array_equal(y, expected)

    def test_one_hot_columns(self):
        y = label_matrix(5, 7)
        assert y.shape == (5, 35)
        np.testing.assert_array_equal(y.sum(axis=0), np.ones(35))
        assert set(np.unique(y)) == {0.0, 1.0}

    def test_problem_holds_one_read_only_copy(self):
        p = make_problem(kind="ufm", num_classes=4, per_class=3)
        assert p.label_matrix() is p.label_matrix()
        np.testing.assert_array_equal(p.label_matrix(), label_matrix(4, 3))
        with pytest.raises(ValueError):
            p.label_matrix()[0, 0] = 2.0
        assert replace(p, num_classes=2).label_matrix().shape == (2, 6)


class TestObjective:
    def test_transport_hand_value(self):
        p = make_problem(num_classes=2, dim=3, per_class=1)
        W = np.zeros((2, 3))
        assert objective(p, W, p.data.copy()) == pytest.approx(0.5, abs=1e-15)

    def test_regularizers_vanish_at_zero_state(self):
        p = make_problem(num_classes=2, dim=3, per_class=1)
        W = np.zeros((2, 3))
        fit_only = objective(p, W, p.data.copy())
        y = p.label_matrix()
        assert fit_only == pytest.approx(float(np.sum(y**2)) / (2 * 2 * 1))

    def test_linear_in_lambda_w(self):
        p = make_problem(lambda_w=0.05)
        doubled = replace(p, lambda_w=0.1)
        W, H = random_state(p, 3)
        gap = objective(doubled, W, H) - objective(p, W, H)
        expected = 0.05 / (2.0 * p.num_classes) * float(np.sum(W**2))
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        p = make_problem()
        with pytest.raises(ValueError):
            objective(p, np.zeros((2, 5)), np.zeros((5, 12)))
        with pytest.raises(ValueError):
            objective(p, np.zeros((3, 5)), np.zeros((5, 13)))

    def test_matches_loop_oracle(self):
        for seed in range(12):
            kind = "mufm" if seed % 2 else "ufm"
            loss = "mse" if seed % 4 < 2 else "ce"
            p = make_problem(kind=kind, loss=loss, seed=seed)
            W, H = random_state(p, seed + 100)
            assert objective(p, W, H) == pytest.approx(
                naive_objective(p, W, H), rel=1e-12
            )


    @pytest.mark.parametrize("kind", ["ufm", "mufm"])
    @pytest.mark.parametrize("loss", ["mse", "ce"])
    def test_matches_allocating_formulas_bit_for_bit(self, kind, loss):
        for seed in range(4):
            p = make_problem(kind=kind, loss=loss, num_classes=4, dim=6,
                             per_class=5, seed=seed)
            W, H = random_state(p, seed + 50)
            value, dw, dh = reference_value_and_grad(p, W, H)
            assert objective(p, W, H) == value
            got_w, got_h = gradients(p, W, H)
            np.testing.assert_array_equal(got_w, dw, strict=True)
            np.testing.assert_array_equal(got_h, dh, strict=True)


class TestGradients:
    def test_finite_difference_mse(self):
        for seed in range(20):
            kind = "mufm" if seed % 2 else "ufm"
            p = make_problem(kind=kind, loss="mse", num_classes=3, dim=5,
                             per_class=4, seed=seed)
            W, H = random_state(p, seed + 50)
            dw, dh = gradients(p, W, H)
            fw, fh = fd_gradients(p, W, H)
            assert np.linalg.norm(dw - fw) <= 1e-5 * max(1.0, np.linalg.norm(fw))
            assert np.linalg.norm(dh - fh) <= 1e-5 * max(1.0, np.linalg.norm(fh))

    def test_finite_difference_ce(self):
        for seed in range(20):
            kind = "mufm" if seed % 2 else "ufm"
            p = make_problem(kind=kind, loss="ce", num_classes=3, dim=5,
                             per_class=4, seed=seed)
            W, H = random_state(p, seed + 70)
            dw, dh = gradients(p, W, H)
            fw, fh = fd_gradients(p, W, H)
            assert np.linalg.norm(dw - fw) <= 1e-4 * max(1.0, np.linalg.norm(fw))
            assert np.linalg.norm(dh - fh) <= 1e-4 * max(1.0, np.linalg.norm(fh))

    def test_zero_state_has_zero_classifier_gradient(self):
        p = SolveProblem(kind="mufm", loss="mse", num_classes=3, dim=5,
                         per_class=4, lambda_w=0.1, lam=0.1,
                         data=np.zeros((5, 12)))
        dw, _ = gradients(p, np.zeros((3, 5)), np.zeros((5, 12)))
        np.testing.assert_array_equal(dw, np.zeros((3, 5)))


class TestClosedFormW:
    def test_zero_features_give_zero_classifier(self):
        y = label_matrix(3, 4)
        w = closed_form_W(np.zeros((5, 12)), y, 0.1, 4)
        np.testing.assert_array_equal(w, np.zeros((3, 5)))

    def test_scalar_ridge(self):
        for h, lw in ((0.7, 0.3), (2.0, 0.05), (-1.2, 1.0)):
            w = closed_form_W(np.array([[h]]), np.array([[1.0]]), lw, 1)
            assert w[0, 0] == pytest.approx(h / (h * h + lw), rel=1e-14)

    def test_zeroes_classifier_gradient(self):
        for seed in range(20):
            p = make_problem(loss="mse", num_classes=3, dim=6, per_class=5,
                             seed=seed)
            _, H = random_state(p, seed + 10)
            w_star = closed_form_W(H, p.label_matrix(), p.lambda_w, p.per_class)
            dw, _ = gradients(p, w_star, H)
            assert np.linalg.norm(dw) <= 1e-8 * max(1.0, np.linalg.norm(w_star))

    def test_descent_over_classifier_converges_to_it(self):
        p = make_problem(loss="mse", num_classes=3, dim=6, per_class=5,
                         lambda_w=0.5, seed=4)
        _, H = random_state(p, 14)
        w_star = closed_form_W(H, p.label_matrix(), p.lambda_w, p.per_class)
        kn = p.num_classes * p.per_class
        lipschitz = np.linalg.norm(H, 2) ** 2 / kn + p.lambda_w / p.num_classes
        W = np.zeros((3, 6))
        for _ in range(4000):
            dw, _ = gradients(p, W, H)
            W = W - (1.0 / lipschitz) * dw
        np.testing.assert_allclose(W, w_star, atol=1e-6)


class TestClosedFormH:
    def test_zeroes_feature_gradient(self):
        for seed in range(10):
            p = make_problem(loss="mse", num_classes=3, dim=6, per_class=5,
                             seed=seed)
            W, _ = random_state(p, seed + 33)
            h_star = closed_form_H(W, p.label_matrix(), p.data, p.lam)
            _, dh = gradients(p, W, h_star)
            assert np.linalg.norm(dh) <= 1e-10 * max(1.0, np.linalg.norm(h_star))

    def test_alternation_reaches_joint_stationary_point(self):
        p = make_problem(loss="mse", num_classes=3, dim=6, per_class=5,
                         lambda_w=0.1, lam=0.1, seed=8)
        y = p.label_matrix()
        _, H = random_state(p, 9)
        W = closed_form_W(H, y, p.lambda_w, p.per_class)
        for _ in range(500):
            H = closed_form_H(W, y, p.data, p.lam)
            W = closed_form_W(H, y, p.lambda_w, p.per_class)
        dw, dh = gradients(p, W, H)
        scale = max(1.0, np.linalg.norm(W), np.linalg.norm(H))
        assert np.linalg.norm(dw) <= 1e-8 * scale
        assert np.linalg.norm(dh) <= 1e-8 * scale


class TestSolve:
    def test_zero_learning_rate_returns_initialization(self):
        p = make_problem(seed=5)
        result = solve(p, lr=0.0, epochs=1)
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((p.num_classes, p.dim))
        h0 = rng.standard_normal((p.dim, p.num_classes * p.per_class))
        np.testing.assert_array_equal(result.W, w0)
        np.testing.assert_array_equal(result.H, h0)

    def test_argument_validation(self):
        p = make_problem()
        with pytest.raises(ValueError):
            solve(p, lr=-0.1)
        with pytest.raises(ValueError):
            solve(p, epochs=0)
        with pytest.raises(ValueError):
            solve(p, trace_stride=0)

    def test_deterministic_traces(self):
        p = make_problem(seed=2)
        a = solve(p, lr=0.1, epochs=200)
        b = solve(p, lr=0.1, epochs=200)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert np.array_equal(a.W, b.W)

    def test_divergence_reports_epoch(self):
        p = make_problem(loss="mse", seed=1)
        with pytest.raises(DivergenceError, match="epoch"):
            solve(p, lr=1e6, epochs=200)

    def test_trace_nonincreasing_at_default_rate(self):
        p = make_problem(loss="mse", num_classes=3, dim=8, per_class=10,
                         lambda_w=0.005, lam=0.001, seed=3)
        result = solve(p, lr=0.1, epochs=2000, init_scale=0.3)
        trace = result.objective_trace
        rises = np.diff(trace) - 1e-9 * np.abs(trace[:-1])
        assert np.all(rises <= 0)

    def test_trace_epochs_follow_stride(self):
        p = make_problem(seed=6)
        result = solve(p, lr=0.01, epochs=10, trace_stride=3)
        np.testing.assert_array_equal(result.trace_epochs, [0, 3, 6, 9, 10])
        assert result.epochs_run == 10

    def test_gradient_tolerance_stops_early(self):
        p = make_problem(seed=7)
        result = solve(p, lr=0.01, epochs=5000, grad_tol=1e3)
        assert result.epochs_run == 1
        assert result.final_grad_norm <= 1e3

    @pytest.mark.parametrize("kind,loss", [("mufm", "mse"), ("mufm", "ce"), ("ufm", "ce")])
    def test_matches_reference_descent_bit_for_bit(self, kind, loss):
        # plain descent on objective/gradients, the definition solve's fused
        # epoch must reproduce exactly
        p = make_problem(kind=kind, loss=loss, seed=4)
        lr, epochs, scale = 0.1, 50, 0.3
        rng = np.random.default_rng(p.seed)
        W = scale * rng.standard_normal((p.num_classes, p.dim))
        H = scale * rng.standard_normal((p.dim, p.num_classes * p.per_class))
        trace = [objective(p, W, H)]
        for _ in range(epochs):
            dw, dh = gradients(p, W, H)
            W, H = W - lr * dw, H - lr * dh
            trace.append(objective(p, W, H))
        result = solve(p, lr=lr, epochs=epochs, init_scale=scale)
        assert np.array_equal(result.W, W)
        assert np.array_equal(result.H, H)
        assert np.array_equal(result.objective_trace, np.asarray(trace))


class TestChain:
    def test_single_block(self):
        x = np.arange(6.0).reshape(2, 3)
        h = x + 1.0
        layers, value = collapse_multilayer(x, h, 1)
        assert len(layers) == 2
        np.testing.assert_array_equal(layers[0], x)
        np.testing.assert_array_equal(layers[1], h)
        assert value == pytest.approx(float(np.sum((h - x) ** 2)), rel=1e-14)

    def test_two_block_hand_example(self):
        x = np.zeros((1, 1))
        h = np.array([[2.0]])
        layers, value = collapse_multilayer(x, h, 2)
        assert value == pytest.approx(2.0, abs=1e-14)
        np.testing.assert_allclose(layers[1], h / 2.0)

    def test_value_is_length_scaled_gap(self):
        rng = np.random.default_rng(0)
        for blocks in (1, 2, 3, 6):
            x = rng.standard_normal((4, 7))
            h = rng.standard_normal((4, 7))
            _, value = collapse_multilayer(x, h, blocks)
            assert value == pytest.approx(
                float(np.sum((h - x) ** 2)) / blocks, rel=1e-12
            )

    def test_layers_equally_spaced(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        h = rng.standard_normal((3, 5))
        layers, _ = collapse_multilayer(x, h, 4)
        for l, layer in enumerate(layers):
            np.testing.assert_allclose(layer, x + (l / 4) * (h - x), atol=1e-15)

    def test_descent_matches_collinear_minimum(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4))
        h = rng.standard_normal((3, 4))
        expected_layers, expected_value = collapse_multilayer(x, h, 5)
        layers, value = minimize_transport_chain(x, h, 5)
        assert value == pytest.approx(expected_value, rel=1e-6)
        for got, want in zip(layers, expected_layers):
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_chain_argument_validation(self):
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            collapse_multilayer(x, np.zeros((2, 3)), 2)
        with pytest.raises(ValueError):
            collapse_multilayer(x, x, 0)
        with pytest.raises(ValueError):
            minimize_transport_chain(x, np.zeros((3, 2)), 2)
        with pytest.raises(ValueError):
            minimize_transport_chain(x, x, 0)

    def test_cost_of_explicit_chain(self):
        chain = [np.zeros((1, 2)), np.ones((1, 2)), 3.0 * np.ones((1, 2))]
        assert transport_chain_cost(chain) == pytest.approx(2.0 + 8.0)


class TestMultilayerObjective:
    def test_requires_transport_kind_and_pinned_input(self):
        ufm = make_problem(kind="ufm")
        with pytest.raises(ValueError):
            multilayer_objective(ufm, np.zeros((3, 5)), [np.zeros((5, 12))] * 2)
        p = make_problem()
        layers, _ = collapse_multilayer(p.data + 1.0, p.data, 2)
        with pytest.raises(ValueError):
            multilayer_objective(p, np.zeros((3, 5)), layers)

    def test_chain_equals_rescaled_collapsed_form(self):
        for blocks in (1, 2, 5, 10):
            p = make_problem(loss="mse", seed=blocks)
            W, H_last = random_state(p, blocks + 40)
            layers, _ = collapse_multilayer(p.data, H_last, blocks)
            chain_value = multilayer_objective(p, W, layers)
            rescaled = replace(p, lam=p.lam / blocks)
            assert chain_value == pytest.approx(
                objective(rescaled, W, H_last), rel=1e-10
            )

    def test_expanded_square_identity(self):
        rng = np.random.default_rng(3)
        k, n = 4, 6
        lam = 0.37
        for _ in range(10):
            h = rng.standard_normal((5, k * n))
            x = rng.standard_normal((5, k * n))
            lhs = lam / (2 * k * n) * float(np.sum((h - x) ** 2))
            rhs = (
                lam / (2 * k * n) * float(np.sum(h**2))
                - lam / (k * n) * float(np.trace(x @ h.T))
                + lam / (2 * k * n) * float(np.sum(x**2))
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSweep:
    def test_single_value_matches_direct_solve(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=11)
        rows = sweep_lambda(base, [0.003], lr=0.05, epochs=300)
        assert len(rows) == 1
        direct = solve(replace(base, lam=0.003), lr=0.05, epochs=300,
                       trace_stride=3)
        assert rows[0].lam == 0.003
        assert rows[0].epoch == direct.epochs_run
        assert rows[0].objective == direct.objective_trace[-1]

    def test_repeated_value_gives_identical_rows(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=12)
        rows = sweep_lambda(base, [0.005, 0.005], lr=0.05, epochs=200)
        assert rows[0] == replace(rows[1], lam=rows[0].lam)

    def test_rejects_bad_input(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4)
        with pytest.raises(ValueError):
            sweep_lambda(base, [0.0])
        with pytest.raises(ValueError):
            sweep_lambda(make_problem(kind="ufm"), [0.001])

    def test_solve_failures_name_the_coefficient(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=13)
        with pytest.raises(DivergenceError, match="lambda=0.005"):
            sweep_lambda(base, [0.005], lr=1e6, epochs=50)

    def test_rows_are_plain_records(self):
        row = SweepRow(lam=0.1, epoch=3, objective=1.0, pfc1=0.5, pfc2=0.4,
                       pfc3=1.0, alignment=0.2)
        assert row.lam == 0.1 and row.pfc3 == 1.0
