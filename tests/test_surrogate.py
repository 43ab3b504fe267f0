"""Surrogate model objectives, gradients, solvers and the chain identity."""

import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import fd_gradients, make_problem, random_state
from pfc import data, geodesic, metrics, surrogate
from pfc.core import DivergenceError
from pfc.surrogate import (
    SolveProblem,
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


def reference_descent(p: SolveProblem, lr, epochs, scale, grad_tol=0.0):
    """Plain full-space descent on objective/gradients from solve's seeded
    initialization; returns W, H, the per-epoch trace and the gradient norms
    after each epoch."""
    rng = np.random.default_rng(p.seed)
    W = scale * rng.standard_normal((p.num_classes, p.dim))
    H = scale * rng.standard_normal((p.dim, p.num_classes * p.per_class))
    trace, norms = [objective(p, W, H)], []
    dw, dh = gradients(p, W, H)
    for _ in range(epochs):
        W, H = W - lr * dw, H - lr * dh
        trace.append(objective(p, W, H))
        dw, dh = gradients(p, W, H)
        norms.append(float(np.sqrt(np.sum(dw * dw) + np.sum(dh * dh))))
        if grad_tol > 0.0 and norms[-1] <= grad_tol:
            break
    return W, H, np.asarray(trace), np.asarray(norms)


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def divergence_epoch(exc_info) -> int:
    return int(re.search(r"epoch (\d+)", str(exc_info.value)).group(1))


def assert_same_solution(got, want):
    """Same final state, gradient norm and epoch count, bit for bit."""
    np.testing.assert_array_equal(got.W, want.W, strict=True)
    np.testing.assert_array_equal(got.H, want.H, strict=True)
    assert got.final_grad_norm == want.final_grad_norm
    assert got.epochs_run == want.epochs_run


class TestProblemValidation:
    def test_bad_loss(self):
        # the message names the field, its choices and the value
        message = "loss must be one of ('ce', 'mse'), got 'hinge'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_problem(loss="hinge")

    def test_kind_follows_data(self):
        assert SolveProblem().kind == "ufm"
        mufm = SolveProblem(num_classes=3, dim=5, per_class=4, data=np.zeros((5, 12)))
        assert mufm.kind == "mufm"
        assert replace(mufm, data=None).kind == "ufm"
        with pytest.raises(TypeError):
            replace(mufm, kind="ufm")  # a property, not a field

    def test_needs_two_classes_and_positive_lambdas(self):
        # each message names one parameter and its value
        with pytest.raises(ValueError, match="^num_classes must be >= 2, got 1$"):
            make_problem(kind="ufm", num_classes=1)
        with pytest.raises(ValueError, match="^per_class must be >= 1, got 0$"):
            make_problem(kind="ufm", per_class=0)
        with pytest.raises(ValueError, match="^lambda_w must be > 0, got 0.0$"):
            make_problem(lambda_w=0.0)
        with pytest.raises(ValueError, match="^lam must be > 0, got -1.0$"):
            make_problem(lam=-1.0)

    @pytest.mark.parametrize("field", ["lambda_w", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_lambdas_rejected(self, field, value):
        message = f"parameter {field!r} must be finite, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_problem(**{field: value})

    @pytest.mark.parametrize("kind", ["ufm", "mufm"])
    def test_dim_below_classes_rejected(self, kind):
        data = np.zeros((2, 12)) if kind == "mufm" else None
        with pytest.raises(ValueError, match="dim must be >= num_classes"):
            SolveProblem(loss="mse", num_classes=3, dim=2,
                         per_class=4, lambda_w=0.1, lam=0.1, data=data)
        make_problem(kind=kind, num_classes=3, dim=3)  # d = K is allowed

    def test_data_shape_checked(self):
        with pytest.raises(ValueError, match=re.escape("data must be (5, 12), got (5, 11)")):
            SolveProblem(loss="mse", num_classes=3, dim=5,
                         per_class=4, lambda_w=0.1, lam=0.1,
                         data=np.zeros((5, 11)))

    def test_data_copied_and_read_only(self):
        raw = np.zeros((5, 12))
        p = SolveProblem(loss="mse", num_classes=3, dim=5,
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
        p = SolveProblem(loss="mse", num_classes=3, dim=5,
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


def closed_form_H(W, Y, X, lam):
    """Minimizer of the MSE transport-regularized objective over the features
    at fixed W: H* = (W^T W + lam * I)^{-1} (W^T Y + lam * X)."""
    d = W.shape[1]
    return np.linalg.solve(W.T @ W + lam * np.eye(d), W.T @ Y + lam * X)


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

    @pytest.mark.parametrize("function, table", [
        (solve, surrogate.DESCENT),
        (sweep_lambda, surrogate.DESCENT),
        (minimize_transport_chain, surrogate.CHAIN),
        (data.gen_gaussian_mixture, data.MIXTURE),
        (geodesic.random_to_collapse_path, geodesic.PATH),
        (geodesic.perturbed_collapse_path, geodesic.PATH),
        (geodesic.uniform_grid, {"num_points": geodesic.PATH["grid_points"]}),
        (metrics.first_within_error, {"epsilon": metrics.EPSILON}),
    ])
    def test_descent_defaults_are_the_signatures(self, function, table):
        # each signature default is read from the table that types its knob,
        # so the two cannot drift apart, in value or in type
        params = inspect.signature(function).parameters
        names = params.keys() & table.keys()
        assert names
        for name in names:
            assert params[name].default is table[name].default, name

    def test_argument_validation(self):
        p = make_problem()
        with pytest.raises(ValueError):
            solve(p, lr=-0.1)
        with pytest.raises(ValueError):
            solve(p, epochs=0)
        with pytest.raises(ValueError):
            solve(p, trace_stride=0)
        with pytest.raises(ValueError, match="grad_tol"):
            solve(p, grad_tol=-1.0)

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

    def test_divergence_epoch_is_exact_under_a_stride(self):
        p = make_problem(loss="ce", num_classes=3, dim=6, per_class=4, seed=13)
        epochs = []
        for stride in (1, 500):
            with pytest.raises(DivergenceError, match=r"lambda=0\.02: ") as exc:
                solve(p, lr=1e6, epochs=1000, trace_stride=stride)
            epochs.append(divergence_epoch(exc))
        assert epochs == [28, 28]

    @pytest.mark.parametrize("loss", ["mse", "ce"])
    def test_strided_solve_matches_stride_one_bit_for_bit(self, loss):
        p = make_problem(loss=loss, seed=8)
        every = solve(p, lr=0.1, epochs=100, trace_stride=1)
        strided = solve(p, lr=0.1, epochs=100, trace_stride=7)
        assert_same_solution(strided, every)
        sampled = [*range(0, 100, 7), 100]
        np.testing.assert_array_equal(strided.trace_epochs, sampled)
        np.testing.assert_array_equal(
            strided.objective_trace, every.objective_trace[sampled], strict=True
        )

    @pytest.mark.parametrize("loss", ["mse", "ce"])
    def test_gradient_tolerance_stop_between_trace_epochs(self, loss):
        p = make_problem(loss=loss, seed=8)
        norms = [solve(p, lr=0.1, epochs=e).final_grad_norm for e in range(1, 31)]
        # a tolerance first met at epoch 25, between the stride-7 epochs 21 and 28
        stop = 25
        assert norms[stop - 1] < min(norms[: stop - 1])
        tol = norms[stop - 1]
        every = solve(p, lr=0.1, epochs=100, trace_stride=1, grad_tol=tol)
        strided = solve(p, lr=0.1, epochs=100, trace_stride=7, grad_tol=tol)
        assert every.epochs_run == stop
        assert_same_solution(strided, every)
        np.testing.assert_array_equal(strided.trace_epochs, [0, 7, 14, 21, 25])
        np.testing.assert_array_equal(
            strided.objective_trace, every.objective_trace[[0, 7, 14, 21, 25]],
            strict=True,
        )

    @pytest.mark.parametrize("loss", ["mse", "ce"])
    def test_grad_norms_match_allocating_formula(self, loss):
        p = make_problem(loss=loss, seed=4)
        s = surrogate._Stack(p, [0.01, 0.02, 0.05])
        rng = np.random.default_rng(3)
        W = rng.standard_normal((3, p.num_classes, p.dim))
        C = rng.standard_normal((3, p.dim, p.num_classes * p.per_class))
        fresh = surrogate._Buffers(W, C)
        surrogate._gradient(s, W, C, fresh)
        want_value = surrogate._value(s, W, C, fresh)
        buf = surrogate._Buffers(W, C)
        dw, dc = surrogate._gradient(s, W, C, buf)
        want = np.sqrt(np.sum(dw * dw, axis=(1, 2)) + np.sum(dc * dc, axis=(1, 2)))
        np.testing.assert_array_equal(surrogate._grad_norms(dw, dc, buf), want,
                                      strict=True)
        # the squares' scratch is not what the objective reads
        np.testing.assert_array_equal(surrogate._value(s, W, C, buf), want_value,
                                      strict=True)

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


class TestRowSpaceReduction:
    """MSE shapes with r < N, where solve descends in row-space coordinates."""

    @pytest.mark.parametrize("kind,rank", [("ufm", 5 + 3), ("mufm", 2 * 5 + 3)])
    def test_basis_choice(self, kind, rank):
        p = make_problem(kind=kind, num_classes=3, dim=5, per_class=20)
        _, h0 = random_state(p, 1)
        basis = surrogate._row_space_basis(p, h0)
        assert basis.shape == (60, rank)
        np.testing.assert_allclose(basis.T @ basis, np.eye(rank), atol=1e-14)
        assert surrogate._row_space_basis(replace(p, loss="ce"), h0) is None
        # r >= N runs at full width: N = 12, r = 13 (mufm); N = 6, r = 8 (ufm)
        small = make_problem(kind=kind, per_class=4 if kind == "mufm" else 2)
        assert surrogate._row_space_basis(small, random_state(small, 1)[1]) is None

    @pytest.mark.parametrize("kind", ["ufm", "mufm"])
    def test_matches_full_space_reference_descent(self, kind):
        p = make_problem(kind=kind, num_classes=3, dim=5, per_class=20, seed=4)
        lr, epochs, scale = 0.1, 300, 0.3
        W, H, trace, norms = reference_descent(p, lr, epochs, scale)
        result = solve(p, lr=lr, epochs=epochs, init_scale=scale)
        assert relative_error(result.W, W) <= 1e-12
        assert relative_error(result.H, H) <= 1e-12
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12, atol=0)
        assert result.final_grad_norm == pytest.approx(norms[-1], rel=1e-9)

    @pytest.mark.parametrize("kind", ["ufm", "mufm"])
    def test_zero_learning_rate_returns_initialization(self, kind):
        p = make_problem(kind=kind, num_classes=3, dim=5, per_class=20, seed=5)
        result = solve(p, lr=0.0, epochs=3, init_scale=0.7)
        rng = np.random.default_rng(5)
        w0 = 0.7 * rng.standard_normal((p.num_classes, p.dim))
        h0 = 0.7 * rng.standard_normal((p.dim, p.num_classes * p.per_class))
        np.testing.assert_array_equal(result.W, w0, strict=True)
        np.testing.assert_array_equal(result.H, h0, strict=True)

    @pytest.mark.parametrize("kind", ["ufm", "mufm"])
    def test_gradient_tolerance_stops_at_reference_epoch(self, kind):
        p = make_problem(kind=kind, num_classes=3, dim=5, per_class=20, seed=6)
        lr, scale, stop = 0.1, 0.3, 120
        *_, norms = reference_descent(p, lr, 400, scale)
        # a tolerance first met at epoch `stop`, clear of every earlier norm
        assert norms[stop - 1] < 0.999 * norms[: stop - 1].min()
        tol = norms[stop - 1] * (1 + 1e-6)
        result = solve(p, lr=lr, epochs=400, init_scale=scale, grad_tol=tol)
        assert result.epochs_run == stop
        assert result.trace_epochs[-1] == stop
        *_, ref_norms = reference_descent(p, lr, 400, scale, grad_tol=tol)
        assert len(ref_norms) == stop


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

    @pytest.mark.parametrize("depth", [1, 2, 5, 10])
    @pytest.mark.parametrize("lr", [0.2, 0.05])
    def test_descent_matches_per_layer_loop_bit_for_bit(self, depth, lr):
        def per_layer_loop(X, H_last, num_blocks, lr, iters, seed):
            # the list-of-layers iteration the stacked update replaced
            rng = np.random.default_rng(seed)
            interior = [rng.standard_normal(X.shape) for _ in range(num_blocks - 1)]
            for _ in range(iters):
                chain = [X, *interior, H_last]
                for l in range(1, num_blocks):
                    grad = 2.0 * (2.0 * chain[l] - chain[l - 1] - chain[l + 1])
                    interior[l - 1] = chain[l] - lr * grad
            layers = [X, *interior, H_last]
            return layers, transport_chain_cost(layers)

        rng = np.random.default_rng([depth, 4])
        x = rng.standard_normal((4, 6))
        h = 3.0 * rng.standard_normal((4, 6))
        layers, value = minimize_transport_chain(x, h, depth, lr=lr, iters=300,
                                                 seed=[7, depth])
        want_layers, want_value = per_layer_loop(x, h, depth, lr, 300, [7, depth])
        assert value == want_value
        assert len(layers) == len(want_layers) == depth + 1
        for got, want in zip(layers, want_layers):
            np.testing.assert_array_equal(got, want, strict=True)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

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

    @pytest.mark.parametrize("knobs, message", [
        ({"iters": 0}, "iters must be >= 1, got 0"),
        ({"iters": -3}, "iters must be >= 1, got -3"),
        ({"lr": 0.0}, "lr must be > 0, got 0.0"),
        ({"lr": -0.1, "iters": 10}, "lr must be > 0, got -0.1"),
        ({"iters": 2.5}, "parameter 'iters' must be of type int, got 2.5"),
    ])
    def test_chain_descent_checks_its_knobs(self, knobs, message):
        # without these checks a zero step or count returns the random
        # start's cost, a negative step climbs, and 2.5 fails inside range()
        rng = np.random.default_rng(8)
        x, h = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            minimize_transport_chain(x, h, 3, **knobs)

    def test_divergent_step_raises_naming_the_depth(self):
        rng = np.random.default_rng(3)
        x, h = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        with pytest.raises(DivergenceError, match="diverged at depth 2"):
            minimize_transport_chain(x, h, 2, lr=0.6)

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


def assert_same_result(got, want):
    """Two solve results with the same bits in every field."""
    for name in ("W", "H", "objective_trace", "trace_epochs"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), strict=True)
    assert (got.final_grad_norm, got.epochs_run) == (want.final_grad_norm, want.epochs_run)


class TestSweep:
    def test_single_value_matches_direct_solve(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=11)
        results = sweep_lambda(base, [0.003], lr=0.05, epochs=300)
        assert len(results) == 1
        direct = solve(replace(base, lam=0.003), lr=0.05, epochs=300,
                       trace_stride=3)
        assert_same_result(results[0], direct)

    def test_repeated_value_gives_identical_rows(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=12)
        first, second = sweep_lambda(base, [0.005, 0.005], lr=0.05, epochs=200)
        assert_same_result(first, second)

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

    @pytest.mark.parametrize("loss,per_class", [("mse", 20), ("ce", 4)])
    def test_lanes_match_separate_solves_bit_for_bit(self, loss, per_class):
        base = make_problem(loss=loss, num_classes=3, dim=5, per_class=per_class, seed=14)
        lams = [0.002, 0.01, 0.05]
        results = sweep_lambda(base, lams, lr=0.05, epochs=250)
        assert len(results) == len(lams)
        for lam, result in zip(lams, results):
            direct = solve(replace(base, lam=lam), lr=0.05, epochs=250, trace_stride=2)
            assert_same_result(result, direct)

    def test_every_lambda_validated_before_any_descent(self, monkeypatch):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4)

        def unreachable(*args, **kwargs):
            raise AssertionError("descent started before every lambda was checked")

        monkeypatch.setattr(surrogate, "_gradient", unreachable)
        with pytest.raises(ValueError, match=r"^lambdas must be > 0, got \[0.001, -1.0\]$"):
            sweep_lambda(base, [0.001, -1.0], epochs=10)
        for bad in (float("nan"), float("inf"), float("-inf")):
            message = f"^parameter 'lambdas' must be finite, got {bad}$"
            with pytest.raises(ValueError, match=message):
                sweep_lambda(base, [0.001, bad], epochs=10)

    def test_empty_lambdas_rejected(self):
        # as the CLI rejects them
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4)
        with pytest.raises(ValueError, match="^lambdas must not be empty$"):
            sweep_lambda(base, [], epochs=10)

    def test_divergence_names_the_diverging_lambda(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=13)
        sweep_lambda(base, [0.005], lr=0.1, epochs=200)
        with pytest.raises(DivergenceError, match=r"lambda=10000\.0: .* epoch \d+"):
            sweep_lambda(base, [0.005, 1e4], lr=0.1, epochs=200)

    def test_simultaneous_divergence_names_the_first_lambda(self):
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=13)
        lams = [0.006, 0.005]
        epochs = []
        for lam in lams:
            with pytest.raises(DivergenceError) as single:
                solve(replace(base, lam=lam), lr=1e6, epochs=50)
            epochs.append(divergence_epoch(single))
        assert epochs[0] == epochs[1]
        with pytest.raises(DivergenceError, match=r"lambda=0\.006: ") as stacked:
            sweep_lambda(base, lams, lr=1e6, epochs=50)
        assert divergence_epoch(stacked) == epochs[0]

    def test_strided_divergence_names_the_exact_epoch(self):
        # epochs=1000 traces every 10th epoch; the lanes first overflow at 3
        base = make_problem(loss="mse", num_classes=3, dim=6, per_class=4, seed=13)
        with pytest.raises(DivergenceError) as single:
            solve(replace(base, lam=0.006), lr=1e6, epochs=1000, trace_stride=1)
        assert divergence_epoch(single) == 3
        with pytest.raises(DivergenceError, match=r"lambda=0\.006: ") as stacked:
            sweep_lambda(base, [0.006, 0.005], lr=1e6, epochs=1000)
        assert divergence_epoch(stacked) == 3
