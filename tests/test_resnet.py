"""Toy residual network: schedule, backprop, updates and recording."""

import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from pfc import resnet
from pfc.core import DivergenceError, FeatureSet
from pfc.data import gen_gaussian_mixture
from pfc.metrics import measure
from pfc.resnet import (
    TrainConfig,
    _Workspace,
    accuracy,
    ce_loss,
    init_params,
    resnet_backward,
    resnet_forward,
    train,
)

TINY = dict(num_blocks=2, width=5, input_dim=3, num_classes=2, per_class=4,
            epochs=2, batch_size=8, lr=0.05, lr_decay_epochs=(), momentum=0.0,
            weight_decay=0.0, record_stride=1)


def tiny_config(**overrides):
    return TrainConfig(**{**TINY, **overrides})


def tiny_data(config, seed=0, mean_scale=2.0, noise_scale=0.5):
    return gen_gaussian_mixture(
        config.num_classes, config.input_dim, config.per_class,
        mean_scale=mean_scale, noise_scale=noise_scale, seed=seed,
    )


def reference_forward(params, x, num_blocks):
    """Allocating forward pass, kept as the oracle of the workspace version."""
    preacts = []
    a = params["w_in"] @ x + params["b_in"][:, None]
    preacts.append(a)
    features = [np.maximum(a, 0.0)]
    for l in range(num_blocks):
        a = params[f"w_block_{l}"] @ features[-1] + params[f"b_block_{l}"][:, None]
        preacts.append(a)
        features.append(features[-1] + np.maximum(a, 0.0))
    logits = params["w_out"] @ features[-1] + params["b_out"][:, None]
    return logits, features, preacts


def reference_backward(params, x, labels, num_blocks):
    """Allocating backward pass, kept as the oracle of the workspace version."""
    logits, features, preacts = reference_forward(params, x, num_blocks)
    batch = x.shape[1]
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=0, keepdims=True)
    cols = np.arange(batch)
    loss = float(np.mean(np.log(e.sum(axis=0)) - shifted[labels, cols]))
    acc = float(np.mean(np.argmax(logits, axis=0) == labels))

    dz = probs.copy()
    dz[labels, cols] -= 1.0
    dz /= batch

    grads = {
        "w_out": dz @ features[-1].T,
        "b_out": dz.sum(axis=1),
    }
    dx = params["w_out"].T @ dz
    for l in range(num_blocks - 1, -1, -1):
        da = dx * (preacts[l + 1] > 0.0)
        grads[f"w_block_{l}"] = da @ features[l].T
        grads[f"b_block_{l}"] = da.sum(axis=1)
        dx = dx + params[f"w_block_{l}"].T @ da
    da = dx * (preacts[0] > 0.0)
    grads["w_in"] = da @ x.T
    grads["b_in"] = da.sum(axis=1)
    return loss, acc, grads


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected, strict=True)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def network_case(seed, columns, num_blocks=3):
    """Seeded parameters with some dead units, a batch and its labels."""
    config = tiny_config(num_blocks=num_blocks, width=12, input_dim=5,
                         num_classes=4, seed=seed)
    params = init_params(config)
    rng = np.random.default_rng([seed, columns])
    for name in params:
        if name.startswith("b_"):
            bias = 0.5 * rng.standard_normal(params[name].shape)
            # strongly negative biases switch units off, so the relu masks
            # zero whole rows of the backward pass
            bias[: len(bias) // 4] = -20.0
            params[name] = bias
    x = rng.standard_normal((5, columns))
    labels = rng.integers(0, 4, size=columns)
    return params, x, labels


class TestConfigValidation:
    def test_positive_counts(self):
        with pytest.raises(ValueError):
            tiny_config(num_blocks=0)
        with pytest.raises(ValueError):
            tiny_config(num_classes=1)
        with pytest.raises(ValueError):
            tiny_config(epochs=0)

    @pytest.mark.parametrize("name", ["num_blocks", "width", "input_dim", "per_class",
                                      "epochs", "batch_size", "record_stride"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_nonpositive_size_names_its_field(self, name, value):
        low = TrainConfig.__dataclass_fields__[name].metadata["domain"].low  # 2 for width
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {value}$"):
            tiny_config(**{name: value})

    def test_width_below_classes_rejected(self):
        with pytest.raises(ValueError, match="width must be >= num_classes"):
            tiny_config(width=3, num_classes=4)
        tiny_config(width=4, num_classes=4)  # width = K is allowed

    def test_momentum_range(self):
        with pytest.raises(ValueError):
            tiny_config(momentum=1.0)
        with pytest.raises(ValueError):
            tiny_config(momentum=-0.1)

    def test_decay_epochs_ordered_and_in_range(self):
        with pytest.raises(ValueError):
            tiny_config(lr_decay_epochs=(2, 2))
        with pytest.raises(ValueError):
            tiny_config(lr_decay_epochs=(0, 1))
        with pytest.raises(ValueError):
            tiny_config(lr_decay_epochs=(1, 5), epochs=3)

    @pytest.mark.parametrize("name, value, message", [
        ("lr", -0.01, "lr must be >= 0, got -0.01"),
        ("lr", float("nan"), "lr must be >= 0, got nan"),
        ("weight_decay", -1.0, "weight_decay must be >= 0, got -1.0"),
        ("lr_decay_factor", 0.0, "lr_decay_factor must be > 0, got 0.0"),
        ("lr_decay_factor", -0.5, "lr_decay_factor must be > 0, got -0.5"),
        ("lr_decay_epochs", (0, 1), "lr_decay_epochs must lie within 1..2, got [0, 1]"),
        ("lr_decay_epochs", (1, 5), "lr_decay_epochs must lie within 1..2, got [1, 5]"),
    ])
    def test_bad_rate_names_its_field_and_value(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_config(**{name: value})

    def test_nonnegative_rates(self):
        with pytest.raises(ValueError):
            tiny_config(lr=-0.01)
        with pytest.raises(ValueError):
            tiny_config(weight_decay=-1e-4)
        with pytest.raises(ValueError):
            tiny_config(lr_decay_factor=0.0)


class TestSchedule:
    def test_step_decay_boundaries(self):
        config = TrainConfig(epochs=300, lr=0.01, lr_decay_factor=0.1,
                             lr_decay_epochs=(100, 200))
        assert config.learning_rate(1) == 0.01
        assert config.learning_rate(99) == 0.01
        assert config.learning_rate(100) == pytest.approx(0.001)
        assert config.learning_rate(199) == pytest.approx(0.001)
        assert config.learning_rate(200) == pytest.approx(0.0001)
        assert config.learning_rate(300) == pytest.approx(0.0001)

    def test_no_decay_epochs(self):
        config = tiny_config(lr=0.3, lr_decay_epochs=())
        assert config.learning_rate(1) == 0.3
        assert config.learning_rate(2) == 0.3


class TestInit:
    def test_shapes_and_zero_biases(self):
        config = tiny_config()
        params = init_params(config)
        assert params["w_in"].shape == (5, 3)
        assert params["w_block_0"].shape == (5, 5)
        assert params["w_out"].shape == (2, 5)
        for name in ("b_in", "b_block_0", "b_block_1", "b_out"):
            np.testing.assert_array_equal(params[name], 0.0)

    def test_kaiming_scale(self):
        config = tiny_config(width=400, input_dim=100)
        params = init_params(config)
        assert np.std(params["w_in"]) == pytest.approx(np.sqrt(2 / 100), rel=0.1)
        assert np.std(params["w_block_0"]) == pytest.approx(
            np.sqrt(2 / 400), rel=0.1
        )

    def test_seeded(self):
        a = init_params(tiny_config(seed=3))
        b = init_params(tiny_config(seed=3))
        c = init_params(tiny_config(seed=4))
        assert np.array_equal(a["w_in"], b["w_in"])
        assert not np.array_equal(a["w_in"], c["w_in"])


class TestForward:
    def test_feature_list_and_first_layer(self):
        config = tiny_config()
        params = init_params(config)
        x = np.random.default_rng(0).standard_normal((3, 6))
        logits, features = resnet_forward(params, x, config.num_blocks)
        assert logits.shape == (2, 6)
        assert len(features) == config.num_blocks + 1
        first = np.maximum(params["w_in"] @ x + params["b_in"][:, None], 0.0)
        np.testing.assert_array_equal(features[0], first)

    def test_zeroed_blocks_pass_features_through(self):
        config = tiny_config()
        params = init_params(config)
        for l in range(config.num_blocks):
            params[f"w_block_{l}"] = np.zeros_like(params[f"w_block_{l}"])
            params[f"b_block_{l}"] = np.zeros_like(params[f"b_block_{l}"])
        x = np.random.default_rng(1).standard_normal((3, 6))
        _, features = resnet_forward(params, x, config.num_blocks)
        for layer in features[1:]:
            np.testing.assert_array_equal(layer, features[0])

    def test_hand_computed_single_column(self):
        params = {
            "w_in": np.array([[1.0, 0.0], [0.0, -1.0]]),
            "b_in": np.array([0.0, 0.0]),
            "w_block_0": np.array([[0.0, 1.0], [1.0, 0.0]]),
            "b_block_0": np.array([1.0, -1.0]),
            "w_out": np.array([[1.0, 1.0]]),
            "b_out": np.array([0.5]),
        }
        x = np.array([[2.0], [3.0]])
        logits, features = resnet_forward(params, x, 1)
        # x0 = relu((2, -3)) = (2, 0); block: relu((0*2+1*0+1, 2-1)) = (1, 1)
        np.testing.assert_array_equal(features[0], [[2.0], [0.0]])
        np.testing.assert_array_equal(features[1], [[3.0], [1.0]])
        assert logits[0, 0] == pytest.approx(4.5)


class TestLossAndAccuracy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.random.default_rng(2).integers(0, 4, size=10)
        assert ce_loss(logits, labels) == pytest.approx(np.log(4.0))

    def test_accuracy_counts_argmax(self):
        logits = np.array([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestBackprop:
    def test_matches_finite_differences(self):
        for seed in range(10):
            config = tiny_config(seed=seed)
            params = init_params(config)
            rng = np.random.default_rng(seed + 1000)
            # nonzero biases keep preactivations away from the relu kink,
            # where central differences straddle the nondifferentiable point.
            for name in params:
                if name.startswith("b_"):
                    params[name] = 0.3 * rng.standard_normal(params[name].shape)
            x = rng.standard_normal((3, 5))
            labels = rng.integers(0, 2, size=5)
            loss, _, grads = resnet_backward(params, x, labels, 2)
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
                err = np.linalg.norm(grads[name] - fd)
                assert err <= 1e-4 * max(1.0, np.linalg.norm(fd)), (seed, name)

    def test_loss_value_matches_forward(self):
        config = tiny_config()
        params = init_params(config)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 7))
        labels = rng.integers(0, 2, size=7)
        loss, acc, _ = resnet_backward(params, x, labels, 2)
        logits, _ = resnet_forward(params, x, 2)
        assert loss == pytest.approx(ce_loss(logits, labels), rel=1e-12)
        assert acc == pytest.approx(accuracy(logits, labels))


class TestMatchesAllocatingReference:
    @pytest.mark.parametrize("columns", [1, 7, 128])
    def test_forward_and_backward_bit_for_bit(self, columns):
        for seed in range(3):
            params, x, labels = network_case(seed, columns)
            ref_logits, ref_features, _ = reference_forward(params, x, 3)
            ref_loss, ref_acc, ref_grads = reference_backward(params, x, labels, 3)
            logits, features = resnet_forward(params, x, 3)
            assert_same_bits(logits, ref_logits)
            assert len(features) == len(ref_features)
            for got, want in zip(features, ref_features):
                assert_same_bits(got, want)
            loss, acc, grads = resnet_backward(params, x, labels, 3)
            assert (loss, acc) == (ref_loss, ref_acc)
            assert grads.keys() == ref_grads.keys()
            for name in ref_grads:
                assert_same_bits(grads[name], ref_grads[name])

    def test_reused_workspace_matches_reference(self):
        # a workspace carries the previous pass's values; none may leak
        columns = 9
        workspace = None
        for seed in range(3):
            params, x, labels = network_case(seed, columns)
            if workspace is None:
                workspace = _Workspace(params, columns, 3)
            net = resnet._Net(resnet._blocks(params, 3), workspace.grads)
            x_ones = resnet._with_ones(x)
            _, _, ref_grads = reference_backward(params, x, labels, 3)
            resnet._gradient(net, x_ones, labels, workspace)
            for name in ref_grads:
                assert_same_bits(workspace.grads[name], ref_grads[name])
            ref_logits, ref_features, _ = reference_forward(params, x, 3)
            logits = resnet._forward(net, x_ones, workspace.preacts, workspace.features,
                                     workspace.logits, workspace.zeros, workspace.fold)
            assert_same_bits(logits, ref_logits)
            for got, want in zip(workspace.features, ref_features, strict=True):
                assert_same_bits(got[:-1], want)

    def test_calls_without_workspace_do_not_alias(self):
        params, x1, labels1 = network_case(0, 6)
        _, x2, labels2 = network_case(1, 6)
        logits1, features1 = resnet_forward(params, x1, 3)
        kept = [logits1.copy(), *(f.copy() for f in features1)]
        logits2, features2 = resnet_forward(params, x2, 3)
        for a in (logits1, *features1):
            for b in (logits2, *features2):
                assert not np.shares_memory(a, b)
        for got, want in zip((logits1, *features1), kept):
            assert_same_bits(got, want)

        _, _, grads1 = resnet_backward(params, x1, labels1, 3)
        kept = {name: g.copy() for name, g in grads1.items()}
        _, _, grads2 = resnet_backward(params, x2, labels2, 3)
        for name, g in grads1.items():
            assert not any(np.shares_memory(g, other) for other in grads2.values())
            assert_same_bits(g, kept[name])
        assert not any(
            np.shares_memory(g, f) for g in grads1.values() for f in (logits2, *features2)
        )


class TestBiasFold:
    """The forward passes form ``W x + b`` as one product ``[W | b] @ [x; 1]``
    wherever ``resnet._fold_is_exact`` finds that the BLAS rounds it as the
    separate add: each dot product summed in order, so that ``b * 1.0`` is
    its last term and ``acc + b`` rounds once."""

    @pytest.mark.parametrize("rows", [1, 4, 64, 65])
    @pytest.mark.parametrize("depth", [1, 16, 64])
    @pytest.mark.parametrize("columns", [1, 7, 128, 1024])
    @pytest.mark.parametrize("bias", ["zero", "negative", "large"])
    def test_fold_is_taken_only_where_it_keeps_the_bits(self, rows, depth, columns, bias):
        rng = np.random.default_rng([rows, depth, columns, len(bias)])
        w = rng.standard_normal((rows, depth))
        x = rng.standard_normal((depth, columns))
        b = {"zero": np.zeros(rows),
             "negative": -np.abs(rng.standard_normal(rows)),
             "large": 1e12 * rng.standard_normal(rows)}[bias]
        folded = np.hstack((w, b[:, None])) @ np.vstack((x, np.ones((1, columns))))
        if resnet._fold_is_exact(rows, depth, columns):
            assert_same_bits(folded, w @ x + b[:, None])

    @pytest.mark.parametrize("columns", [128, 1024])
    def test_default_training_shapes_fold(self, columns):
        # a batch of 128 and the full set of 1024 through the default
        # network (input_dim 16, width 64, K = 4).  This pins the BLAS the
        # speedup was measured on (OpenBLAS's Haswell kernels); elsewhere
        # the passes keep their bits through the separate bias add.
        params = init_params(TrainConfig())
        assert resnet._bias_folds(params, TrainConfig().num_blocks, columns)

    @pytest.mark.parametrize("columns", [7, 128])
    def test_separate_bias_add_keeps_the_bits(self, columns, monkeypatch):
        # the path taken at shapes where the fold would move bits
        monkeypatch.setattr(resnet, "_fold_is_exact", lambda *shape: False)
        params, x, labels = network_case(0, columns)
        assert not _Workspace(params, columns, 3).fold
        ref_logits, ref_features, _ = reference_forward(params, x, 3)
        logits, features = resnet_forward(params, x, 3)
        assert_same_bits(logits, ref_logits)
        for got, want in zip(features, ref_features, strict=True):
            assert_same_bits(got, want)
        _, _, ref_grads = reference_backward(params, x, labels, 3)
        _, _, grads = resnet_backward(params, x, labels, 3)
        for name in ref_grads:
            assert_same_bits(grads[name], ref_grads[name])

    @pytest.mark.parametrize("decay_biases", [True, False])
    def test_training_without_the_fold_matches_oracle(self, decay_biases, monkeypatch):
        monkeypatch.setattr(resnet, "_fold_is_exact", lambda *shape: False)
        config = tiny_config(epochs=3, batch_size=3, momentum=0.9, weight_decay=0.05,
                             decay_biases=decay_biases, record_stride=2)
        data = tiny_data(config)
        assert_train_matches_emulation(config, data)


def emulate_one_epoch(config, data, epoch=1, params=None, velocity=None):
    """Mirror of train()'s update rule for oracle comparisons: the
    allocating reference backward pass and one update per parameter."""
    params = {k: v.copy() for k, v in (params or init_params(config)).items()}
    velocity = {
        k: (velocity[k].copy() if velocity else np.zeros_like(v))
        for k, v in params.items()
    }
    labels = data.labels()
    lr = config.learning_rate(epoch)
    order = np.random.default_rng([config.seed, epoch]).permutation(
        data.num_samples
    )
    for start in range(0, data.num_samples, config.batch_size):
        batch = order[start : start + config.batch_size]
        _, _, grads = reference_backward(
            params, data.features[:, batch], labels[batch], config.num_blocks
        )
        for name, theta in params.items():
            g = grads[name]
            if config.weight_decay > 0.0 and (
                config.decay_biases or not name.startswith("b_")
            ):
                g = g + config.weight_decay * theta
            velocity[name] = config.momentum * velocity[name] + g
            params[name] = theta - lr * velocity[name]
    return params, velocity


def assert_train_matches_emulation(config, data):
    """train() against emulate_one_epoch epoch by epoch: parameters, the
    full-set losses and accuracies, every recorded epoch's per-layer
    metrics, and the streamed final layers' features."""
    trace = train(config, data)
    labels = data.labels()
    params, velocity = None, None
    recorded = 0
    for epoch in range(1, config.epochs + 1):
        params, velocity = emulate_one_epoch(config, data, epoch, params, velocity)
        logits, features, _ = reference_forward(params, data.features, config.num_blocks)
        assert trace.losses[epoch - 1] == ce_loss(logits, labels), epoch
        assert trace.accuracies[epoch - 1] == accuracy(logits, labels), epoch
        if epoch in trace.snapshot_epochs:
            for rep, want in zip(trace.reports[recorded], features, strict=True):
                want = measure(FeatureSet(want, config.num_classes, config.per_class))
                assert_same_bits(np.array(astuple(rep)), np.array(astuple(want)))
            recorded += 1
    assert recorded == len(trace.snapshot_epochs) == len(trace.reports)
    for fs, want in zip(trace.final_layers(), features, strict=True):
        assert_same_bits(fs.features, want)
    assert trace.params.keys() == params.keys()
    for name in params:
        assert_same_bits(trace.params[name], params[name])
    return trace


class TestTrainUpdates:
    def test_single_step_is_exactly_lr_times_gradient(self):
        config = tiny_config(epochs=1, momentum=0.0, weight_decay=0.0)
        data = tiny_data(config)
        before = init_params(config)
        order = np.random.default_rng([config.seed, 1]).permutation(8)
        _, _, grads = resnet_backward(
            before, data.features[:, order], data.labels()[order], config.num_blocks
        )
        trace = train(config, data)
        for name in before:
            np.testing.assert_array_equal(
                trace.params[name], before[name] - config.lr * grads[name]
            )

    def test_momentum_and_decay_update_oracle(self):
        config = tiny_config(epochs=2, batch_size=4, momentum=0.9,
                             weight_decay=0.01)
        data = tiny_data(config)
        assert_train_matches_emulation(config, data)

    def test_bias_decay_can_be_disabled(self):
        # biases start at zero, so decay on them only bites from step 2 on.
        kept = tiny_config(epochs=2, weight_decay=0.05, decay_biases=False)
        decayed = tiny_config(epochs=2, weight_decay=0.05, decay_biases=True)
        data = tiny_data(kept)
        trace = assert_train_matches_emulation(kept, data)
        other = train(decayed, data)
        assert not np.array_equal(trace.params["b_in"], other.params["b_in"])

    @pytest.mark.parametrize("decay_biases", [True, False])
    def test_ragged_last_batch_matches_oracle(self, decay_biases):
        # batch_size 3 splits the 8 samples 3 + 3 + 2
        config = tiny_config(epochs=3, batch_size=3, momentum=0.9,
                             weight_decay=0.05, decay_biases=decay_biases,
                             record_stride=2)
        data = tiny_data(config)
        assert_train_matches_emulation(config, data)

    def test_rolling_layers_between_records_match_oracle(self):
        # every epoch's full-set pass rolls through the same two layer
        # buffers, and epochs 2, 4 and 5 measure each layer before the pass
        # overwrites it
        config = tiny_config(num_blocks=3, epochs=5, batch_size=3, momentum=0.9,
                             weight_decay=0.01, record_stride=2)
        data = tiny_data(config)
        trace = assert_train_matches_emulation(config, data)
        assert trace.snapshot_epochs == (2, 4, 5)

    def test_loss_and_accuracy_formed_once_per_epoch(self, monkeypatch):
        calls = {"ce_loss": 0, "accuracy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(resnet, name, counted(name, getattr(resnet, name)))
        config = tiny_config(epochs=4, batch_size=3)
        data = tiny_data(config)
        train(config, data)
        assert calls == {"ce_loss": 4, "accuracy": 4}

    def test_batches_run_the_gradient_kernel_alone(self, monkeypatch):
        config = tiny_config(epochs=3, batch_size=3, momentum=0.9, record_stride=2)
        data = tiny_data(config)
        want = train(config, data)

        def never(*args, **kwargs):
            raise AssertionError("train called a public pass")

        monkeypatch.setattr(resnet, "resnet_backward", never)
        monkeypatch.setattr(resnet, "resnet_forward", never)
        got = train(config, data)
        assert_same_bits(got.losses, want.losses)
        for name in want.params:
            assert_same_bits(got.params[name], want.params[name])

    def test_deterministic(self):
        config = tiny_config(epochs=3, momentum=0.9, weight_decay=1e-3,
                             batch_size=4)
        data = tiny_data(config)
        a = train(config, data)
        b = train(config, data)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.params["w_out"], b.params["w_out"])

    def test_divergence_raises_with_epoch(self):
        # lr far above stability but small enough that the relus stay
        # alive, so the iterates blow up instead of freezing.
        config = tiny_config(num_blocks=4, width=16, epochs=60, lr=5.0,
                             momentum=0.9)
        data = gen_gaussian_mixture(2, 3, 4, mean_scale=4.0, noise_scale=1.0, seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train(config, data)

    @pytest.mark.parametrize("record_stride", [1, 2], ids=["recorded", "rolling"])
    def test_overflowing_layers_raise_with_epoch(self, record_stride):
        # at lr=1e200 the first update overflows the layers; a recorded
        # epoch finds that while it measures them, any other at its loss
        config = tiny_config(lr=1e200, record_stride=record_stride)
        data = tiny_data(config)
        with pytest.raises(DivergenceError, match="non-finite at epoch 1"):
            train(config, data)


class TestTrainValidation:
    def test_data_shape_mismatch(self):
        config = tiny_config()
        data = gen_gaussian_mixture(2, 4, 4, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            train(config, data)

    def test_labels_optional(self):
        config = tiny_config(epochs=1)
        data = tiny_data(config)
        trace = train(config, data)
        assert trace.losses.shape == (1,)


class TestRecording:
    def test_snapshot_epochs_follow_stride(self):
        config = tiny_config(epochs=10, record_stride=4)
        data = tiny_data(config)
        trace = train(config, data)
        assert trace.snapshot_epochs == (4, 8, 10)
        assert len(trace.reports) == 3

    def test_stack_holds_all_layers(self):
        config = tiny_config(epochs=1)
        data = tiny_data(config)
        trace = train(config, data)
        stack = tuple(trace.final_layers())
        assert len(stack) == config.num_blocks + 1
        assert len(trace.reports[-1]) == config.num_blocks + 1
        assert stack[0].dim == config.width

    def test_snapshot_matches_forward_pass(self):
        config = tiny_config(epochs=2)
        data = tiny_data(config)
        trace = train(config, data)
        _, features = resnet_forward(
            trace.params, data.features, config.num_blocks
        )
        np.testing.assert_array_equal(
            tuple(trace.final_layers())[config.num_blocks].features,
            features[config.num_blocks],
        )

    def test_final_layer_streams_agree_and_share_no_memory(self):
        config = tiny_config(epochs=3, record_stride=2)
        data = tiny_data(config)
        trace = train(config, data)
        first, second = tuple(trace.final_layers()), tuple(trace.final_layers())
        assert len(first) == len(second) == config.num_blocks + 1
        for a, b in zip(first, second):
            assert_same_bits(a.features, b.features)
            for fs in (a, b):
                assert not fs.features.flags.writeable
                base = fs.features.base
                assert base is None or not base.flags.writeable
        arrays = [fs.features for fs in first + second]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_final_layer_streams_advanced_in_turn_agree(self):
        # two live streams own their buffers: with one stream a layer ahead,
        # each layer it forms would overwrite the input of the other's next
        # layer if they shared their two buffers
        config = tiny_config(num_blocks=3, epochs=3, record_stride=2)
        data = tiny_data(config)
        trace = train(config, data)
        a, b = trace.final_layers(), trace.final_layers()
        ahead, behind = [next(a)], []
        for fs in a:
            ahead.append(fs)
            behind.append(next(b))
        behind.extend(b)
        assert len(ahead) == len(behind) == config.num_blocks + 1
        for fa, fb in zip(ahead, behind):
            assert_same_bits(fa.features, fb.features)

    def test_peak_memory_stays_near_one_forward_block(self):
        """train() holds no whole stack: its traced allocation peak stays
        under 1.75 forward blocks of (L + 1) x (width + 1) x N floats, where
        keeping a forward block beside a measured copy of each layer peaks
        at 2.25."""
        config = TrainConfig(num_classes=4, per_class=256, epochs=8, record_stride=2,
                             lr_decay_epochs=())
        data = gen_gaussian_mixture(
            config.num_classes, config.input_dim, config.per_class, seed=4
        )
        block_bytes = 8 * (config.num_blocks + 1) * (config.width + 1) * data.num_samples
        tracemalloc.start()
        try:
            train(config, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * block_bytes


class TestLearning:
    def test_easy_mixture_is_fit_quickly(self):
        config = TrainConfig(
            num_blocks=2, width=16, input_dim=4, num_classes=2, per_class=20,
            epochs=40, batch_size=40, lr=0.05, lr_decay_epochs=(),
            momentum=0.9, weight_decay=0.0, seed=0, record_stride=40,
        )
        data = gen_gaussian_mixture(2, 4, 20, mean_scale=3.0, noise_scale=0.3, seed=1)
        trace = train(config, data)
        assert trace.accuracies[-1] == 1.0
        assert trace.losses[-1] < trace.losses[0]
